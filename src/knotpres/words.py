"""Freely reduced words over a positional alphabet.

A letter is a nonzero integer: ``k > 0`` names generator ``k - 1`` and
``k < 0`` names the inverse of generator ``-k - 1``.  Every constructor in
this module reduces eagerly, so two words are equal in the free group exactly
when their letter tuples are equal.  Generator display names are attached at
the presentation level, never here.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

QUOTE_CHARS = 60  # longest input text or repr an error message quotes whole


def _quote(value) -> str:
    """``repr(value)`` for an error message, cut after QUOTE_CHARS characters."""
    text = repr(value)
    return text if len(text) <= QUOTE_CHARS else text[:QUOTE_CHARS] + "..."


def _reduced(letters: Iterable[int]) -> Tuple[int, ...]:
    stack: list[int] = []
    for k in letters:
        if type(k) is not int or k == 0:
            raise ValueError(f"bad letter {_quote(k)}: letters are nonzero integers")
        if stack and stack[-1] == -k:
            stack.pop()
        else:
            stack.append(k)
    return tuple(stack)


class Word:
    """An immutable freely reduced word."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        self.letters = _reduced(letters)

    def to_pairs(self) -> list:
        """Run-length ``[generator, exponent]`` pairs, the JSON form."""
        pairs: list[list[int]] = []
        for k in self.letters:
            gen = abs(k) - 1
            exp = 1 if k > 0 else -1
            if pairs and pairs[-1][0] == gen and (pairs[-1][1] > 0) == (exp > 0):
                pairs[-1][1] += exp
            else:
                pairs.append([gen, exp])
        return pairs

    def __mul__(self, other: "Word") -> "Word":
        # Both operands are reduced, so cancellation can only happen at the seam.
        a, b = self.letters, other.letters
        i, j, n = len(a), 0, len(b)
        while i and j < n and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return _trusted(a[:i] + b[j:])

    def __invert__(self) -> "Word":
        return _trusted(tuple(-k for k in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        return Word(self.letters * n)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word({list(self.letters)!r})"

    def max_generator(self) -> int:
        """Smallest alphabet size this word fits in."""
        letters = self.letters
        if not letters:
            return 0
        return max(max(letters), -min(letters))

    def shift(self, offset: int) -> "Word":
        """Reindex every generator by ``+offset`` (for product alphabets)."""
        return Word(tuple(k + offset if k > 0 else k - offset for k in self.letters))


def _trusted(letters: Tuple[int, ...]) -> Word:
    """Wrap a tuple of nonzero ints that is already freely reduced.

    Private: only for tuples that are reduced by construction, since it
    skips the check that the public constructor makes.
    """
    w = object.__new__(Word)
    w.letters = letters
    return w


EMPTY = Word()


def _direction(k: int) -> int:
    """The direction index of letter ``k``, the edge label of coset tables and
    folded graphs: 2g for 0-based generator g, 2g+1 for its inverse."""
    return 2 * k - 2 if k > 0 else -2 * k - 1


def _directions(word: Word) -> Tuple[int, ...]:
    """The direction indices of a word's letters."""
    return tuple(map(_direction, word.letters))


def conjugate(u: Word, g: Word) -> Word:
    """g^-1 u g."""
    return (~g) * u * g


def commutator(u: Word, v: Word) -> Word:
    """u^-1 v^-1 u v."""
    return (~u) * (~v) * u * v


def cyclic_reduce(w: Word) -> Tuple[Word, Word]:
    """Split ``w`` as ``peel * core * peel^-1`` with ``core`` cyclically reduced.

    Returns ``(core, peel)``.
    """
    letters = w.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    # slices of a reduced word are reduced
    return _trusted(letters[i:j]), _trusted(letters[:i])


def conjugacy_witness(u: Word, v: Word) -> Optional[Word]:
    """A word ``g`` with ``g^-1 u g == v`` in the free group, else None."""
    core_u, peel_u = cyclic_reduce(u)
    core_v, peel_v = cyclic_reduce(v)
    if len(core_u) != len(core_v):
        return None
    if not core_u:
        return EMPTY
    cu, cv = core_u.letters, core_v.letters
    for k in range(len(cu)):
        if cu[k:] + cu[:k] == cv:
            # rotating core_u left by k conjugates it by its length-k prefix
            return peel_u * Word(cu[:k]) * ~peel_v
    return None
