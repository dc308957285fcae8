"""Freely reduced words over a positional alphabet.

A letter is a nonzero integer: ``k > 0`` names generator ``k - 1`` and
``k < 0`` names the inverse of generator ``-k - 1``.  Every constructor in
this module reduces eagerly, so two words are equal in the free group exactly
when their letter tuples are equal.  Generator display names are attached at
the presentation level, never here.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple


def _reduced(letters: Iterable[int]) -> Tuple[int, ...]:
    stack: list[int] = []
    for k in letters:
        if not isinstance(k, int) or k == 0:
            raise ValueError(f"bad letter {k!r}: letters are nonzero integers")
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

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "Word":
        """Build from run-length ``(generator, exponent)`` pairs (0-based)."""
        letters: list[int] = []
        for gen, exp in pairs:
            if gen < 0:
                raise ValueError(f"generator index {gen} is negative")
            k = gen + 1 if exp > 0 else -(gen + 1)
            letters.extend([k] * abs(exp))
        return cls(letters)

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

    def substitute(self, images: Sequence["Word"]) -> "Word":
        """Replace generator ``i`` by ``images[i]`` throughout."""
        out: list[int] = []
        for k in self.letters:
            img = images[abs(k) - 1]
            out.extend(img.letters if k > 0 else (~img).letters)
        return Word(out)


def _trusted(letters: Tuple[int, ...]) -> Word:
    """Wrap a tuple of nonzero ints that is already freely reduced.

    Private: only for tuples that are reduced by construction, since it
    skips the check that the public constructor makes.
    """
    w = object.__new__(Word)
    w.letters = letters
    return w


EMPTY = Word()


def reduce(letters: Iterable[int]) -> Word:
    """Freely reduce a raw letter sequence."""
    return Word(letters)


def concat(*words: Word) -> Word:
    letters: list[int] = []
    for w in words:
        letters.extend(w.letters)
    return Word(letters)


def invert(w: Word) -> Word:
    return ~w


def conjugate(u: Word, g: Word) -> Word:
    """g^-1 u g."""
    return (~g) * u * g


def commutator(u: Word, v: Word) -> Word:
    """u^-1 v^-1 u v."""
    return (~u) * (~v) * u * v


def free_equal(u: Word, v: Word) -> bool:
    return u == v


def cyclic_reduce(w: Word) -> Tuple[Word, Word]:
    """Split ``w`` as ``peel * core * peel^-1`` with ``core`` cyclically reduced.

    Returns ``(core, peel)``.
    """
    letters = list(w.letters)
    peel: list[int] = []
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        peel.append(letters[0])
        letters = letters[1:-1]
    return Word(letters), Word(peel)


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
