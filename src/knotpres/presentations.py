"""Finite group presentations over named generators.

Relators are positional :class:`~knotpres.words.Word` objects; the name list
is the only place display names exist.  The text grammar is

    '<' [name (',' name)*] '|' [word (',' word)*] '>'

where a word is a whitespace-separated sequence of factors ``name['^'int]``
or ``'(' word ')' ['^'int]``, and ``1`` denotes the empty word.  Parentheses
may nest to any depth.

No parsed word, and no power or product formed on the way to it, may have
more than ``MAX_WORD_LETTERS`` (one million) letters before free reduction;
longer input raises ValueError before the word is built.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .outcomes import CheckOutcome
from .words import EMPTY, Word, _trusted, commutator

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\s*(<|>|\||,|\^|\(|\)|-?\d+|[A-Za-z][A-Za-z0-9_]*)")
MAX_WORD_LETTERS = 1_000_000


class Presentation:
    """Generator names plus freely reduced relator words."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: Iterable[str], relators: Iterable = ()):
        gens = tuple(generators)
        for name in gens:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad generator name {name!r}")
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator names")
        rels = tuple(r if isinstance(r, Word) else Word(r) for r in relators)
        for r in rels:
            if r.max_generator() > len(gens):
                raise ValueError(f"relator {r!r} uses a generator outside the alphabet")
        self.generators = gens
        self.relators = rels

    @classmethod
    def _trusted(cls, generators: Tuple[str, ...], relators: Tuple[Word, ...]) -> "Presentation":
        """Build without validation from a tuple of distinct valid names and a
        tuple of reduced Words over them.

        Private: only for presentations derived from an already validated
        one in ways that keep those invariants, as the Tietze moves do.
        """
        p = object.__new__(cls)
        p.generators = generators
        p.relators = relators
        return p

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presentation)
            and self.generators == other.generators
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return hash((self.generators, self.relators))

    def __repr__(self) -> str:
        return f"Presentation({self.generators!r}, {list(self.relators)!r})"

    def __str__(self) -> str:
        return serialize(self)

    def gen(self, name: str) -> Word:
        return Word([self.generators.index(name) + 1])

    def word(self, text: str) -> Word:
        """Parse a word in this presentation's alphabet."""
        tokens = _tokenize(text)
        w = _parse_word(tokens, {n: i for i, n in enumerate(self.generators)})
        if tokens.peek() is not None:
            raise ValueError(f"trailing input after word: {tokens.peek()!r}")
        return w

    def spell(self, w: Word) -> str:
        """Render a word with this presentation's generator names."""
        if not w:
            return "1"
        parts = []
        for gen, exp in w.to_pairs():
            name = self.generators[gen]
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return " ".join(parts)


class _Tokens:
    def __init__(self, items: List[str], text: str):
        self.items = items
        self.pos = 0
        self.text = text

    def peek(self) -> Optional[str]:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError(f"unexpected end of input in {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r} in {self.text!r}")


def _tokenize(text: str) -> _Tokens:
    items = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"cannot tokenize {rest!r}")
        items.append(m.group(1))
        pos = m.end()
    return _Tokens(items, text)


def _parse_word(tokens: _Tokens, index: dict) -> Word:
    """Read one word, up to a ',', '|', '>' or unmatched ')'.  Open groups
    wait on a list, not on the call stack, so nesting depth is unlimited."""
    outer: List[Optional[Word]] = []  # running words of the enclosing groups
    w: Optional[Word] = None  # running word of the current group
    while True:
        tok = tokens.next()
        if tok == "(":
            outer.append(w)
            w = None
            continue
        if tok == "1":
            f = EMPTY
        elif _NAME_RE.fullmatch(tok):
            if tok not in index:
                raise ValueError(f"unknown generator {tok!r}")
            f = _power(tokens, Word([index[tok] + 1]))
        else:
            raise ValueError(f"unexpected token {tok!r} in word")
        while True:
            if w is None:
                w = f
            else:
                _check_length(len(w) + len(f))
                w = w * f
            if tokens.peek() not in (None, ",", "|", ">", ")"):
                break
            if not outer:
                return w
            tokens.expect(")")
            f = _power(tokens, w)
            w = outer.pop()


def _power(tokens: _Tokens, base: Word) -> Word:
    """``base`` raised to the exponent that follows it, if one does."""
    if tokens.peek() != "^":
        return base
    tokens.next()
    exp_tok = tokens.next()
    try:
        exp = int(exp_tok)
    except ValueError:
        raise ValueError(f"bad exponent {exp_tok!r}") from None
    _check_length(len(base) * abs(exp))
    return base**exp


def _check_length(letters: int) -> None:
    if letters > MAX_WORD_LETTERS:
        raise ValueError(
            f"word of {letters} letters exceeds the limit of {MAX_WORD_LETTERS}"
        )


def parse(text: str) -> Presentation:
    tokens = _tokenize(text)
    tokens.expect("<")
    gens: List[str] = []
    if tokens.peek() != "|":
        while True:
            name = tokens.next()
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad generator name {name!r}")
            gens.append(name)
            if tokens.peek() == ",":
                tokens.next()
            else:
                break
    tokens.expect("|")
    index = {n: i for i, n in enumerate(gens)}
    rels: List[Word] = []
    if tokens.peek() != ">":
        while True:
            rels.append(_parse_word(tokens, index))
            if tokens.peek() == ",":
                tokens.next()
            else:
                break
    tokens.expect(">")
    if tokens.peek() is not None:
        raise ValueError(f"trailing input {tokens.peek()!r}")
    return Presentation(gens, rels)


def serialize(p: Presentation) -> str:
    gens = ", ".join(p.generators)
    rels = ", ".join(p.spell(r) for r in p.relators)
    return f"< {gens} | {rels} >".replace("<  |", "< |").replace("|  >", "| >")


def to_json_dict(p: Presentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [r.to_pairs() for r in p.relators],
    }


def from_json_dict(d: dict) -> Presentation:
    rels = [Word.from_pairs(pairs) for pairs in d["relators"]]
    return Presentation(d["generators"], rels)


def free_product(p: Presentation, q: Presentation, tags: Tuple[str, str] = ("", "")) -> Presentation:
    """Free product, with subindex-style tags appended to make names disjoint."""
    names = [n + tags[0] for n in p.generators] + [n + tags[1] for n in q.generators]
    if len(set(names)) != len(names):
        raise ValueError(f"generator name collision in product: {sorted(names)}")
    offset = len(p.generators)
    rels = list(p.relators) + [r.shift(offset) for r in q.relators]
    return Presentation(names, rels)


def direct_product(p: Presentation, q: Presentation, tags: Tuple[str, str] = ("", "")) -> Presentation:
    out = free_product(p, q, tags)
    offset = len(p.generators)
    rels = list(out.relators)
    for i in range(len(p.generators)):
        for j in range(len(q.generators)):
            rels.append(commutator(Word([i + 1]), Word([offset + j + 1])))
    return Presentation(out.generators, rels)


def hnn_extension(
    p: Presentation, stable: str, pairs: Sequence[Tuple[Word, Word]]
) -> Presentation:
    """Adjoin a stable letter with relators ``stable^-1 u stable v^-1``."""
    if stable in p.generators:
        raise ValueError(f"stable letter {stable!r} collides with a generator")
    ngens = len(p.generators)
    s = ngens + 1
    rels = list(p.relators)
    for u, v in pairs:
        if u.max_generator() > ngens or v.max_generator() > ngens:
            raise ValueError("associated words use generators outside the base alphabet")
        rels.append(Word((-s,) + u.letters + (s,)) * ~v)
    return Presentation(p.generators + (stable,), rels)


def quotient(p: Presentation, extra: Iterable[Word]) -> Presentation:
    extra = tuple(w if isinstance(w, Word) else Word(w) for w in extra)
    for w in extra:
        if w.max_generator() > len(p.generators):
            raise ValueError(f"relator {w!r} uses a generator outside the alphabet")
    return Presentation(p.generators, p.relators + extra)


def deficiency(p: Presentation) -> int:
    return len(p.generators) - len(p.relators)


def fresh_name(base: str, used: Iterable[str]) -> str:
    used = set(used)
    name = base
    while name in used:
        name += "_"
    return name


def drop_deficiency(p: Presentation) -> Presentation:
    """Lower deficiency by one without changing the group's homology type.

    Adds generators z1, z2 with relators z1, z2^3, z2 z1 z2 (a presentation
    of the trivial group with deficiency -1, free-producted in).
    """
    n = len(p.generators)
    z1 = fresh_name("z1", p.generators)
    z2 = fresh_name("z2", tuple(p.generators) + (z1,))
    rels = list(p.relators)
    rels.append(Word([n + 1]))
    rels.append(Word([n + 2] * 3))
    rels.append(Word([n + 2, n + 1, n + 2]))
    return Presentation(p.generators + (z1, z2), rels)


@dataclass(frozen=True)
class IdentitySequence:
    """A product of conjugated relators: entries are (conjugator, index, sign)."""

    entries: Tuple[Tuple[Word, int, int], ...]

    def product(self, p: Presentation) -> Word:
        out = EMPTY
        for g, k, s in self.entries:
            if type(k) is not int:
                raise ValueError(f"relator index {k!r} is not an int")
            if type(s) is not int or s not in (1, -1):
                raise ValueError(f"bad sign {s!r}: signs are the ints 1 and -1")
            if not 0 <= k < len(p.relators):
                raise ValueError(f"relator index {k} out of range")
            r = p.relators[k] if s == 1 else ~p.relators[k]
            out = out * ((~g) * r * g)
        return out


@dataclass(frozen=True)
class TietzeBudget:
    max_products: int = 2
    max_conjugator_len: int = 1
    max_relator_len: int = 12
    max_defining_len: int = 2


@dataclass(frozen=True)
class TietzeMove:
    kind: str
    index: Optional[int] = None
    relator_index: Optional[int] = None
    name: Optional[str] = None
    word: Optional[Word] = None
    certificate: Optional[IdentitySequence] = None


def words_up_to(ngens: int, maxlen: int) -> Iterator[Word]:
    """All freely reduced words of length <= maxlen, in length-lex order.

    Letter order: 1, -1, 2, -2, ...
    """
    alphabet = []
    for g in range(1, ngens + 1):
        alphabet.extend([g, -g])
    level: List[Tuple[int, ...]] = [()]
    yield EMPTY
    for _ in range(maxlen):
        nxt = []
        for tup in level:
            for k in alphabet:
                if tup and tup[-1] == -k:
                    continue
                new = tup + (k,)
                nxt.append(new)
                yield _trusted(new)
        level = nxt


def _certificate_blocks(p: Presentation, budget: TietzeBudget, skip: Optional[int]):
    """Conjugated-relator building blocks in deterministic order, as pairs
    ``(letters of g^-1 r^s g, certificate entry (g, j, s))``."""
    conjugators = list(words_up_to(len(p.generators), budget.max_conjugator_len))
    blocks = []
    for j, r in enumerate(p.relators):
        if j == skip:
            continue
        for s in (1, -1):
            body = r if s == 1 else ~r
            for g in conjugators:
                blocks.append((((~g) * body * g).letters, (g, j, s)))
    return blocks


def _consequence_search(
    p: Presentation, budget: TietzeBudget, skip: Optional[int], target: Optional[Word]
):
    """Bounded BFS over products of conjugated relators.

    With a target, returns the first certificate reaching it (or None).
    Without one, returns {letters: certificate entries} for every reachable
    nonempty word.  The search runs on reduced letter tuples.
    """
    blocks = _certificate_blocks(p, budget, skip)
    longest = max((len(b[0]) for b in blocks), default=0)
    cap = budget.max_relator_len + longest
    goal = None
    if target is not None:
        cap = max(cap, len(target) + longest)
        goal = target.letters
    if goal == ():
        return IdentitySequence(())
    found = {(): ()}
    queue = deque([((), (), 0)])
    while queue:
        w, path, depth = queue.popleft()
        if depth == budget.max_products:
            continue
        for body, entry in blocks:
            # w * body, cancelling at the seam (both are reduced)
            i, j, n = len(w), 0, len(body)
            while i and j < n and w[i - 1] == -body[j]:
                i -= 1
                j += 1
            nw = w[:i] + body[j:]
            if len(nw) > cap or nw in found:
                continue
            npath = path + (entry,)
            found[nw] = npath
            if nw == goal:
                return IdentitySequence(npath)
            queue.append((nw, npath, depth + 1))
    if goal is not None:
        return None
    del found[()]
    return found


def _remap_certificate(cert: IdentitySequence, removed: int) -> IdentitySequence:
    entries = tuple(
        (g, j if j < removed else j - 1, s) for g, j, s in cert.entries
    )
    return IdentitySequence(entries)


def tietze_neighbors(
    p: Presentation, budget: TietzeBudget = TietzeBudget()
) -> Iterator[Tuple[Presentation, TietzeMove]]:
    """Presentations one certified Tietze move away, in deterministic order.

    Emission order: relator removals by index, generator removals by
    (generator, relator), relator additions length-lex by the new word,
    generator additions length-lex by the defining word.
    """
    ngens = len(p.generators)

    for i in range(len(p.relators)):
        cert = _consequence_search(p, budget, skip=i, target=p.relators[i])
        if cert is None:
            continue
        rest = p.relators[:i] + p.relators[i + 1 :]
        move = TietzeMove(
            kind="remove-relator",
            index=i,
            word=p.relators[i],
            certificate=_remap_certificate(cert, i),
        )
        yield Presentation._trusted(p.generators, rest), move

    for g in range(ngens):
        target = g + 1
        for ri, r in enumerate(p.relators):
            hits = [pos for pos, k in enumerate(r.letters) if abs(k) == target]
            if len(hits) != 1:
                continue
            pos = hits[0]
            u = Word(r.letters[:pos])
            v = Word(r.letters[pos + 1 :])
            rep = (~u) * (~v) if r.letters[pos] > 0 else v * u
            images = [Word([k + 1]) for k in range(ngens)]
            images[g] = rep
            collapse = [
                Word([k + 1 if k < g else k]) if k != g else EMPTY for k in range(ngens)
            ]
            new_rels = []
            ok = True
            for rj, other in enumerate(p.relators):
                if rj == ri:
                    continue
                sub = other.substitute(images).substitute(collapse)
                if len(sub) > budget.max_relator_len:
                    ok = False
                    break
                new_rels.append(sub)
            if not ok:
                continue
            names = p.generators[:g] + p.generators[g + 1 :]
            move = TietzeMove(
                kind="remove-generator",
                index=g,
                relator_index=ri,
                name=p.generators[g],
                word=rep,
            )
            yield Presentation._trusted(names, tuple(new_rels)), move

    reachable = _consequence_search(p, budget, skip=None, target=None)
    short = [w for w in reachable if len(w) <= budget.max_relator_len]
    for letters in sorted(short, key=lambda w: (len(w), w)):
        w = _trusted(letters)
        move = TietzeMove(
            kind="add-relator", word=w, certificate=IdentitySequence(reachable[letters])
        )
        yield Presentation._trusted(p.generators, p.relators + (w,)), move

    name = fresh_name("y", p.generators)
    for w in words_up_to(ngens, budget.max_defining_len):
        if not w:
            continue
        rel = Word([ngens + 1]) * ~w
        move = TietzeMove(kind="add-generator", name=name, word=w)
        yield Presentation._trusted(p.generators + (name,), p.relators + (rel,)), move


def is_freely_related(p: Presentation) -> CheckOutcome:
    """Whether the relators freely generate a subgroup of rank exactly their count."""
    from .foldings import fold

    graph = fold(len(p.generators), p.relators)
    rank = graph.rank()
    evidence = {"rank": rank, "relators": len(p.relators)}
    if rank == len(p.relators):
        return CheckOutcome.yes(evidence)
    return CheckOutcome.no(evidence)
