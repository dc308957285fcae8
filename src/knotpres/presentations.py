"""Finite group presentations over named generators.

Relators are positional :class:`~knotpres.words.Word` objects; the name list
is the only place display names exist.  The text grammar is

    '<' [name (',' name)*] '|' [word (',' word)*] '>'

where a word is a whitespace-separated sequence of factors ``name['^'int]``
or ``'(' word ')' ['^'int]``, and ``1`` denotes the empty word.  Parentheses
may nest to any depth.

No parsed word, and no power or product formed on the way to it, may have
more than ``MAX_WORD_LETTERS`` (one million) letters before free reduction,
nor the words of one input (a presentation's relators, or a list of words)
more than ``MAX_INPUT_LETTERS`` (four million) in all; longer input raises
ValueError before the word that passes a bound is built.  A parse error
quotes the input whole when it is at most ``QUOTE_CHARS`` (60) characters
long, and otherwise gives the offset of the failure and the 60 characters
around it; a token or value it names is cut to its first 60 characters.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, fields
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .outcomes import CheckOutcome
from .words import EMPTY, QUOTE_CHARS, Word, _quote, _trusted, commutator

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*|[<>|,^()]|-?\d+)|\S)")
MAX_WORD_LETTERS = 1_000_000
MAX_INPUT_LETTERS = 4_000_000


class Presentation:
    """Generator names plus freely reduced relator words."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: Iterable[str], relators: Iterable = ()):
        gens = tuple(generators)
        for name in gens:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad generator name {_quote(name)}")
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator names")
        rels = tuple(r if isinstance(r, Word) else Word(r) for r in relators)
        for r in rels:
            if r.max_generator() > len(gens):
                raise ValueError(f"relator {_quote(r)} uses a generator outside the alphabet")
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

    def word(self, text: str, used: int = 0) -> Word:
        """Parse a word in this alphabet, after ``used`` letters of one input."""
        toks = _tokenize(text)
        index = {name: k for k, name in enumerate(self.generators, 1)}
        letters, i = _read_word(text, toks, 0, index, used)
        if toks[i] is not None:
            raise ValueError(f"trailing input after word: {_quote(toks[i])}")
        return _trusted(letters)

    def spell(self, w: Word) -> str:
        """Render a word with this presentation's generator names."""
        if not w:
            return "1"
        names = self.generators
        return " ".join([names[g] if e == 1 else f"{names[g]}^{e}" for g, e in w.to_pairs()])


def _tokenize(text: str) -> List[Optional[str]]:
    """All tokens of ``text``, then None."""
    toks = _TOKEN_RE.findall(text)
    if "" in toks:  # a character that starts no token, matched as one
        at = _token_start(text, toks.index(""))
        rest = text[at:].rstrip()
        if len(rest) <= QUOTE_CHARS:
            raise ValueError(f"cannot tokenize {rest!r}")
        raise ValueError(f"cannot tokenize the input {_where(text, at)}")
    toks.append(None)
    return toks


def _token_start(text: str, i: int) -> int:
    """The offset of token ``i`` in ``text``, found again on the error path."""
    m = next(islice(_TOKEN_RE.finditer(text), i, None))
    return m.end() - len(m.group().lstrip())


def _where(text: str, at: int) -> str:
    """Where a parse error is: the whole text when it is at most QUOTE_CHARS
    long, else the offset ``at`` and the QUOTE_CHARS characters around it."""
    if len(text) <= QUOTE_CHARS:
        return f"in {text!r}"
    lo = min(max(at - QUOTE_CHARS // 2, 0), len(text) - QUOTE_CHARS)
    return f"at character {at} of {len(text)}, near {text[lo:lo + QUOTE_CHARS]!r}"


def _end(text: str) -> None:
    raise ValueError(f"unexpected end of input {_where(text, len(text))}")


def _expect(text: str, toks: List[Optional[str]], i: int, tok: str) -> int:
    """The index after token ``i``, which must be ``tok``."""
    if toks[i] != tok:
        if toks[i] is None:
            _end(text)
        at = _token_start(text, i)
        raise ValueError(f"expected {tok!r}, got {_quote(toks[i])} {_where(text, at)}")
    return i + 1


def _push(text: str, toks: list, i: int, stack: list, group: list, floor, cap, used) -> int:
    """Push the reduced ``group``, to the exponent if token ``i`` is a '^',
    onto ``stack``, cancelling down to ``floor``; return the index after it.
    Refused before it is built if the power, group or input passes its bound."""
    e = 1
    if toks[i] == "^":
        if toks[i + 1] is None:
            _end(text)
        try:
            e = int(toks[i + 1])
        except ValueError:
            raise ValueError(f"bad exponent {_quote(toks[i + 1])}") from None
        i += 2
        if e < 0:
            group = [-k for k in reversed(group)]
            e = -e
    size = len(group)
    p = 0  # group is p letters, a cyclically reduced core and their inverses,
    while e > 1 and p < size and group[p] == -group[-1 - p]:
        p += 1  # so its power repeats only the core and is reduced
    letters = size + (size - 2 * p) * (e - 1)
    top = len(stack)
    if size * e > MAX_WORD_LETTERS or top + letters > cap:
        word = size * e if size * e > MAX_WORD_LETTERS else top - floor + letters
        if word > MAX_WORD_LETTERS:
            raise ValueError(f"word of {word} letters exceeds the limit of {MAX_WORD_LETTERS}")
        total = used + top + letters
        raise ValueError(f"words of {total} letters in all exceed the limit of {MAX_INPUT_LETTERS}")
    if e != 1:
        group = group[:p] + group[p:size - p] * e + group[size - p:] if p else group * e
    j = 0
    while j < letters and len(stack) > floor and stack[-1] == -group[j]:
        stack.pop()
        j += 1
    stack += group[j:] if j else group
    return i


def _read_word(text: str, toks: List[Optional[str]], i: int, index: dict, used: int):
    """Read one word from token ``i`` to a ',', '|', '>', unmatched ')' or the
    end; return its reduced letters and the index after it.  Letters go on one
    stack, cancelling down to ``floor``, where the innermost open group starts;
    its ')' takes it off and pushes its power back.  ``used`` letters came before."""
    stack: List[int] = []
    floors: List[int] = []  # where each enclosing group starts
    floor, room = 0, MAX_INPUT_LETTERS - used
    cap = min(MAX_WORD_LETTERS, room)  # the stack length within both bounds
    while True:
        tok = toks[i]
        i += 1
        k = index.get(tok)
        if k is not None:
            if toks[i] == "^" or len(stack) >= cap:
                i = _push(text, toks, i, stack, [k], floor, cap, used)
            elif len(stack) > floor and stack[-1] == -k:
                stack.pop()
            else:
                stack.append(k)
        elif tok == "(":
            floors.append(floor)
            floor = len(stack)
            cap = min(floor + MAX_WORD_LETTERS, room)
            continue
        elif tok != "1":
            if tok is None:
                _end(text)
            if _NAME_RE.fullmatch(tok):
                raise ValueError(f"unknown generator {_quote(tok)}")
            raise ValueError(f"unexpected token {_quote(tok)} in word")
        # A factor ended; so do the groups that close right after it.
        while toks[i] in {",", "|", ">", ")", None}:
            if not floors:
                return tuple(stack), i
            i = _expect(text, toks, i, ")")
            group = stack[floor:]
            del stack[floor:]
            floor = floors.pop()
            cap = min(floor + MAX_WORD_LETTERS, room)
            i = _push(text, toks, i, stack, group, floor, cap, used)


def parse(text: str) -> Presentation:
    toks = _tokenize(text)
    i = _expect(text, toks, 0, "<")
    gens: List[str] = []
    more = toks[i] != "|"
    while more:
        if toks[i] is None:
            _end(text)
        if not _NAME_RE.fullmatch(toks[i]):
            raise ValueError(f"bad generator name {_quote(toks[i])}")
        gens.append(toks[i])
        more = toks[i + 1] == ","
        i += 1 + more
    i = _expect(text, toks, i, "|")
    index = {name: k for k, name in enumerate(gens, 1)}
    rels: List[Word] = []
    used = 0
    more = toks[i] != ">"
    while more:
        letters, i = _read_word(text, toks, i, index, used)
        used += len(letters)
        rels.append(_trusted(letters))
        more = toks[i] == ","
        i += more
    i = _expect(text, toks, i, ">")
    if toks[i] is not None:
        raise ValueError(f"trailing input {_quote(toks[i])}")
    if len(set(gens)) != len(gens):
        raise ValueError("duplicate generator names")
    return Presentation._trusted(tuple(gens), tuple(rels))


def serialize(p: Presentation) -> str:
    gens = ", ".join(p.generators)
    rels = ", ".join(p.spell(r) for r in p.relators)
    return f"< {gens} | {rels} >".replace("<  |", "< |").replace("|  >", "| >")


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


def hnn_extension(p: Presentation, stable: str, pairs: Sequence[Tuple[Word, Word]]) -> Presentation:
    """Adjoin a stable letter with relators ``stable^-1 u stable v^-1``."""
    if stable in p.generators:
        raise ValueError(f"stable letter {_quote(stable)} collides with a generator")
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
            raise ValueError(f"relator {_quote(w)} uses a generator outside the alphabet")
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
    rels = list(p.relators) + [Word([n + 1]), Word([n + 2] * 3), Word([n + 2, n + 1, n + 2])]
    return Presentation(p.generators + (z1, z2), rels)


@dataclass(frozen=True, slots=True)
class IdentitySequence:
    """A product of conjugated relators: entries are (conjugator, index, sign)."""

    entries: Tuple[Tuple[Word, int, int], ...]

    def product(self, p: Presentation) -> Word:
        out = EMPTY
        for g, k, s in self.entries:
            if type(k) is not int:
                raise ValueError(f"relator index {_quote(k)} is not an int")
            if type(s) is not int or s not in (1, -1):
                raise ValueError(f"bad sign {_quote(s)}: signs are the ints 1 and -1")
            if not 0 <= k < len(p.relators):
                raise ValueError(f"relator index {k} out of range")
            r = p.relators[k] if s == 1 else ~p.relators[k]
            out = out * ((~g) * r * g)
        return out


@dataclass(frozen=True)
class TietzeBudget:
    """Bounds on the Tietze moves tried; each is a count, 0 or more."""

    max_products: int = 2
    max_conjugator_len: int = 1
    max_relator_len: int = 12
    max_defining_len: int = 2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise ValueError(f"{f.name} must be at least 0, got {_quote(value)}")


@dataclass(frozen=True, slots=True)
class TietzeMove:
    kind: str
    index: Optional[int] = None
    relator_index: Optional[int] = None
    name: Optional[str] = None
    word: Optional[Word] = None
    certificate: Optional[IdentitySequence] = None


# The frozen dataclasses' __init__ sets each field through object.__setattr__
# by name; the trusted builders below store through the slot descriptors.
_set_entries = IdentitySequence.entries.__set__
_set_kind = TietzeMove.kind.__set__
_set_index = TietzeMove.index.__set__
_set_relator_index = TietzeMove.relator_index.__set__
_set_name = TietzeMove.name.__set__
_set_word = TietzeMove.word.__set__
_set_certificate = TietzeMove.certificate.__set__


def _identity(entries: Tuple[Tuple[Word, int, int], ...]) -> IdentitySequence:
    """``IdentitySequence(entries)`` without the dataclass __init__.  Private:
    only for entry tuples the consequence search built."""
    seq = object.__new__(IdentitySequence)
    _set_entries(seq, entries)
    return seq


def _move(kind: str, index: Optional[int], relator_index: Optional[int],
          name: Optional[str], word: Optional[Word],
          certificate: Optional[IdentitySequence]) -> TietzeMove:
    """``TietzeMove(...)`` with every field given, without the dataclass
    __init__.  Private: only for the moves ``tietze_neighbors`` makes."""
    move = object.__new__(TietzeMove)
    _set_kind(move, kind)
    _set_index(move, index)
    _set_relator_index(move, relator_index)
    _set_name(move, name)
    _set_word(move, word)
    _set_certificate(move, certificate)
    return move


def words_up_to(ngens: int, maxlen: int) -> Iterator[Word]:
    """All freely reduced words of length <= maxlen, in length-lex order.

    Letter order: 1, -1, 2, -2, ...
    """
    alphabet = [k for g in range(1, ngens + 1) for k in (g, -g)]
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


def _certificate_blocks(p: Presentation, budget: TietzeBudget):
    """Conjugated-relator building blocks in deterministic order, as pairs
    ``(letters of g^-1 r^s g, certificate entry (g, j, s))``."""
    conjugators = list(words_up_to(len(p.generators), budget.max_conjugator_len))
    blocks = []
    for j, r in enumerate(p.relators):
        for s in (1, -1):
            body = r if s == 1 else ~r
            for g in conjugators:
                blocks.append((((~g) * body * g).letters, (g, j, s)))
    return blocks


def _consequence_search(blocks, budget: TietzeBudget, target: Optional[Word]):
    """Bounded BFS over products of the given conjugated-relator blocks.

    With a target, returns the first certificate reaching it (or None).
    Without one, returns {letters: certificate entries} for every reachable
    nonempty word.  The search runs on reduced letter tuples.
    """
    longest = max((len(b[0]) for b in blocks), default=0)
    cap = budget.max_relator_len + longest
    goal = None
    if target is not None:
        cap = max(cap, len(target) + longest)
        goal = target.letters
        if goal == ():
            return _identity(())
        first = {}
        for body, entry in blocks:
            first.setdefault(body, entry)
    last = budget.max_products  # depth of the last level; children there are not queued
    found = {(): ()}
    queue = deque([((), (), 0)] if last else ())  # no products: nothing to expand
    while queue:
        w, path, depth = queue.popleft()
        depth += 1  # of the children
        if depth == last and goal is not None:
            # Free reduction is unique, so w * body == goal exactly when body
            # is the reduced w^-1 goal, in which the common prefix of w and
            # goal cancels.  The first block with those letters is the one a
            # loop over the blocks would reach first; the goal is never in
            # found, and len(goal) <= cap.
            c = 0
            while c < len(w) and c < len(goal) and w[c] == goal[c]:
                c += 1
            entry = first.get(tuple(-k for k in reversed(w[c:])) + goal[c:])
            if entry is not None:
                return _identity(path + (entry,))
            continue
        for body, entry in blocks:
            # w * body, cancelling at the seam (both are reduced)
            if w and body and w[-1] == -body[0]:
                i, j, n = len(w) - 1, 1, len(body)
                while i and j < n and w[i - 1] == -body[j]:
                    i -= 1
                    j += 1
                nw = w[:i] + body[j:]
            else:
                nw = w + body
            if len(nw) > cap or nw in found:
                continue
            npath = path + (entry,)
            found[nw] = npath
            if nw == goal:
                return _identity(npath)
            if depth != last:
                queue.append((nw, npath, depth))
    if goal is not None:
        return None
    del found[()]
    return found


def _eliminate(
    relators: Sequence[Word], ri: int, g: int, max_letters: Optional[int] = None
) -> Optional[Tuple[Word, Tuple[Word, ...]]]:
    """Eliminate generator letter ``g`` (1-based) by solving ``relators[ri]``,
    in which it must occur exactly once.

    Returns ``(rep, rest)``: ``rep`` is the word ``g`` equals, still in the
    old alphabet; ``rest`` holds every other relator, in order, with ``rep``
    put for ``g``, freely reduced, and each generator above ``g`` renumbered
    down by one.  Empty results stay in ``rest``.  Returns None when ``g``
    does not occur exactly once, or when a reduced result is longer than
    ``max_letters``.
    """
    letters = relators[ri].letters
    plus = letters.count(g)
    if plus + letters.count(-g) != 1:
        return None
    pos = letters.index(g if plus else -g)
    before, after = _trusted(letters[:pos]), _trusted(letters[pos + 1 :])
    rep = ~before * ~after if plus else after * before
    image = [k - 1 if k > g else k + 1 if k < -g else k for k in rep.letters]
    inverse = [-k for k in reversed(image)]
    rest = []
    for rj, r in enumerate(relators):
        if rj == ri:
            continue
        out: List[int] = []
        for k in r.letters:
            if k == g or k == -g:
                piece = image if k == g else inverse
            else:
                piece = (k - 1 if k > g else k + 1 if k < -g else k,)
            for m in piece:
                if out and out[-1] == -m:
                    out.pop()
                else:
                    out.append(m)
        if max_letters is not None and len(out) > max_letters:
            return None
        rest.append(_trusted(tuple(out)))
    return rep, tuple(rest)


def _remap_certificate(cert: IdentitySequence, removed: int) -> IdentitySequence:
    return _identity(tuple((g, j if j < removed else j - 1, s) for g, j, s in cert.entries))


def tietze_neighbors(
    p: Presentation, budget: TietzeBudget = TietzeBudget()
) -> Iterator[Tuple[Presentation, TietzeMove]]:
    """Presentations one certified Tietze move away, in deterministic order.

    Emission order: relator removals by index, generator removals by
    (generator, relator), relator additions length-lex by the new word,
    generator additions length-lex by the defining word.
    """
    ngens = len(p.generators)
    blocks = _certificate_blocks(p, budget)

    for i in range(len(p.relators)):
        others = [b for b in blocks if b[1][1] != i]
        cert = _consequence_search(others, budget, target=p.relators[i])
        if cert is None:
            continue
        rest = p.relators[:i] + p.relators[i + 1 :]
        move = _move("remove-relator", i, None, None, p.relators[i],
                     _remap_certificate(cert, i))
        yield Presentation._trusted(p.generators, rest), move

    for g in range(ngens):
        names = p.generators[:g] + p.generators[g + 1 :]
        for ri in range(len(p.relators)):
            step = _eliminate(p.relators, ri, g + 1, budget.max_relator_len)
            if step is None:
                continue
            rep, rest = step
            move = _move("remove-generator", g, ri, p.generators[g], rep, None)
            yield Presentation._trusted(names, rest), move

    reachable = _consequence_search(blocks, budget, target=None)
    short = [w for w in reachable if len(w) <= budget.max_relator_len]
    # length-lex: both sorts are stable
    short.sort()
    short.sort(key=len)
    for letters in short:
        w = _trusted(letters)
        move = _move("add-relator", None, None, None, w, _identity(reachable[letters]))
        yield Presentation._trusted(p.generators, p.relators + (w,)), move

    name = fresh_name("y", p.generators)
    gens = p.generators + (name,)
    for w in words_up_to(ngens, budget.max_defining_len):
        if not w:
            continue
        rel = _trusted((ngens + 1,) + (~w).letters)
        move = _move("add-generator", None, None, name, w, None)
        yield Presentation._trusted(gens, p.relators + (rel,)), move


def is_freely_related(p: Presentation) -> CheckOutcome:
    """Whether the relators freely generate a subgroup of rank exactly their count."""
    from .foldings import fold

    graph = fold(len(p.generators), p.relators)
    rank = graph.rank()
    evidence = {"rank": rank, "relators": len(p.relators)}
    if rank == len(p.relators):
        return CheckOutcome.yes(evidence)
    return CheckOutcome.no(evidence)
