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
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import compress, count, islice
from operator import ne, neg

from .foldings import rank
from .outcomes import CheckOutcome
from .words import EMPTY, QUOTE_CHARS, Word, _check_count, _check_word, _quote, _trusted

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*|[<>|,^()]|-?\d+)|\S)")
MAX_WORD_LETTERS = 1_000_000
MAX_INPUT_LETTERS = 4_000_000


class Presentation:
    """Generator names plus freely reduced relator words."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: Iterable[str], relators: Iterable = ()):
        gens = tuple(generators)
        _check_names(gens)
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator names")
        rels = _relators(relators, len(gens))
        self.generators = gens
        self.relators = rels

    @classmethod
    def _trusted(cls, generators: tuple[str, ...], relators: tuple[Word, ...]) -> Presentation:
        """Build without validation from a tuple of distinct valid names and a
        tuple of reduced Words over them.

        Private: only for presentations derived from already validated ones
        in ways that keep those invariants, as the Tietze moves, the derived
        constructors and the gadgets do.  The rule: a derived constructor
        checks only what it adds (a new name, a word from its caller) and
        builds the rest through here.
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
        return _word(text, _name_index(self.generators), used)

    def spell(self, w: Word) -> str:
        """Render a word with this presentation's generator names."""
        _check_word(w, len(self.generators), "word")
        return self._spell(w)

    def _spell(self, w: Word) -> str:
        """``spell`` for a word known to be over this alphabet."""
        letters = w.letters
        if not letters:
            return "1"
        names = self.generators
        parts = []
        prev, e = letters[0], 0
        for k in letters[1:] + (0,):  # the 0 ends the last run
            e += 1
            if k != prev:  # a run of e letters prev ends
                if prev > 0:
                    parts.append(names[prev - 1] if e == 1 else f"{names[prev - 1]}^{e}")
                else:
                    parts.append(f"{names[-prev - 1]}^{-e}")
                prev, e = k, 0
        return " ".join(parts)


def _check_names(names: Iterable[str]) -> None:
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"bad generator name {_quote(name)}")


def _relators(words: Iterable, ngens: int) -> tuple[Word, ...]:
    """``words`` as reduced Words, each refused unless it fits ``ngens`` generators."""
    rels = tuple(r if isinstance(r, Word) else Word(r) for r in words)
    for r in rels:
        _check_word(r, ngens, "relator")
    return rels


_last_index = ((), {})


def _name_index(generators: tuple[str, ...]) -> dict:
    """Each name in ``generators`` to its letter.

    The index of the last tuple asked about is kept, as one (tuple, index)
    pair replaced in one assignment, so the words read over one
    presentation share one index; the tuple is matched by identity, and
    the pair's reference keeps it alive.
    """
    global _last_index
    names, index = _last_index
    if names is not generators:
        index = {name: k for k, name in enumerate(generators, 1)}
        _last_index = generators, index
    return index


def _word(text: str, index: dict, used: int = 0) -> Word:
    """Parse a word whose names ``index`` maps to letters, after ``used`` letters of one input."""
    toks = _tokenize(text)
    letters, i = _read_word(text, toks, 0, index, used)
    if toks[i] is not None:
        raise ValueError(f"trailing input after word: {_quote(toks[i])}")
    return _trusted(letters)


def _tokenize(text: str) -> list[str | None]:
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


def _expect(text: str, toks: list[str | None], i: int, tok: str) -> int:
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
    if letters and top > floor and stack[-1] == -group[0]:
        # j letters cancel: where the stack, read down from its top, first differs
        # from the negated group letters, found by C iterators that stop there
        unlike = map(ne, islice(reversed(stack), top - floor), map(neg, group))
        j = next(compress(count(), unlike), min(letters, top - floor))
        del stack[top - j:]
        group = group[j:]
    stack += group
    return i


def _read_word(text: str, toks: list[str | None], i: int, index: dict, used: int):
    """Read one word from token ``i`` to a ',', '|', '>', unmatched ')' or the
    end; return its reduced letters and the index after it.  Letters go on one
    stack, cancelling down to ``floor``, where the innermost open group starts;
    its ')' takes it off and pushes its power back.  ``used`` letters came before."""
    stack: list[int] = []
    floors: list[int] = []  # where each enclosing group starts
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
    gens: list[str] = []
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
    names = tuple(gens)
    index = _name_index(names)
    rels: list[Word] = []
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
    return Presentation._trusted(names, tuple(rels))


def serialize(p: Presentation) -> str:
    gens = ", ".join(p.generators)
    rels = ", ".join(p._spell(r) for r in p.relators)
    return f"< {gens} | {rels} >".replace("<  |", "< |").replace("|  >", "| >")


def free_product(p: Presentation, q: Presentation, tags: tuple[str, str] = ("", "")) -> Presentation:
    """Free product, with subindex-style tags appended to make names disjoint."""
    names = tuple(n + tags[0] for n in p.generators) + tuple(n + tags[1] for n in q.generators)
    if len(set(names)) != len(names):
        raise ValueError(f"generator name collision in product: {_quote(sorted(names))}")
    offset = len(p.generators)
    # the factors' names are valid, so a tagged name can only be bad through its tag
    for tag, block in ((tags[0], names[:offset]), (tags[1], names[offset:])):
        if tag:
            _check_names(block)
    return Presentation._trusted(names, p.relators + tuple(r.shift(offset) for r in q.relators))


def direct_product(p: Presentation, q: Presentation, tags: tuple[str, str] = ("", "")) -> Presentation:
    out = free_product(p, q, tags)
    m = len(p.generators)
    n = m + len(q.generators)
    # [x_i, y_j] for distinct letters is reduced as it stands
    comms = tuple(_trusted((-i, -j, i, j)) for i in range(1, m + 1) for j in range(m + 1, n + 1))
    return Presentation._trusted(out.generators, out.relators + comms)


def hnn_extension(p: Presentation, stable: str, pairs: Sequence[tuple[Word, Word]]) -> Presentation:
    """Adjoin a stable letter with relators ``stable^-1 u stable v^-1``."""
    if stable in p.generators:
        raise ValueError(f"stable letter {_quote(stable)} collides with a generator")
    ngens = len(p.generators)
    s = ngens + 1
    rels = list(p.relators)
    for u, v in pairs:
        _check_word(u, ngens, "associated word")
        _check_word(v, ngens, "associated word")
        # u and v are reduced words without the stable letter, so only an
        # empty u lets anything cancel: then the relator is v^-1
        rels.append(_trusted((-s,) + u.letters + (s,) + (~v).letters) if u else ~v)
    _check_names((stable,))
    return Presentation._trusted(p.generators + (stable,), tuple(rels))


def quotient(p: Presentation, extra: Iterable[Word]) -> Presentation:
    return Presentation._trusted(p.generators, p.relators + _relators(extra, len(p.generators)))


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
    rels = (_trusted((n + 1,)), _trusted((n + 2,) * 3), _trusted((n + 2, n + 1, n + 2)))
    return Presentation._trusted(p.generators + (z1, z2), p.relators + rels)


class IdentitySequence(namedtuple("IdentitySequence", "entries")):
    """A product of conjugated relators: entries are (conjugator, index, sign)."""

    __slots__ = ()

    def product(self, p: Presentation) -> Word:
        out = EMPTY
        for g, k, s in self.entries:
            if type(k) is not int:
                raise ValueError(f"relator index {_quote(k)} is not an int")
            if type(s) is not int or s not in (1, -1):
                raise ValueError(f"bad sign {_quote(s)}: signs are the ints 1 and -1")
            if not 0 <= k < len(p.relators):
                raise ValueError(f"relator index {k} out of range")
            if not isinstance(g, Word):
                raise TypeError(f"conjugator {_quote(g)} is not a Word")
            r = p.relators[k] if s == 1 else ~p.relators[k]
            out = out * ((~g) * r * g)
        return out


class TietzeBudget(namedtuple(
    "TietzeBudget", "max_products max_conjugator_len max_relator_len max_defining_len",
    defaults=(2, 1, 12, 2),
)):
    """Bounds on the Tietze moves tried; each is a count, 0 or more."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            _check_count(value, name)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too


class TietzeMove(namedtuple("TietzeMove", "kind index relator_index name word certificate",
                            defaults=(None,) * 5)):
    """One move of ``tietze_neighbors``; ``index`` shadows ``tuple.index``."""

    __slots__ = ()


def words_up_to(ngens: int, maxlen: int) -> Iterator[Word]:
    """All freely reduced words of length <= maxlen, in length-lex order.

    Letter order: 1, -1, 2, -2, ...
    """
    alphabet = [k for g in range(1, ngens + 1) for k in (g, -g)]
    level: list[tuple[int, ...]] = [()]
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
        if not nxt:  # no letters: every longer level is empty too
            return
        level = nxt


def _certificate_blocks(p: Presentation, budget: TietzeBudget):
    """Conjugated-relator building blocks in deterministic order, as pairs
    ``(letters of g^-1 r^s g, certificate entry (g, j, s))``."""
    conjugators = [(~g, g) for g in words_up_to(len(p.generators), budget.max_conjugator_len)]
    blocks = []
    for j, r in enumerate(p.relators):
        for s in (1, -1):
            body = r if s == 1 else ~r
            for gi, g in conjugators:
                blocks.append(((gi * body * g).letters, (g, j, s)))
    return blocks


def _consequence_search(blocks, max_products: int, max_relator_len: int, goal: tuple,
                        p: Presentation, classes: tuple):
    """Bounded BFS over products of conjugated-relator blocks.

    The reference kernel; _tietze_speedup.search is its compiled port, with
    the same arguments and results.  ``blocks`` are pairs ``(letters,
    certificate entry)``, which may repeat or be empty: of equal blocks the
    earliest is kept, and empty ones are skipped.  ``goal`` is a reduced
    letter tuple, or () when there is none.

    The search runs on reduced letter tuples, one level per product, each
    level's words expanded in the order they were found.  A word is kept
    only the first time it is formed, so its certificate is the first path
    in BFS order, each step by the earliest block with its letters.  Words
    are kept up to ``max(max_relator_len, len(goal))`` letters plus the
    longest block, as a longer one cannot shrink back; the words of level
    ``max_products`` are not expanded, and without a goal they are kept
    only up to ``max_relator_len`` letters.

    With a goal, returns the certificate entries of the first path to it,
    or None.  Its last level is one lookup per parent: free reduction is
    unique, so ``w * body == goal`` exactly when ``body`` is the reduced
    ``w^-1 goal``, in which the common prefix of ``w`` and ``goal`` cancels.
    Without a goal, searches in full and returns an iterator over ``p``'s
    add-relator neighbors as ``tietze_neighbors`` yields them, one per
    reachable nonempty word of at most ``max_relator_len`` letters, by
    length and then by letters, each made from ``classes``, ``(Word,
    IdentitySequence, TietzeMove, Presentation)``, when it is read.
    """
    first = {}  # each distinct nonempty body, with its earliest block's entry
    for body, entry in blocks:
        if body:
            first.setdefault(body, entry)
    # (body, the tail letter that cancels its head, entry)
    items = [(body, -body[0], entry) for body, entry in first.items()]
    longest = max((len(body) for body, _, _ in items), default=0)
    cap = max(max_relator_len, len(goal)) + longest
    last = max_products  # depth of the last level; its words are not expanded
    found = {(): ()}
    level = [()]
    depth = 0
    while level and depth != last:
        depth += 1  # of the children
        if depth == last:
            if goal:
                for w in level:  # the goal is never in found
                    c = 0
                    while c < len(w) and c < len(goal) and w[c] == goal[c]:
                        c += 1
                    entry = first.get(tuple(map(neg, reversed(w[c:]))) + goal[c:])
                    if entry is not None:
                        return found[w] + (entry,)
                return None
            cap = max_relator_len  # a longer last-level word is never used
        start = len(found)
        for w in level:
            path = found[w]
            room = cap - len(w)
            tail = w[-1] if w else 0
            for body, head, entry in items:
                if head == tail:
                    # w * body cancels at the seam (both are reduced)
                    i, j, n = len(w) - 1, 1, len(body)
                    while i and j < n and w[i - 1] == -body[j]:
                        i -= 1
                        j += 1
                    if i + n - j > cap:
                        continue
                    nw = w[:i] + body[j:]
                elif len(body) > room:
                    continue
                else:
                    nw = w + body
                if nw in found:
                    continue
                npath = path + (entry,)
                found[nw] = npath
                if nw == goal:
                    return npath
        if depth != last:
            level = list(islice(found, start, None))  # this level's new words, in order
    if goal:
        return None
    del found[()]
    keys = sorted(found)
    keys.sort(key=len)  # stable: by length, then by letters
    del keys[bisect_right(keys, max_relator_len, key=len):]
    # no helper and no named tuple's __new__: each call costs more than its object
    word, sequence, tietze_move, presentation = classes
    new, tnew, gens, rels = object.__new__, tuple.__new__, p.generators, p.relators

    def additions():  # nested: a function with a yield could not return entries
        for letters in keys:
            w = new(word)
            w.letters = letters
            q = new(presentation)
            q.generators = gens
            q.relators = rels + (w,)
            cert = tnew(sequence, (found[letters],))
            yield q, tnew(tietze_move, ("add-relator", None, None, None, w, cert))

    return additions()


_CLASSES = (Word, IdentitySequence, TietzeMove, Presentation)  # what neighbors are built from
try:
    from ._tietze_speedup import search as _kernel

    BACKEND = "compiled"
except ImportError:
    _kernel = _consequence_search
    BACKEND = "pure"


def _eliminate(
    relators: Sequence[Word], ri: int, g: int, max_letters: int | None = None
) -> tuple[Word, tuple[Word, ...]] | None:
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
        out: list[int] = []
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


def tietze_neighbors(
    p: Presentation, budget: TietzeBudget = TietzeBudget()
) -> Iterator[tuple[Presentation, TietzeMove]]:
    """Presentations one certified Tietze move away, in deterministic order.

    Emission order: relator removals by index, generator removals by
    (generator, relator), relator additions by length and then by the tuple
    order of the letter ints (x^-1 before x, unlike ``words_up_to``'s 1, -1,
    2, -2), generator additions in ``words_up_to`` order of the defining word.
    The additions are searched in full before the first is yielded, but
    each is built only when it is read, so a consumer that stops early pays
    for the search and for what it reads.
    """
    ngens = len(p.generators)
    blocks = _certificate_blocks(p, budget)
    caps = budget.max_products, budget.max_relator_len

    for i in range(len(p.relators)):
        goal = p.relators[i].letters
        entries = ()  # an empty relator is the empty product
        if goal:
            entries = _kernel([b for b in blocks if b[1][1] != i], *caps, goal, p, _CLASSES)
        if entries is None:
            continue
        cert = IdentitySequence(tuple((g, j if j < i else j - 1, s) for g, j, s in entries))
        move = TietzeMove("remove-relator", i, None, None, p.relators[i], cert)
        yield Presentation._trusted(p.generators, p.relators[:i] + p.relators[i + 1 :]), move

    for g in range(ngens):
        names = p.generators[:g] + p.generators[g + 1 :]
        for ri in range(len(p.relators)):
            step = _eliminate(p.relators, ri, g + 1, budget.max_relator_len)
            if step is None:
                continue
            rep, rest = step
            move = TietzeMove("remove-generator", g, ri, p.generators[g], rep)
            yield Presentation._trusted(names, rest), move

    yield from _kernel(blocks, *caps, (), p, _CLASSES)

    name = fresh_name("y", p.generators)
    gens = p.generators + (name,)
    for w in islice(words_up_to(ngens, budget.max_defining_len), 1, None):  # not the empty word
        rel = _trusted((ngens + 1,) + (~w).letters)
        move = TietzeMove("add-generator", None, None, name, w)
        yield Presentation._trusted(gens, p.relators + (rel,)), move


def is_freely_related(p: Presentation) -> CheckOutcome:
    """Whether the relators freely generate a subgroup of rank exactly their count."""
    r = rank(len(p.generators), p.relators)
    evidence = {"rank": r, "relators": len(p.relators)}
    if r == len(p.relators):
        return CheckOutcome.yes(evidence)
    return CheckOutcome.no(evidence)
