"""Independent helpers the tests check the library against.

None of these is used by the library itself, and the presentation reader
at the end uses nothing from it.
"""

import re
from collections import deque

from knotpres.presentations import (
    IdentitySequence,
    Presentation,
    TietzeMove,
    fresh_name,
    words_up_to,
)
from knotpres.words import EMPTY, Word


def matrix_multiply(a, b):
    if not a or not b:
        return [[] for _ in a]
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            f = ai[k]
            if f:
                bk = b[k]
                for j in range(cols):
                    oi[j] += f * bk[j]
    return out


def determinant(mat):
    """Exact integer determinant by fraction-free elimination."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def exponent_sum(w, gen):
    """Exponent sum of 0-based generator ``gen`` in the word ``w``."""
    return w.letters.count(gen + 1) - w.letters.count(-gen - 1)


def substitute(w, images):
    """Replace generator ``i`` (0-based) of ``w`` by the word ``images[i]``."""
    out = []
    for k in w.letters:
        img = images[abs(k) - 1]
        out.extend(img.letters if k > 0 else (~img).letters)
    return Word(out)


def eliminate(relators, ri, g, max_letters=None):
    """Two-step generator elimination: solve ``relators[ri]`` for the letter
    ``g`` (1-based), substitute the solution for ``g`` in every other
    relator, then renumber the generators above ``g`` down by one."""
    letters = relators[ri].letters
    hits = [pos for pos, k in enumerate(letters) if abs(k) == g]
    if len(hits) != 1:
        return None
    pos = hits[0]
    u, v = Word(letters[:pos]), Word(letters[pos + 1 :])
    rep = (~u) * (~v) if letters[pos] > 0 else v * u
    ngens = max([g] + [r.max_generator() for r in relators])
    images = [Word([k + 1]) for k in range(ngens)]
    images[g - 1] = rep
    collapse = [Word([k + 1 if k < g - 1 else k]) if k != g - 1 else EMPTY
                for k in range(ngens)]
    rest = []
    for rj, other in enumerate(relators):
        if rj == ri:
            continue
        sub = substitute(substitute(other, images), collapse)
        if max_letters is not None and len(sub) > max_letters:
            return None
        rest.append(sub)
    return rep, tuple(rest)


def consequence_search(blocks, budget, target):
    """Bounded BFS over products of conjugated-relator blocks, multiplying
    every dequeued word by every block on every level.

    ``blocks`` are pairs ``(letters of g^-1 r^s g, (g, j, s))``.  With a
    target, returns the first IdentitySequence reaching it (or None);
    without one, {letters: certificate entries} for every reachable nonempty
    word.
    """
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
            stack = list(w)  # w is reduced; push body's letters, cancelling
            for k in body:
                if stack and stack[-1] == -k:
                    stack.pop()
                else:
                    stack.append(k)
            nw = tuple(stack)
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


def tietze_neighbors(p, budget):
    """The Tietze neighbor list of ``p``, built with ``consequence_search``,
    the two-step ``eliminate`` and the public constructors, in the emission
    order ``presentations.tietze_neighbors`` documents."""
    ngens = len(p.generators)
    rels = p.relators
    conjugators = list(words_up_to(ngens, budget.max_conjugator_len))
    blocks = [(((~g) * (r if s == 1 else ~r) * g).letters, (g, j, s))
              for j, r in enumerate(rels) for s in (1, -1) for g in conjugators]
    out = []
    for i, r in enumerate(rels):
        cert = consequence_search([b for b in blocks if b[1][1] != i], budget, r)
        if cert is not None:
            entries = tuple((g, j - (j > i), s) for g, j, s in cert.entries)
            move = TietzeMove(kind="remove-relator", index=i, word=r,
                              certificate=IdentitySequence(entries))
            out.append((Presentation(p.generators, rels[:i] + rels[i + 1:]), move))
    for g in range(ngens):
        for ri in range(len(rels)):
            step = eliminate(rels, ri, g + 1, budget.max_relator_len)
            if step is not None:
                move = TietzeMove(kind="remove-generator", index=g, relator_index=ri,
                                  name=p.generators[g], word=step[0])
                names = p.generators[:g] + p.generators[g + 1:]
                out.append((Presentation(names, step[1]), move))
    reachable = consequence_search(blocks, budget, None)
    for letters in sorted(reachable, key=lambda w: (len(w), w)):
        if len(letters) <= budget.max_relator_len:
            move = TietzeMove(kind="add-relator", word=Word(letters),
                              certificate=IdentitySequence(reachable[letters]))
            out.append((Presentation(p.generators, rels + (Word(letters),)), move))
    name = fresh_name("y", p.generators)
    for w in words_up_to(ngens, budget.max_defining_len):
        if w:
            move = TietzeMove(kind="add-generator", name=name, word=w)
            out.append((Presentation(p.generators + (name,), rels + (Word([ngens + 1]) * ~w,)),
                        move))
    return out


_READER_TOKEN = re.compile(r"\s*(-?[0-9]+|[A-Za-z][A-Za-z0-9_]*|[<>|,^()])")


class _Reader:
    """Recursive descent over a token list for the presentation grammar,
    built from its description alone: words are read unreduced and reduced
    once at the end.  Any malformed input raises ValueError."""

    def __init__(self, text):
        self.toks, pos, text = [], 0, text.rstrip()
        while pos < len(text):
            m = _READER_TOKEN.match(text, pos)
            if m is None:
                raise ValueError("cannot tokenize")
            self.toks.append(m.group(1))
            pos = m.end()
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or expected not in (None, tok):
            raise ValueError("unexpected token")
        self.pos += 1
        return tok

    def word(self, names):
        letters = self.factor(names)
        while self.peek() not in (None, ",", "|", ">", ")"):
            letters += self.factor(names)
        return letters

    def factor(self, names):
        tok = self.take()
        if tok == "1":
            return []
        if tok == "(":
            base = self.word(names)
            self.take(")")
        elif tok in names:
            base = [names.index(tok) + 1]
        else:
            raise ValueError("not a factor")
        exp = 1
        if self.peek() == "^":
            self.take()
            exp = int(self.take())
        if exp < 0:
            base, exp = [-k for k in reversed(base)], -exp
        return base * exp

    def done(self):
        if self.peek() is not None:
            raise ValueError("trailing input")


def _free_reduce(letters):
    out = []
    for k in letters:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def read_presentation(text):
    """``(generator names, relator letter tuples)`` of a presentation text."""
    reader = _Reader(text)
    reader.take("<")
    names = []
    if reader.peek() != "|":
        names.append(reader.take())
        while reader.peek() == ",":
            reader.take()
            names.append(reader.take())
    if any(not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", n) for n in names):
        raise ValueError("bad generator name")
    reader.take("|")
    rels = []
    if reader.peek() != ">":
        rels.append(_free_reduce(reader.word(names)))
        while reader.peek() == ",":
            reader.take()
            rels.append(_free_reduce(reader.word(names)))
    reader.take(">")
    reader.done()
    if len(set(names)) != len(names):
        raise ValueError("duplicate generator names")
    return tuple(names), rels


def read_word(text, names):
    """The letters of one word over ``names``."""
    reader = _Reader(text)
    letters = _free_reduce(reader.word(list(names)))
    reader.done()
    return letters
