"""Independent helpers the tests check the library against.

None of these is used by the library itself.  Matrix, permutation, free-group
and braid arithmetic comes from the benchmark's ``perfbench/oracles.py``, which
imports nothing from knotpres, loaded once by path as ``perfbench_oracles`` so
that it cannot shadow this module.  The subgroup oracle and the presentation
reader use nothing from knotpres either: they work on raw letter tuples.
"""

import importlib.util
import re
import sys
from collections import deque
from pathlib import Path

from knotpres.presentations import (
    IdentitySequence,
    Presentation,
    TietzeMove,
    fresh_name,
    words_up_to,
)
from knotpres.words import EMPTY, Word

_spec = importlib.util.spec_from_file_location(
    "perfbench_oracles", Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py")
sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sys.modules[_spec.name])

from perfbench_oracles import (  # noqa: E402  (loaded just above)
    artin_shape,
    braid_relators,
    closure_size,
    determinant,
    gcd_of_minors_factors,
    invert_word,
    mat_mul_mod,
    mat_of_word,
    matmul,
    perm_compose,
    perm_of_word,
    reduce_word,
)


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


def random_presentation(rng, max_gens=4, max_rels=6, max_len=12):
    n = rng.randint(1, max_gens)
    names = ["g%d" % i for i in range(n)]
    rels = []
    for _ in range(rng.randint(0, max_rels)):
        letters = []
        for _ in range(rng.randint(1, max_len)):
            k = rng.randint(1, n)
            letters.append(k if rng.random() < 0.5 else -k)
        rels.append(Word(letters))
    return Presentation(names, rels)


# ------------------------------------------------- finite quotients
#
# (1 2)(3 4) and (1 3 5) on five points, zero-based, generate the order-60
# rotation group; the two matrices over the five-element field lift them to
# the order-120 double cover.

A5_C = (1, 0, 3, 2, 4)
A5_D = (2, 1, 4, 3, 0)
ICO_C = ((0, 1), (4, 0))
ICO_D = ((0, 4), (1, 1))


# ------------------------------------------------- free groups, raw letters


def reduced_words(ngens, maxlen):
    """Every freely reduced letter tuple over ``ngens`` generators of length
    at most ``maxlen``: shortest first, each length in the order that
    extends the previous one by the letters 1, -1, 2, -2, ..."""
    alphabet = [k for g in range(1, ngens + 1) for k in (g, -g)]
    out = [()]
    level = [()]
    for _ in range(maxlen):
        level = [w + (k,) for w in level for k in alphabet if not w or w[-1] != -k]
        out.extend(level)
    return out


def _canonical(words):
    """The nonempty reduced words of ``words``, one of each ``{w, w^-1}``."""
    canon = (min(w, invert_word(w)) for w in map(reduce_word, words))
    return list(dict.fromkeys(w for w in canon if w))


def _nielsen_repair(basis):
    """One Nielsen transformation of ``basis`` toward N2 and N3, as
    ``(index, new word)``, or None when both hold."""
    signed = [(w, i) for i, u in enumerate(basis) for w in (u, invert_word(u))]
    for x, i in signed:
        for y, j in signed:
            xy = reduce_word(x + y)
            if i != j and xy and len(xy) < max(len(x), len(y)):
                return (i if len(xy) < len(x) else j), xy
    for x, i in signed:
        for y, j in signed:
            for z, k in signed:
                if (j not in (i, k) and len(reduce_word(x + y + z))
                        <= len(x) - len(y) + len(z)):
                    # With N2 holding, x cancels exactly the first half
                    # y1 of y = y1 y2 and z its second half y2.
                    half = len(y) // 2
                    if y[:half] < invert_word(y[half:]):
                        return k, reduce_word(y + z)
                    return i, reduce_word(x + y)
    return None


def nielsen_reduce(gens):
    """A Nielsen-reduced basis of the subgroup that the letter tuples
    ``gens`` generate (Lyndon and Schupp, Combinatorial Group Theory, ch. I
    section 2).

    Dropping empty words gives N1, and replacing a word by a shorter
    product with another basis word gives N2.  When x y z cancels exactly
    half of y = y1 y2 from each side, z becomes y z if y1 < y2^-1
    (lexicographically) and x becomes x y otherwise.  Either repair keeps
    every length, and it strictly lowers the pair (min, max) of the major
    initial halves of the replaced word and its inverse: y z starts y1
    where z starts y2^-1, and (x y)^-1 starts y2^-1 where x^-1 starts y1,
    while the other half is unchanged.  So each step lowers the total
    length or keeps it while one such pair falls, and the loop ends.
    """
    basis = _canonical(gens)
    while (step := _nielsen_repair(basis)) is not None:
        i, word = step
        basis[i] = word
        basis = _canonical(basis)
    return basis


def check_nielsen_reduced(basis):
    """Raise ValueError unless N1-N3 hold over ``basis`` and its inverses,
    checked by brute force over every pair and triple:

    N1. no word is empty;
    N2. |x y| >= max(|x|, |y|) whenever x y != 1;
    N3. |x y z| > |x| - |y| + |z| whenever x y != 1 and y z != 1.
    """
    signed = [w for u in basis for w in (u, invert_word(u))]
    if () in signed:
        raise ValueError("N1 fails: the empty word")
    for x in signed:
        for y in signed:
            xy = reduce_word(x + y)
            if xy and len(xy) < max(len(x), len(y)):
                raise ValueError(f"N2 fails for {x}, {y}")
    for x in signed:
        for y in signed:
            for z in signed:
                if (x != invert_word(y) and y != invert_word(z)
                        and len(reduce_word(x + y + z)) <= len(x) - len(y) + len(z)):
                    raise ValueError(f"N3 fails for {x}, {y}, {z}")


def subgroup_ball(gens, maxlen):
    """Every element of length at most ``maxlen`` of the subgroup of a free
    group that the letter tuples ``gens`` generate, as a set of letter
    tuples.  Exact in both directions.

    ``gens`` is Nielsen-reduced and checked for N1-N3 first; on a set that
    fails them the cap below proves nothing, so the check raises.  Then one
    breadth-first closure under right multiplication by the basis words and
    their inverses keeps every partial product of length at most
    ``maxlen``.  That cap loses nothing.  Write a member w of length
    <= maxlen as a product v_1 ... v_n of basis words and inverses with no
    v_j v_{j+1} = 1, and let c_j letters cancel between v_j and v_{j+1}
    (c_0 = c_n = 0).  By N3 a nonempty middle of every v_j survives, so w
    is the middles written one after the other, and the partial product
    v_1 ... v_k is the prefix of w that ends with v_k's middle, followed by
    the c_k letters of v_k that v_{k+1} cancels.  By N2,
    |v_j v_{j+1}| >= max(|v_j|, |v_{j+1}|), so |v_j| >= 2 c_j and
    |v_{j+1}| >= 2 c_j.  The part of w after v_k's middle, the middles of
    v_{k+1} ... v_n, is therefore at least c_k long, as its length
    telescopes:

        sum_{j>k} (|v_j| - c_{j-1} - c_j)
            = c_k + sum_{k<=j<n} (|v_{j+1}| - 2 c_j) >= c_k.

    So no partial product is longer than w.
    """
    basis = nielsen_reduce(gens)
    check_nielsen_reduced(basis)
    step = [w for u in basis for w in (u, invert_word(u))]
    seen = {()}
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for g in step:
                prod = reduce_word(w + g)
                if len(prod) <= maxlen and prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


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
        rels.append(reduce_word(reader.word(names)))
        while reader.peek() == ",":
            reader.take()
            rels.append(reduce_word(reader.word(names)))
    reader.take(">")
    reader.done()
    if len(set(names)) != len(names):
        raise ValueError("duplicate generator names")
    return tuple(names), rels


def read_word(text, names):
    """The letters of one word over ``names``."""
    reader = _Reader(text)
    letters = reduce_word(reader.word(list(names)))
    reader.done()
    return letters
