"""Stallings foldings for finitely generated subgroups of free groups.

A subgroup is represented by the folded graph of a wedge of word loops.
Vertices are integers with 0 the base; edge slots are the direction indices
of ``words._direction`` (2g for generator g, 2g+1 for its inverse).
Folding merges vertices into the smaller index, so the result is
deterministic in the input order.

``contains``, ``rank`` and ``is_basis`` keep the folded graph of the last
subgroup they were asked about, one entry keyed by the alphabet size and a
snapshot of the words, and refold only when that key changes.  ``fold``
always returns a fresh graph of the caller's own.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import words as _words
from .words import Word, _check_count, _check_word


class SubgroupGraph:
    def __init__(self, alphabet_size: int):
        _check_count(alphabet_size, "alphabet size")
        self.alphabet_size = alphabet_size
        self.base = 0
        self.parent: list[int] = [0]
        self.out: list[dict[int, int]] = [{}]

    def _find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def _insert(self, u: int, d: int, v: int) -> None:
        """Add edge u --d--> v (and its reverse), folding as needed."""
        stack = [(u, d, v), (v, d ^ 1, u)]
        while stack:
            a, dd, b = stack.pop()
            a = self._find(a)
            b = self._find(b)
            w = self.out[a].get(dd)
            if w is None:
                self.out[a][dd] = b
                continue
            w = self._find(w)
            if w == b:
                continue
            lo, hi = (b, w) if b < w else (w, b)
            self.parent[hi] = lo
            dead = self.out[hi]
            self.out[hi] = {}
            for d2, t2 in dead.items():
                stack.append((lo, d2, t2))

    def add_loop(self, w: Word) -> None:
        _check_word(w, self.alphabet_size, "subgroup word")
        v = self.base
        for k in w.letters[:-1]:
            nxt = len(self.parent)
            self.parent.append(nxt)
            self.out.append({})
            self._insert(v, _words._direction(k), nxt)
            v = nxt
        if w.letters:
            self._insert(v, _words._direction(w.letters[-1]), self.base)

    def contains(self, w: Word) -> bool:
        """Membership: the word must trace a closed path at the base."""
        _check_word(w, self.alphabet_size, "probe")
        v = self._find(self.base)
        for k in w.letters:
            t = self.out[v].get(_words._direction(k))
            if t is None:
                return False
            v = self._find(t)
        return v == self._find(self.base)

    def rank(self) -> int:
        """Free rank of the subgroup: E - V + 1 of the connected folded graph.

        Only live vertices hold slots, each edge fills two of them (a loop
        its two directions at one vertex), and hanging trees add as many
        vertices as edges, so they need no pruning.
        """
        edges = sum(map(len, self.out)) // 2
        vertices = sum(1 for v, p in enumerate(self.parent) if v == p)
        return edges - vertices + 1


def fold(alphabet_size: int, words: Iterable[Word]) -> SubgroupGraph:
    graph = SubgroupGraph(alphabet_size)
    for w in words:
        graph.add_loop(w)
    return graph


# The (key, graph) pair of the last subgroup folded for the functions below.
# It is replaced in one assignment, so a thread always reads a key with its
# own graph, and readers only compress union-find paths, which changes no
# answer.  The graph never leaves this module.
_last = (None, None)


def _folded(alphabet_size: int, words: Iterable[Word]) -> SubgroupGraph:
    """The folded graph of ``words``, shared with the next call on the same
    subgroup: read it, never change it."""
    global _last
    ws = tuple(words)
    for w in ws:
        if not isinstance(w, Word):
            raise TypeError("subgroup word must be a Word")
    if type(alphabet_size) is not int:
        return fold(alphabet_size, ws)  # refuses the size
    key = (alphabet_size, ws)
    last_key, graph = _last
    if key != last_key:
        graph = fold(alphabet_size, ws)
        _last = key, graph
    return graph


def contains(alphabet_size: int, words: Sequence[Word], w: Word) -> bool:
    return _folded(alphabet_size, words).contains(w)


def rank(alphabet_size: int, words: Sequence[Word]) -> int:
    return _folded(alphabet_size, words).rank()


def is_basis(alphabet_size: int, words: Sequence[Word]) -> bool:
    """True when the words freely generate: full rank and no trivial word.

    A trivial word adds no edge, so it keeps the rank below the count.
    """
    ws = tuple(words)
    return _folded(alphabet_size, ws).rank() == len(ws)
