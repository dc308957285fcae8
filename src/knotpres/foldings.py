"""Stallings foldings for finitely generated subgroups of free groups.

A subgroup is represented by the folded graph of a wedge of word loops.
Vertices are integers with 0 the base; edge slots are the direction indices
of ``words._direction`` (2g for generator g, 2g+1 for its inverse).
Folding merges vertices into the smaller index, so the result is
deterministic in the input order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from . import words as _words
from .words import Word, _quote


class SubgroupGraph:
    def __init__(self, alphabet_size: int):
        self.alphabet_size = alphabet_size
        self.base = 0
        self.parent: List[int] = [0]
        self.out: List[Dict[int, int]] = [{}]

    def _new_vertex(self) -> int:
        v = len(self.parent)
        self.parent.append(v)
        self.out.append({})
        return v

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
        if w.max_generator() > self.alphabet_size:
            raise ValueError(f"word {_quote(w)} uses a generator outside the alphabet")
        v = self.base
        letters = w.letters
        for i, k in enumerate(letters):
            nxt = self.base if i == len(letters) - 1 else self._new_vertex()
            self._insert(self._find(v), _words._direction(k), self._find(nxt))
            v = nxt

    def contains(self, w: Word) -> bool:
        """Membership: the word must trace a closed path at the base."""
        v = self._find(self.base)
        for k in w.letters:
            t = self.out[v].get(_words._direction(k))
            if t is None:
                return False
            v = self._find(t)
        return v == self._find(self.base)

    def _live_slots(self) -> Dict[int, Dict[int, int]]:
        slots: Dict[int, Dict[int, int]] = {}
        for v in range(len(self.parent)):
            if self._find(v) == v:
                slots[v] = {d: self._find(t) for d, t in self.out[v].items()}
        return slots

    def rank(self) -> int:
        """Free rank of the subgroup: cycles of the pruned core graph."""
        slots = self._live_slots()
        degree = {v: len(dd) for v, dd in slots.items()}
        leaves = [v for v, deg in degree.items() if deg <= 1]
        dead = set()
        while leaves:
            v = leaves.pop()
            if v in dead:
                continue
            dead.add(v)
            for d, t in slots[v].items():
                if t in dead or t == v:
                    continue
                del slots[t][d ^ 1]
                degree[t] -= 1
                if degree[t] <= 1:
                    leaves.append(t)
            slots[v] = {}
            degree[v] = 0
        vertices = sum(1 for v in slots if v not in dead)
        edges = sum(len(dd) for v, dd in slots.items() if v not in dead) // 2
        if vertices == 0:
            return 0
        return edges - vertices + 1


def fold(alphabet_size: int, words: Iterable[Word]) -> SubgroupGraph:
    graph = SubgroupGraph(alphabet_size)
    for w in words:
        graph.add_loop(w)
    return graph


def contains(alphabet_size: int, words: Sequence[Word], w: Word) -> bool:
    return fold(alphabet_size, words).contains(w)


def rank(alphabet_size: int, words: Sequence[Word]) -> int:
    return fold(alphabet_size, words).rank()


def is_basis(alphabet_size: int, words: Sequence[Word]) -> bool:
    """True when the words freely generate: full rank and no trivial word."""
    ws = list(words)
    if any(not w for w in ws):
        return False
    return fold(alphabet_size, ws).rank() == len(ws)
