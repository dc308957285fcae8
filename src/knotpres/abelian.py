"""Integer Smith normal form and first-homology invariants.

Matrices are plain lists of lists of Python ints, so entries never overflow.
``smith_normal_form`` returns the diagonal form together with the unimodular
row and column transforms; ``h1`` reads the abelianization of a presentation
off the relation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

IntMatrix = List[List[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matrix_multiply(a: IntMatrix, b: IntMatrix) -> IntMatrix:
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


def determinant(mat: IntMatrix) -> int:
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


def _check_shape(mat: IntMatrix) -> Tuple[int, int]:
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    for row in mat:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    return rows, cols


def _pivot(m: IntMatrix, t: int, rows: int, cols: int):
    """Smallest nonzero |entry| in the trailing submatrix, (row, col) tie-break."""
    best = None
    for i in range(t, rows):
        mi = m[i]
        for j in range(t, cols):
            e = mi[j]
            if e:
                a = -e if e < 0 else e
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return best
    return best


def _smith(mat: IntMatrix, track: bool):
    rows, cols = _check_shape(mat)
    m = [row[:] for row in mat]
    u = identity_matrix(rows) if track else None
    v = identity_matrix(cols) if track else None
    t = 0
    limit = min(rows, cols)
    while t < limit:
        found = _pivot(m, t, rows, cols)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
            if track:
                u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
            if track:
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
        if m[t][t] < 0:
            m[t] = [-e for e in m[t]]
            if track:
                u[t] = [-e for e in u[t]]
        p = m[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t]:
                q = m[i][t] // p
                if q:
                    mt = m[t]
                    m[i] = [e - q * f for e, f in zip(m[i], mt)]
                    if track:
                        ut = u[t]
                        u[i] = [e - q * f for e, f in zip(u[i], ut)]
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j]:
                q = m[t][j] // p
                if q:
                    for row in m:
                        row[j] -= q * row[t]
                    if track:
                        for row in v:
                            row[j] -= q * row[t]
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot divides its cleared row and column; enforce the chain
        # (a unit pivot divides every entry, so there is nothing to sweep)
        bad = None
        if p != 1:
            for i in range(t + 1, rows):
                mi = m[i]
                for j in range(t + 1, cols):
                    if mi[j] % p:
                        bad = j
                        break
                if bad is not None:
                    break
        if bad is not None:
            for row in m:
                row[t] += row[bad]
            if track:
                for row in v:
                    row[t] += row[bad]
            continue
        t += 1
    return m, u, v


def smith_normal_form(mat: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize ``mat`` as ``u * mat * v = d``.

    ``u`` and ``v`` are unimodular, the diagonal of ``d`` is nonnegative and
    each entry divides the next.
    """
    d, u, v = _smith(mat, track=True)
    return d, u, v


def invariant_factors(mat: IntMatrix) -> Tuple[int, ...]:
    """Nonzero diagonal of the Smith form, without transform bookkeeping."""
    d, _, _ = _smith(mat, track=False)
    out = []
    for t in range(min(len(d), len(d[0]) if d else 0)):
        if d[t][t]:
            out.append(d[t][t])
    return tuple(out)


@dataclass(frozen=True)
class AbelianInvariants:
    """H_1 as a free rank plus torsion coefficients in divisibility order."""

    free_rank: int
    torsion: Tuple[int, ...]

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank == 1:
            parts.insert(0, "Z")
        elif self.free_rank > 1:
            parts.insert(0, f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def relation_matrix(p) -> IntMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    ngens = len(p.generators)
    rows = []
    for r in p.relators:
        row = [0] * ngens
        for k in r.letters:
            if k > 0:
                row[k - 1] += 1
            else:
                row[-k - 1] -= 1
        rows.append(row)
    return rows


def h1(p) -> AbelianInvariants:
    ngens = len(p.generators)
    if not p.relators:
        return AbelianInvariants(ngens, ())
    factors = invariant_factors(relation_matrix(p))
    torsion = tuple(d for d in factors if d > 1)
    return AbelianInvariants(ngens - len(factors), torsion)


def is_perfect(p) -> bool:
    inv = h1(p)
    return inv.free_rank == 0 and not inv.torsion


def h1_is_infinite_cyclic(p) -> bool:
    inv = h1(p)
    return inv.free_rank == 1 and not inv.torsion
