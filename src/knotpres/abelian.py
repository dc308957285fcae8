"""Integer Smith normal form and first-homology invariants.

Matrices are plain lists of lists of Python ints, so entries never overflow.
``smith_normal_form`` returns the diagonal form together with the unimodular
row and column transforms; ``h1`` reads the abelianization of a presentation
off the relation matrix.

The elimination has two phases.  The first brings the matrix to row
echelon form by row operations alone: column by column, the row with the
smallest nonzero entry is swapped up and its floor quotients are
subtracted from the rows below until the column is clear under the pivot.
The second, the pivot loop, diagonalizes the echelon form by row and
column steps and enforces the divisibility chain.  Without the first
phase, each step of the pivot loop multiplied its quotients into rows of
U and V that earlier steps had already grown: dense 25x25 matrices with
entries of at most 9 gave transform entries of about 1,200 bits, against
about 870 with it.

Both phases run in a compiled extension when one was built; the
fallback, the pure-Python reference ``_smith``, runs when the extension is
not built.  The two return identical D, U and V, which the test suite
checks directly.  The compiled kernel holds an entry as a C integer up to
2**62 - 1 and as a vector of 64-bit limbs of its own beyond that, so the
steps that grow the transforms U and V never make a Python int.  Only a
floor division or remainder with an operand beyond 2**62, which happens in
the matrix being eliminated and rarely, makes a round trip through Python
ints.  A large result becomes an int from the little-endian bytes of its
limbs.
"""

from __future__ import annotations

from collections import namedtuple


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _int_rows(mat) -> list[list[int]]:
    """``mat`` copied to a list of int lists: the input contract of both kernels.

    Rows may be any sequence; every row must be as long as the first and
    every entry exactly an ``int`` (``bool`` is refused).
    """
    m = []
    for row in mat:
        row = list(row)
        if m and len(row) != len(m[0]):
            raise ValueError("ragged matrix")
        for e in row:
            if type(e) is not int:
                raise ValueError(f"matrix entries must be int, not {type(e).__name__}")
        m.append(row)
    return m


def _pivot(m: list[list[int]], r: int, c: int, rows: int, cols: int):
    """Smallest nonzero |entry| in rows r.. and columns c..cols-1 of ``m``.

    Returns (|entry|, row, col), the first in row-major order on ties, or
    None when that block is zero.
    """
    best = None
    for i in range(r, rows):
        mi = m[i]
        for j in range(c, cols):
            e = mi[j]
            if e:
                a = -e if e < 0 else e
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return best
    return best


def _swap_rows(m: list[list[int]], u, a: int, b: int) -> None:
    """Rows a and b of ``m`` swap, and of ``u`` unless it is None."""
    m[a], m[b] = m[b], m[a]
    if u is not None:
        u[a], u[b] = u[b], u[a]


def _make_positive(m: list[list[int]], u, r: int, c: int) -> None:
    """Row r of ``m`` is negated if its entry in column c is negative, and of
    ``u`` with it unless ``u`` is None."""
    if m[r][c] < 0:
        m[r] = [-e for e in m[r]]
        if u is not None:
            u[r] = [-e for e in u[r]]


def _echelon(m: list[list[int]], u, rows: int, cols: int) -> None:
    """Row echelon form of ``m`` in place by row operations, mirrored in ``u``.

    Column by column: the row at or below the next pivot row with the
    smallest nonzero |entry| in the column is swapped up, and its floor
    quotients are subtracted from the rows below, until the column is zero
    below the pivot; a negative pivot's row is then negated.
    """
    r = 0
    for c in range(cols):
        if r == rows:
            break
        found = _pivot(m, r, c, rows, c + 1)
        if found is None:
            continue
        while found is not None:
            if found[1] != r:
                _swap_rows(m, u, r, found[1])
            mr = m[r]
            p = mr[c]
            for i in range(r + 1, rows):
                if m[i][c]:
                    q = m[i][c] // p
                    m[i] = [e - q * f for e, f in zip(m[i], mr)]
                    if u is not None:
                        ur = u[r]
                        u[i] = [e - q * f for e, f in zip(u[i], ur)]
            found = _pivot(m, r + 1, c, rows, c + 1)
        _make_positive(m, u, r, c)
        r += 1


def _smith(mat: list[list[int]], track: bool):
    """The reference kernel; _abelian_speedup.smith is its compiled port.

    ``_echelon`` brings the matrix to row echelon form first; the pivot
    loop then diagonalizes that form by row and column steps.
    """
    m = _int_rows(mat)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = identity_matrix(rows) if track else None
    v = identity_matrix(cols) if track else None
    _echelon(m, u, rows, cols)
    t = 0
    limit = min(rows, cols)
    while t < limit:
        found = _pivot(m, t, t, rows, cols)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            _swap_rows(m, u, t, pi)
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
            if track:
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
        _make_positive(m, u, t, t)
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


try:
    from ._abelian_speedup import smith as _kernel

    BACKEND = "compiled"
except ImportError:
    _kernel = _smith
    BACKEND = "pure"


def smith_normal_form(
    mat: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize ``mat`` as ``u * mat * v = d``.

    ``u`` and ``v`` are unimodular, the diagonal of ``d`` is nonnegative and
    each entry divides the next.  Rows may be any sequence; a ragged matrix
    or an entry that is not an ``int`` (a ``bool`` included) raises
    ValueError.
    """
    return _kernel(mat, True)


def invariant_factors(mat: list[list[int]]) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, without transform bookkeeping."""
    d, _, _ = _kernel(mat, False)
    out = []
    for t in range(min(len(d), len(d[0]) if d else 0)):
        if d[t][t]:
            out.append(d[t][t])
    return tuple(out)


class AbelianInvariants(namedtuple("AbelianInvariants", "free_rank torsion")):
    """H_1 as a free rank plus torsion coefficients in divisibility order."""

    __slots__ = ()

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank == 1:
            parts.insert(0, "Z")
        elif self.free_rank > 1:
            parts.insert(0, f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def relation_matrix(p) -> list[list[int]]:
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
