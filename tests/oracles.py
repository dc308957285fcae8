"""Independent helpers the tests check the library against.

None of these is used by the library itself.
"""


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
