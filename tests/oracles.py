"""Independent helpers the tests check the library against.

None of these is used by the library itself.
"""

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
