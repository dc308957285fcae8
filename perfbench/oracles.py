"""Independent oracles for the benchmark's answer checks.

Nothing here imports knotpres.  Words are tuples of nonzero ints in the
library's letter convention (k > 0 is generator k-1, -k its inverse), so the
worker's answers can be checked against arithmetic that shares no code with
the layers under test.
"""

import math
from itertools import combinations


# ------------------------------------------------------------------- words


def reduce_word(letters):
    out = []
    for k in letters:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def invert_word(w):
    return tuple(-k for k in reversed(w))


def cyclic_core(w):
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def spell(names, w):
    """Render a word in the library's text grammar."""
    if not w:
        return "1"
    return " ".join(names[abs(k) - 1] + ("" if k > 0 else "^-1") for k in w)


def presentation_text(names, relators):
    rels = ", ".join(spell(names, r) for r in relators)
    return "< %s | %s >" % (", ".join(names), rels)


def parse_serialized(text):
    """Read the library's serialized form back as (ngens, relators).  That
    form writes each relator as space-separated name or name^exp tokens."""
    gens_part, rels_part = text.strip()[1:-1].split("|")
    names = [s.strip() for s in gens_part.split(",") if s.strip()]
    index = {name: i + 1 for i, name in enumerate(names)}
    rels = []
    for chunk in rels_part.split(","):
        letters = []
        for tok in chunk.split():
            if tok == "1":
                continue
            name, _, exp = tok.partition("^")
            e = int(exp) if exp else 1
            letters.extend([index[name] if e > 0 else -index[name]] * abs(e))
        if chunk.strip():
            rels.append(reduce_word(letters))
    return len(names), rels


# ----------------------------------------------------- integer linear algebra


def _echelon(rows, ncols):
    """Integer row echelon form by Euclid steps; zero rows are dropped."""
    rows = [list(r) for r in rows if any(r)]
    out = []
    for c in range(ncols):
        active = [r for r in rows if r[c]]
        rest = [r for r in rows if not r[c]]
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[c]))
            p = active[0]
            keep = [p]
            for r in active[1:]:
                q = r[c] // p[c]
                r = [a - q * b for a, b in zip(r, p)]
                if r[c]:
                    keep.append(r)
                elif any(r):
                    rest.append(r)
            active = keep
        out.extend(active)
        rows = rest
        if not rows:
            break
    return out


def _is_diagonal(rows):
    cols = set()
    for r in rows:
        nz = [j for j, e in enumerate(r) if e]
        if len(nz) != 1 or nz[0] in cols:
            return False
        cols.add(nz[0])
    return True


def elementary_divisors(matrix, ncols):
    """Invariant factors of an integer matrix, by alternating row and column
    echelon passes until the matrix is diagonal, then a gcd/lcm sweep into a
    divisibility chain.  Returns (rank, factors)."""
    rows = _echelon(matrix, ncols)
    while not _is_diagonal(rows):
        rows = _echelon([list(c) for c in zip(*rows)], len(rows))
    diag = sorted(abs(e) for r in rows for e in r if e)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return len(diag), tuple(diag)


def abelian_invariants(ngens, relators):
    """H1 of a presentation as (free_rank, torsion)."""
    matrix = []
    for r in relators:
        row = [0] * ngens
        for k in r:
            row[abs(k) - 1] += 1 if k > 0 else -1
        matrix.append(row)
    rank, factors = elementary_divisors(matrix, ngens)
    return ngens - rank, tuple(d for d in factors if d > 1)


def h1_display(inv):
    """H1 in the format of the library's audit strings."""
    free_rank, torsion = inv
    parts = ["Z/%d" % d for d in torsion]
    if free_rank == 1:
        parts.insert(0, "Z")
    elif free_rank > 1:
        parts.insert(0, "Z^%d" % free_rank)
    return " + ".join(parts) if parts else "0"


def matmul(a, b):
    if not a or not b:
        return [[] for _ in a]
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def determinant(m):
    """Bareiss fraction-free determinant."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gcd_of_minors_factors(m):
    rows, cols = len(m), len(m[0]) if m else 0
    factors, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                g = math.gcd(g, determinant([[m[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def smith_certificate_errors(m, d, u, v, minors=False):
    """Reasons the triple (d, u, v) fails to certify the Smith form of m."""
    errors = []
    if matmul(matmul(u, m), v) != d:
        errors.append("u*m*v != d")
    if abs(determinant(u)) != 1 or abs(determinant(v)) != 1:
        errors.append("transform not unimodular")
    n = min(len(d), len(d[0]) if d else 0)
    if any(d[i][j] for i in range(len(d)) for j in range(len(d[i])) if i != j):
        errors.append("off-diagonal entry")
    diag = [d[i][i] for i in range(n)]
    if any(x < 0 for x in diag):
        errors.append("negative diagonal entry")
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a and b % a):
            errors.append("divisibility chain broken")
            break
    if minors and tuple(x for x in diag if x) != gcd_of_minors_factors(m):
        errors.append("gcd-of-minors mismatch")
    return errors


# -------------------------------------------------------------- finite groups


def coxeter_order(kind, n):
    """Weyl-group order as the product of the fundamental degrees."""
    if kind == "A":
        degrees = range(2, n + 2)
    elif kind == "B":
        degrees = range(2, 2 * n + 1, 2)
    elif kind == "D":
        degrees = list(range(2, 2 * n - 1, 2)) + [n]
    elif kind == "E":
        degrees = {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18)}[n]
    else:
        raise ValueError(kind)
    return math.prod(degrees)


def von_dyck_order(l, m, n):
    """Order of < x, y | x^l, y^m, (x y)^n > for a spherical triple."""
    return round(2 / (1 / l + 1 / m + 1 / n - 1))


def closure_size(gens, compose, identity):
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                e = compose(g, h)
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return len(seen)


def perm_compose(p, q):
    return tuple(q[i] for i in p)


def perm_inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_of_word(w, images):
    acc = tuple(range(len(images[0])))
    for k in w:
        g = images[abs(k) - 1]
        acc = perm_compose(acc, g if k > 0 else perm_inverse(g))
    return acc


def mat_mul_mod(a, b, p):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(len(b[0])))
        for i in range(len(a))
    )


def mat2_inverse_mod(m, p):
    det = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p
    di = pow(det, -1, p)
    return (
        ((m[1][1] * di) % p, (-m[0][1] * di) % p),
        ((-m[1][0] * di) % p, (m[0][0] * di) % p),
    )


def mat_of_word(w, images, p):
    acc = ((1, 0), (0, 1))
    for k in w:
        m = images[abs(k) - 1]
        acc = mat_mul_mod(acc, m if k > 0 else mat2_inverse_mod(m, p), p)
    return acc


def table_errors(rows, ngens, relators, subgroup):
    """Check a complete coset table as a permutation representation: columns
    are mutually inverse permutations, every relator fixes every coset, every
    subgroup generator fixes coset 0, and the action is transitive."""
    n = len(rows)
    for col in range(ngens):
        fwd = [r[2 * col] for r in rows]
        back = [r[2 * col + 1] for r in rows]
        if sorted(fwd) != list(range(n)) or any(back[fwd[i]] != i for i in range(n)):
            return ["column %d is not a permutation pair" % col]

    def trace(c, w):
        for k in w:
            c = rows[c][2 * (k - 1) if k > 0 else 2 * (-k - 1) + 1]
        return c

    for r in relators:
        if any(trace(c, r) != c for c in range(n)):
            return ["relator does not close"]
    for w in subgroup:
        if trace(0, w) != 0:
            return ["subgroup generator moves coset 0"]
    seen, frontier = {0}, [0]
    while frontier:
        c = frontier.pop()
        for t in rows[c]:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return [] if len(seen) == n else ["action is not transitive"]


# ------------------------------------------------------------ free subgroups


def brute_closure(gens, cap):
    """Reduced words of length <= cap reachable as products of generators and
    inverses through intermediate products no longer than cap."""
    step = []
    for g in gens:
        if g:
            step.append(g)
            step.append(invert_word(g))
    seen = {()}
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for g in step:
                prod = reduce_word(w + g)
                if len(prod) <= cap and prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def folded_graph(gens):
    """Stallings graph of the subgroup: a dict from vertex to {letter: vertex}
    over the surviving vertices, base vertex 0, built by merging edges with
    a shared label until none remain."""
    parent = [0]
    edges = [dict()]

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def link(u, k, v):
        pending = [(u, k, v), (v, -k, u)]
        while pending:
            a, kk, b = pending.pop()
            a, b = find(a), find(b)
            t = edges[a].get(kk)
            if t is None:
                edges[a][kk] = b
                continue
            t = find(t)
            if t != b:
                lo, hi = min(t, b), max(t, b)
                parent[hi] = lo
                moved, edges[hi] = edges[hi], {}
                pending.extend((lo, k2, t2) for k2, t2 in moved.items())

    for g in gens:
        v = 0
        for i, k in enumerate(g):
            if i == len(g) - 1:
                nxt = 0
            else:
                nxt = len(parent)
                parent.append(nxt)
                edges.append({})
            link(v, k, nxt)
            v = nxt
    return {x: {k: find(t) for k, t in edges[x].items()}
            for x in range(len(parent)) if find(x) == x}


def subgroup_rank(graph):
    """Edges - vertices + 1; hanging trees add as many edges as vertices."""
    return sum(len(out) for out in graph.values()) // 2 - len(graph) + 1


def subgroup_contains(graph, w):
    v = 0
    for k in w:
        v = graph[v].get(k)
        if v is None:
            return False
    return v == 0


# -------------------------------------------------------------------- braids


def braid_images(n, braid):
    images = [(j + 1,) for j in range(n)]
    for s in braid:
        i = abs(s) - 1
        a, b = images[i], images[i + 1]
        if s > 0:
            images[i], images[i + 1] = reduce_word(a + b + invert_word(a)), a
        else:
            images[i], images[i + 1] = b, reduce_word(invert_word(b) + a + b)
    return images


def braid_relators(n, braid):
    return [reduce_word((-(j + 1),) + img) for j, img in enumerate(braid_images(n, braid))]


def _conjugate_of_generator(w):
    core = cyclic_core(w)
    return core[0] if len(core) == 1 and core[0] > 0 else None


def wirtinger_shape(ngens, relators):
    return all(
        any(_conjugate_of_generator(reduce_word((i,) + r)) for i in range(1, ngens + 1))
        for r in relators
    )


def _companions(rels):
    out = []
    for j, r in enumerate(rels, start=1):
        beta = reduce_word((j,) + r)
        target = _conjugate_of_generator(beta)
        if target is None:
            return None, None
        out.append(beta)
    mu = [_conjugate_of_generator(b) for b in out]
    return out, mu


def _product_is_generator_product(betas):
    flat = []
    for b in betas:
        flat.extend(b)
    return reduce_word(flat) == tuple(range(1, len(betas) + 1))


def artin_shape(ngens, relators):
    if ngens == 0 or len(relators) != ngens:
        return False
    betas, mu = _companions(relators)
    if betas is None:
        return False
    return mu == [j % ngens + 1 for j in range(1, ngens + 1)] and _product_is_generator_product(betas)


def two_knot_shape(ngens, relators, h):
    """The decidable shape conditions of the spun 2-knot form."""
    if len(relators) != h + ngens:
        return False
    for i in range(1, h + 1):
        if tuple(relators[i - 1]) != (-(2 * i - 1), 2 * i):
            return False
    betas, mu = _companions(relators[h:])
    if betas is None or sorted(mu) != list(range(1, ngens + 1)):
        return False
    if not _product_is_generator_product(betas):
        return False
    reach, frontier = {1}, [1]
    pairing = {}
    for i in range(1, h + 1):
        pairing[2 * i - 1], pairing[2 * i] = 2 * i, 2 * i - 1
    while frontier:
        j = frontier.pop()
        for t in (mu[j - 1], pairing.get(j, j)):
            if t not in reach:
                reach.add(t)
                frontier.append(t)
    return len(reach) == ngens
