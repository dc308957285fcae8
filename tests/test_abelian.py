import math
import random
from itertools import combinations

from knotpres.abelian import (
    AbelianInvariants,
    determinant,
    h1,
    h1_is_infinite_cyclic,
    identity_matrix,
    invariant_factors,
    is_perfect,
    matrix_multiply,
    relation_matrix,
    smith_normal_form,
)
from knotpres.presentations import Presentation, parse
from knotpres.words import Word


def _cofactor_det(m):
    # independent determinant for oracle use
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _cofactor_det(minor)
    return total


def _gcd_of_minors_factors(m):
    """Invariant factors via gcd of k x k minors."""
    rows, cols = len(m), len(m[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = math.gcd(g, _cofactor_det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def _diag(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def test_snf_diag_2_3():
    d, u, v = smith_normal_form([[2, 0], [0, 3]])
    assert _diag(d) == [1, 6]
    assert matrix_multiply(matrix_multiply(u, [[2, 0], [0, 3]]), v) == d


def test_snf_single_row():
    d, u, v = smith_normal_form([[6, 10, 15]])
    assert _diag(d) == [1]
    assert d[0][1] == 0 and d[0][2] == 0


def test_snf_zero_matrix():
    d, u, v = smith_normal_form([[0, 0], [0, 0]])
    assert _diag(d) == [0, 0]
    assert u == identity_matrix(2) and v == identity_matrix(2)


def test_snf_empty_shapes():
    d, u, v = smith_normal_form([])
    assert d == [] and u == [] and v == []


def test_invariant_factors_chain_example():
    assert invariant_factors([[2, 0], [0, 4]]) == (2, 4)
    assert invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert invariant_factors([[4, 2], [2, 4]]) == (2, 6)


def _random_matrix(rng, max_dim=6, bound=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_snf_randomized_transforms_and_chain():
    rng = random.Random(2024)
    for _ in range(400):
        m = _random_matrix(rng)
        d, u, v = smith_normal_form(m)
        assert matrix_multiply(matrix_multiply(u, m), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = _diag(d)
        for i in range(len(diag)):
            for j in range(len(d[i])):
                if j != i:
                    assert d[i][j] == 0
        nz = [e for e in diag if e]
        assert all(e > 0 for e in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        # zero diagonal entries only after all nonzero ones
        seen_zero = False
        for e in diag:
            if e == 0:
                seen_zero = True
            elif seen_zero:
                assert False, "nonzero after zero on diagonal"


def test_snf_matches_gcd_of_minors_oracle():
    rng = random.Random(5)
    for _ in range(150):
        m = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        assert invariant_factors(m) == _gcd_of_minors_factors(m)


def test_h1_free_group():
    assert h1(parse("< a, b | >")) == AbelianInvariants(2, ())


def test_h1_torsion():
    assert h1(parse("< a | a^2 >")) == AbelianInvariants(0, (2,))
    assert str(h1(parse("< a | a^2 >"))) == "Z/2"


def test_h1_trefoil_is_infinite_cyclic():
    trefoil = parse("< y1, y2 | y1 y2 y1 y2^-1 y1^-1 y2^-1 >")
    assert h1(trefoil) == AbelianInvariants(1, ())
    assert h1_is_infinite_cyclic(trefoil)
    assert not is_perfect(trefoil)


def test_h1_empty_presentation_is_perfect():
    assert is_perfect(parse("< | >"))
    assert not is_perfect(parse("< a | >"))


def test_h1_invariant_under_generator_permutation():
    rng = random.Random(77)
    for _ in range(100):
        ngens = rng.randint(1, 4)
        rels = []
        for _ in range(rng.randint(0, 5)):
            rels.append(
                Word([rng.choice([1, -1]) * rng.randint(1, ngens) for _ in range(rng.randint(0, 8))])
            )
        names = tuple(f"g{i}" for i in range(ngens))
        p = Presentation(names, rels)
        perm = list(range(ngens))
        rng.shuffle(perm)
        images = [Word([perm[i] + 1]) for i in range(ngens)]
        q = Presentation(
            tuple(names[perm.index(i)] for i in range(ngens)),
            [r.substitute(images) for r in rels],
        )
        assert h1(p) == h1(q)


def test_relation_matrix_shape():
    p = parse("< a, b | a b a^-1 b^-1, a^3 >")
    assert relation_matrix(p) == [[0, 0], [3, 0]]


def test_relation_matrix_matches_exponent_sums():
    rng = random.Random(5)
    for _ in range(200):
        ngens = rng.randint(0, 6)
        # relators use only the first half of the alphabet, so the rest are
        # unused generators; length 0 gives the empty relator
        used = (ngens + 1) // 2
        rels = [
            Word([
                rng.choice((1, -1)) * rng.randint(1, used)
                for _ in range(rng.randint(0, 10) if used else 0)
            ])
            for _ in range(rng.randint(0, 5))
        ]
        p = Presentation(tuple("g%d" % i for i in range(ngens)), rels)
        expected = [[r.exponent_sum(g) for g in range(ngens)] for r in rels]
        assert relation_matrix(p) == expected
