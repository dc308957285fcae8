import gc
import random
import sys

import pytest

from knotpres.abelian import (
    AbelianInvariants,
    h1,
    h1_is_infinite_cyclic,
    identity_matrix,
    invariant_factors,
    is_perfect,
    relation_matrix,
    smith_normal_form,
)
from knotpres.presentations import Presentation, parse
from knotpres.words import Word
from oracles import (
    determinant,
    exponent_sum,
    gcd_of_minors_factors,
    matrix_multiply,
    substitute,
)


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
        assert invariant_factors(m) == gcd_of_minors_factors(m)


def test_h1_free_group():
    assert h1(parse("< a, b | >")) == AbelianInvariants(2, ())


def test_h1_torsion():
    assert h1(parse("< a | a^2 >")) == AbelianInvariants(0, (2,))
    assert str(h1(parse("< a | a^2 >"))) == "Z/2"


def test_abelian_invariants_are_frozen_values():
    inv = AbelianInvariants(free_rank=1, torsion=(2, 6))
    assert inv == AbelianInvariants(1, (2, 6)) and hash(inv) == hash(AbelianInvariants(1, (2, 6)))
    assert inv != AbelianInvariants(1, (2,)) and inv != AbelianInvariants(2, (2, 6))
    assert (inv.free_rank, inv.torsion) == (1, (2, 6))
    assert repr(inv) == "AbelianInvariants(free_rank=1, torsion=(2, 6))"
    assert len({inv, AbelianInvariants(1, (2, 6)), AbelianInvariants(0, ())}) == 2
    for name, value in (("free_rank", 0), ("torsion", ()), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(inv, name, value)
    with pytest.raises(TypeError):
        AbelianInvariants(1)  # no defaults
    shown = {(0, ()): "0", (1, ()): "Z", (3, ()): "Z^3", (0, (2,)): "Z/2",
             (1, (2, 6)): "Z + Z/2 + Z/6", (2, (5,)): "Z^2 + Z/5"}
    for (rank, torsion), text in shown.items():
        assert str(AbelianInvariants(rank, torsion)) == text


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
            [substitute(r, images) for r in rels],
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
        expected = [[exponent_sum(r, g) for g in range(ngens)] for r in rels]
        assert relation_matrix(p) == expected


# --- input contract -------------------------------------------------------


def test_snf_copies_any_sequence_of_rows():
    m = [[2, 4], [6, 9]]
    expected = smith_normal_form(m)
    assert smith_normal_form([(2, 4), (6, 9)]) == expected
    assert smith_normal_form(((2, 4), (6, 9))) == expected
    assert smith_normal_form(iter([iter([2, 4]), range(6, 10, 3)])) == expected
    assert invariant_factors([(2, 4), (6, 9)]) == (1, 6)
    rows = [(2, 4), (6, 9)]
    smith_normal_form(rows)
    assert rows == [(2, 4), (6, 9)]
    assert m == [[2, 4], [6, 9]]


@pytest.mark.parametrize(
    "mat",
    [[[1.5, 2], [3, 4]], [[True, 2], [3, 4]], [[1, 2], [3, False]], [[1, None]], [["1"]],
     [[1, 2], [3, 4.0]]],
)
def test_snf_refuses_non_int_entries(mat):
    with pytest.raises(ValueError, match="matrix entries must be int"):
        smith_normal_form(mat)
    with pytest.raises(ValueError, match="matrix entries must be int"):
        invariant_factors(mat)


@pytest.mark.parametrize("mat", [[[1, 2], [3]], [[1], [2, 3]], [[], [1]], [(1, 2), (3, 4, 5)]])
def test_snf_ragged_matrix_is_a_value_error(mat):
    with pytest.raises(ValueError, match="ragged matrix"):
        smith_normal_form(mat)


# --- compiled kernel against the pure reference ----------------------------

# Entries near 2**2100: more bits than the compiled kernel's local buffer
# (2,048) for converting a value back to an int.
_HUGE = [[2**2100 + 1, -(2**2100) - 3, 7],
         [-(2**2101) + 5, 2**2100, 2],
         [3, 2**2100 - 1, -(2**2099)]]


def _kernel_matrices():
    """The parity corpus: the shapes the benchmark decides, every degenerate
    shape, rank deficiency, negative pivots, entries beyond 64 bits and the
    paths of the compiled kernel's limb arithmetic."""
    rng = random.Random(7919)
    out = []
    for n in range(3, 26):
        for density in (1.0, 0.3):
            out.append([[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
                        for _ in range(n)])
    for _ in range(120):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        out.append([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    out += [[], [[]], [[], [], []], [[0, 0, 0]], [[0], [0]], [[0, 0], [0, 0]], [[5]], [[-5]],
            [[-1]], [[0, -3], [-2, 0]], [[-4, -6], [-6, -9]], [[-7, 0, 0], [0, -7, 0]]]
    for _ in range(40):
        # rank deficient: a product through a smaller inner dimension
        rows, inner, cols = rng.randint(2, 7), rng.randint(1, 3), rng.randint(2, 7)
        a = [[rng.randint(-5, 5) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(inner)]
        out.append(matrix_multiply(a, b))
    for _ in range(40):
        # every entry negative, so the first pivot of every step starts negative
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        out.append([[-rng.randint(1, 30) for _ in range(cols)] for _ in range(rows)])
    small = 2**62
    edges = [small - 1, small, small + 1, -small + 1, -small, -small - 1, 2**63, -(2**63),
             2**64 + 3, -(2**64) - 5, 3**50, 1, -1, 2, 0]
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        out.append([[rng.choice(edges) for _ in range(cols)] for _ in range(rows)])
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice((2**63, 2**70, 2**130))
        out.append([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])
    # The compiled kernel's limb tier.  A small pivot under large entries
    # gives quotients beyond 2**62, of one 64-bit limb, of two and of three.
    # The row echelon phase multiplies them into rows of U that are still
    # small; the pivot loop after it multiplies them into transform entries
    # already beyond 2**62.
    for bits in (33, 40, 61, 63, 64, 65, 100, 127, 128, 129):
        for _ in range(8):
            rows, cols = rng.randint(2, 6), rng.randint(2, 6)
            m = [[rng.choice((1, -1)) * rng.randint(2**bits // 2, 2**bits) for _ in range(cols)]
                 for _ in range(rows)]
            m[rng.randrange(rows)][rng.randrange(cols)] = rng.choice((1, -1, 2, 3, -5))
            out.append(m)
    out += [[[1, 0], [2**100, 1]], [[1, 0, 0], [2**40 + 1, 1, 0], [-(2**70), 2**35, 1]],
            [[2, 2**80 + 1], [2**90 - 1, -3]]]
    # entries of the matrix itself that cross 2**62 during elimination
    for _ in range(24):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        out.append([[rng.choice((1, -1)) * rng.randint(2**60, 2**62 - 1) if rng.random() < 0.7
                     else rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    # a value just above 2**62 made during elimination beside loaded ones: both
    # must be large, or a larger pivot is chosen and its quotients are all 0
    out.append([[-(2**62) - 3, -(2**62) - 6], [2**62 + 1, 2**62 + 1], [2**62 + 5, 2**62 + 3]])
    # entries of 2**200 and more with mixed signs, where floor division of a
    # negative entry differs from truncation
    for _ in range(24):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        out.append([[rng.choice((1, -1)) * rng.randint(2**200, 2**260) if rng.random() < 0.6
                     else rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)])
    out += [[[-(2**200) - 1, 2**201 + 3], [7, 2**200]], [[3, 0], [-(2**250), 5]]]
    out.append(_HUGE)
    # values at limb boundaries
    limbs = [2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 1, 2**96, 2**96 - 1,
             2**128 - 1, 2**128, 2**128 + 1, 2**192]
    limbs += [-e for e in limbs] + [1, -1, 2, 3, 0]
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        out.append([[rng.choice(limbs) for _ in range(cols)] for _ in range(rows)])
    return out


def _all_plain_ints(m):
    return all(type(e) is int for row in m for e in row)


def test_compiled_smith_matches_pure_kernel(compiled_smith):
    from knotpres.abelian import _smith

    for m in _kernel_matrices():
        for track in (True, False):
            expected = _smith(m, track)
            got = compiled_smith(m, track)
            assert got == expected, (m, track)
            assert _all_plain_ints(got[0])
            if track:
                assert _all_plain_ints(got[1]) and _all_plain_ints(got[2])


def test_compiled_smith_gives_the_same_invariant_factors(compiled_smith, monkeypatch):
    from knotpres import abelian

    corpus = _kernel_matrices()
    monkeypatch.setattr(abelian, "_kernel", abelian._smith)
    expected = [invariant_factors(m) for m in corpus]
    monkeypatch.setattr(abelian, "_kernel", compiled_smith)
    for m, factors in zip(corpus, expected):
        assert invariant_factors(m) == factors, m


def test_compiled_smith_transforms_certify_big_entries(compiled_smith):
    rng = random.Random(64)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-(2**80), 2**80) for _ in range(cols)] for _ in range(rows)]
        d, u, v = compiled_smith(m, True)
        assert matrix_multiply(matrix_multiply(u, m), v) == d
        assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1


def _assert_corpus_certificates(kernel):
    """Every corpus matrix's D is certified by the kernel's U and V, and no
    transform entry reaches 2**1000 on a small square matrix."""
    small_square = beyond_limb_pair = 0
    for m in _kernel_matrices():
        d, u, v = kernel(m, True)
        assert matrix_multiply(matrix_multiply(u, m), v) == d, m
        assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1, m
        largest = max((abs(e) for t in (u, v) for row in t for e in row), default=0)
        beyond_limb_pair += largest > 2**128
        if len(m) >= 3 and all(len(row) == len(m) and max(map(abs, row)) <= 9 for row in m):
            small_square += 1
            # the dense 25x25 ones reached 2**1192 without the echelon phase
            assert largest < 2**1000, m
    assert small_square == 56
    # the parity test compares transforms that still run on several limbs
    assert beyond_limb_pair > 0


def test_smith_certificates_on_the_kernel_corpus():
    from knotpres.abelian import _smith

    _assert_corpus_certificates(_smith)


def test_compiled_smith_certificates_on_the_kernel_corpus(compiled_smith):
    _assert_corpus_certificates(compiled_smith)


@pytest.mark.parametrize(
    "mat",
    [[[1, 2], [3]], [[1.5, 2], [3, 4]], [[True]], [[1, 2], [3, False]], [[1, "x"]],
     [[1, 2], 3], 7, [[1, 2], [3, 4.0], [5]], [None]],
)
def test_kernels_refuse_bad_input_alike(compiled_smith, mat):
    from knotpres.abelian import _smith

    with pytest.raises(Exception) as pure:
        _smith(mat, True)
    with pytest.raises(Exception) as compiled:
        compiled_smith(mat, True)
    assert type(compiled.value) is type(pure.value)
    assert str(compiled.value) == str(pure.value)


def test_kernels_copy_each_row_before_reading_the_next(compiled_smith):
    from knotpres.abelian import _smith

    class Resizing:
        # reading this row shrinks the row before it and grows the row after
        def __iter__(self):
            mat[0].clear()
            mat[2].append(7)
            return iter([7, 8, 9])

    for kernel in (_smith, compiled_smith):
        mat = [[1, 2, 3], Resizing(), [4, 5, 6]]
        with pytest.raises(ValueError, match="ragged matrix"):
            kernel(mat, True)
        mat = [[1, 2, 3], Resizing(), [4, 5]]
        assert kernel(mat, False)[0] == _smith([[1, 2, 3], [7, 8, 9], [4, 5, 7]], False)[0]


def test_compiled_smith_still_works_after_refusing_input(compiled_smith):
    for _ in range(3):
        with pytest.raises(ValueError):
            compiled_smith([[1, 2], [3, 2**70], [1.0, 2]], True)
    assert compiled_smith([[2, 0], [0, 3]], True)[0] == [[1, 0], [0, 6]]


def test_compiled_smith_returns_every_block(compiled_smith):
    # Limb buffers come from PyMem_*, which sys.getallocatedblocks counts.
    rng = random.Random(25)
    dense = [[rng.randint(-9, 9) for _ in range(25)] for _ in range(25)]
    # large entries take floor division and remainder through Python ints,
    # and the second matrix's sweep has a remainder beyond 2**62
    large = ([[2, 2**100 + 1, 5], [2**90, -(2**100) - 3, 7], [3**70, 11, -(2**64)]],
             [[2**100, 0], [0, 2**150 + 2**80]], _HUGE)
    refused = [[2**200, -(2**300), 2**70 + 1], [2**64, 5, 1.0]]  # refused at 1.0

    def calls(dense_calls, refused_calls):
        for _ in range(dense_calls):
            compiled_smith(dense, True)
            for m in large:
                compiled_smith(m, False)
        for _ in range(refused_calls):
            with pytest.raises(ValueError):
                compiled_smith(refused, True)

    calls(3, 3)  # the first calls may grow the interpreter's own caches
    gc.collect()
    before = sys.getallocatedblocks()
    calls(200, 200)  # a block a call kept would show as 200, four times the threshold
    gc.collect()
    assert abs(sys.getallocatedblocks() - before) < 50


def test_backend_names_the_kernels_in_use():
    import knotpres
    from knotpres import _coset_py, abelian, coset

    assert (abelian._kernel is abelian._smith) == (abelian.BACKEND == "pure")
    assert (coset._kernel is _coset_py) == (coset.BACKEND == "pure")
    both = abelian.BACKEND == coset.BACKEND == "compiled"
    assert knotpres.BACKEND == ("compiled" if both else "pure")
