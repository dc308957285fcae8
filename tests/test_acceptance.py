"""End-to-end acceptance checks.

Each test here exercises one headline guarantee of the package at its
full advertised budget.  The unit tests elsewhere freeze small expected
values; this module instead re-derives everything it can from
independent oracles (permutation and matrix closures, gcd-of-minors,
an exact closure over a Nielsen-reduced basis for subgroup membership,
braid twists applied to free generators) so that a regression in the
library cannot hide behind the library's own arithmetic.  The whole module is meant to finish in well
under five minutes.
"""

import random
from itertools import combinations

from knotpres import (
    EMPTY,
    AbelianInvariants,
    Presentation,
    Word,
    artin_check,
    enumerate_weight_one,
    h1,
    homology_gadget,
    is_freely_related,
    is_perfect,
    is_trivial_bounded,
    is_wirtinger,
    k3_embed,
    k3_minus_k2,
    m_minus_s,
    order,
    parse,
    perfect_embed,
    quotient,
    s_minus_k3,
    weight_gadget,
    weight_one_witness_check,
    whitehead_gadget,
    word_is_trivial_in_finite,
)
from knotpres.abelian import invariant_factors, smith_normal_form
from knotpres.foldings import fold
from oracles import (
    A5_C,
    A5_D,
    ICO_C,
    ICO_D,
    artin_shape,
    braid_relators,
    closure_size,
    determinant,
    gcd_of_minors_factors,
    mat_mul_mod,
    mat_of_word,
    matmul,
    perm_compose,
    perm_of_word,
    random_presentation,
    reduced_words,
    subgroup_ball,
)

Z = AbelianInvariants(1, ())
TRIVIAL_H1 = AbelianInvariants(0, ())


# ------------------------------------------------------- perfect embedding


def test_perfect_embedding_kills_homology_in_bulk():
    rng = random.Random(101)
    failures = 0
    for _ in range(200):
        g = random_presentation(rng)
        if not is_perfect(perfect_embed(g).output):
            failures += 1
    assert failures == 0


def test_perfect_embedding_collapses_trivial_inputs():
    for text in ("< x | x >", "< | >"):
        rep = perfect_embed(parse(text))
        res = order(rep.output, max_cosets=100_000)
        assert res.finite and res.index == 1


# ------------------------------------------------- knot-like constructions


def test_constructions_have_infinite_cyclic_homology_in_bulk():
    rng = random.Random(202)
    for _ in range(50):
        g = random_presentation(rng)
        for build in (
            lambda q: k3_embed(q, audit_budget=300),
            k3_minus_k2,
            s_minus_k3,
            m_minus_s,
        ):
            assert h1(build(g).output) == Z


def test_stable_letter_is_weight_witness_in_bulk():
    rng = random.Random(303)
    for _ in range(50):
        g = random_presentation(rng)
        out = m_minus_s(g).output
        s = Word([len(out.generators)])
        assert out.generators[-1] == "s"
        assert weight_one_witness_check(out, s, max_cosets=10_000).is_yes


# ----------------------------------------------- finite quotients, oracles

ICOSAHEDRAL = "< c, d | c^2, d^3, (c d)^5 >"
BINARY_ICOSAHEDRAL = "< c, d | c^2 (d^-1 c)^-5, d^3 (d^-1 c)^-5 >"


def test_finite_orders_match_closure_oracles():
    rot = parse(ICOSAHEDRAL)
    ident5 = tuple(range(5))
    for r in rot.relators:
        assert perm_of_word(r, [A5_C, A5_D]) == ident5
    assert closure_size([A5_C, A5_D], perm_compose, ident5) == 60
    res = order(rot)
    assert res.finite and res.index == 60

    binary = parse(BINARY_ICOSAHEDRAL)
    ident = ((1, 0), (0, 1))
    for r in binary.relators:
        assert mat_of_word(r, [ICO_C, ICO_D], 5) == ident
    assert closure_size([ICO_C, ICO_D], lambda a, b: mat_mul_mod(a, b, 5), ident) == 120
    res = order(binary)
    assert res.finite and res.index == 120


def test_central_square_identity_in_binary_group():
    p = parse(BINARY_ICOSAHEDRAL)
    c = Word([1])
    d = Word([2])
    braid = (d * c * ~d * c) ** 2 * d
    comm = ~c * ~braid * c * braid
    claim = c * c * ~comm
    assert word_is_trivial_in_finite(p, claim).is_yes
    assert word_is_trivial_in_finite(p, c * c).is_no
    # The matrix oracle agrees on both words.
    assert mat_of_word(claim, [ICO_C, ICO_D], 5) == ((1, 0), (0, 1))
    assert mat_of_word(c * c, [ICO_C, ICO_D], 5) != ((1, 0), (0, 1))


# ------------------------------------------------------- smith normal form


def test_smith_forms_are_certified_in_bulk():
    rng = random.Random(404)
    checked_minors = 0
    for _ in range(10_000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        assert matmul(matmul(u, m), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0
        if rows == 4 and cols == 4:
            assert invariant_factors(m) == gcd_of_minors_factors(m)
            checked_minors += 1
    assert checked_minors > 100


# ------------------------------------------------------ subgroup foldings


def test_folding_membership_matches_brute_force():
    # Every subgroup generated by no word, by one or two words of length at
    # most two, and by any single word of length at most four; plus a
    # deterministic sample of triples of words of length at most four.
    # Membership of every reduced word of length at most six is decided
    # both ways against the exact oracle.
    probes = reduced_words(2, 6)
    probe_words = [Word(p) for p in probes]
    short = reduced_words(2, 2)[1:]
    medium = reduced_words(2, 4)[1:]
    jobs = [()] + [(g,) for g in short] + list(combinations(short, 2))
    jobs += [(g,) for g in medium]
    rng = random.Random(505)
    jobs += [tuple(sorted(rng.sample(medium, 3))) for _ in range(150)]

    seen = set()
    for gens in jobs:
        canon = frozenset(min(g, tuple(-k for k in reversed(g))) for g in gens)
        if canon in seen:
            continue
        seen.add(canon)
        graph = fold(2, [Word(g) for g in gens])
        members = subgroup_ball(gens, 6)
        for p, w in zip(probes, probe_words):
            assert graph.contains(w) == (p in members), (gens, p)
    assert len(seen) == 259


# ------------------------------------------------------ braid recognition


def _single_edit_mutants(p):
    """All presentations one letter-edit away, in a fixed scan order."""
    letters = (1, -1, 2, -2)
    for ri, r in enumerate(p.relators):
        seq = list(r.letters)
        for pos in range(len(seq) + 1):
            for k in letters:
                yield ri, seq[:pos] + [k] + seq[pos:]
        for pos in range(len(seq)):
            yield ri, seq[:pos] + seq[pos + 1 :]
            for k in letters:
                if k != seq[pos]:
                    yield ri, seq[:pos] + [k] + seq[pos + 1 :]


def test_braid_recognition_and_mutant_rejection():
    trefoil = Presentation(("x1", "x2"), [Word(r) for r in braid_relators(2, [1, 1, 1])])
    assert artin_shape(2, [r.letters for r in trefoil.relators])
    assert artin_check(trefoil).is_yes

    rejected = 0
    seen = set()
    for ri, seq in _single_edit_mutants(trefoil):
        rels = list(trefoil.relators)
        rels[ri] = Word(seq)
        mutant = Presentation(trefoil.generators, rels)
        if mutant.relators == trefoil.relators:
            continue
        if mutant.relators in seen:
            continue
        seen.add(mutant.relators)
        verdict = artin_check(mutant)
        if artin_shape(2, [r.letters for r in mutant.relators]):
            assert verdict.is_yes
        else:
            assert verdict.is_no
            rejected += 1
        if rejected >= 20:
            break
    assert rejected >= 20

    wirtinger = parse("< x, y, z | x^-1 z^-1 y z, y^-1 x^-1 z x, z^-1 y^-1 x y >")
    assert h1(wirtinger) == Z
    assert is_wirtinger(wirtinger).is_yes
    assert is_wirtinger(parse("< x | x^2 >")).is_no


# -------------------------------------------------------- degenerate words


def test_empty_word_collapses_weight_gadget():
    # The collapse spreads outward from the two designated generators, so
    # any extra generator has to be expressible in them.
    for text in (
        "< x, y | x y x y^-1 x^-1 y^-1 >",
        "< x, y | >",
        "< x, y, z | z y^-1 x^-1 >",
    ):
        rep = weight_gadget(parse(text), EMPTY)
        inner = quotient(rep.output, [Word([1])])
        assert is_trivial_bounded(inner, max_cosets=10_000).is_yes


def test_empty_word_homology_gadget_preserves_h1():
    rng = random.Random(606)
    u = parse(BINARY_ICOSAHEDRAL)
    y = Presentation(
        tuple("y%d" % i for i in range(1, 7)),
        [Word([i]) for i in range(1, 7)],
    )
    assert is_perfect(u) and is_perfect(y)
    checked = 0
    while checked < 20:
        g = random_presentation(rng)
        if not is_freely_related(g).is_yes:
            continue
        rep = homology_gadget(g, u, y, EMPTY)
        assert h1(rep.output) == h1(g)
        checked += 1


def test_word_perfecting_gadget_always_kills_h1():
    rng = random.Random(707)
    cases = [(parse("< | >"), EMPTY), (parse("< x | >"), Word([1, 1, 1]))]
    for _ in range(20):
        g = random_presentation(rng)
        n = len(g.generators)
        length = rng.randint(0, 6)
        w = Word(
            [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(length)]
        )
        cases.append((g, w))
    for g, w in cases:
        rep = whitehead_gadget(g, w)
        assert h1(rep.output) == TRIVIAL_H1


# ----------------------------------------------------------- enumeration


def test_enumerated_weight_candidates_survive_spot_check():
    count = 0
    for p, witness in enumerate_weight_one(50):
        res = is_trivial_bounded(quotient(p, [witness]), max_cosets=2_000)
        assert not res.is_no
        count += 1
    assert count == 50
