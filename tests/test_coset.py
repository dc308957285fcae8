"""Coset enumeration tests.

The two finite benchmark groups are checked against permutation and matrix
closure oracles in ``test_acceptance.py``; this module covers the tables,
budgets and the two kernels.
"""

import json
import random
import re
import signal
import time

import pytest

from knotpres import _coset_py
from knotpres.abelian import h1
from knotpres.coset import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    EnumerationResult,
    _directions,
    enumerate_cosets,
    is_trivial_bounded,
    order,
    weight_one_witness_check,
    word_is_trivial_in_finite,
)
from knotpres.gadgets import k3_embed, m_minus_s
from knotpres.presentations import parse, quotient
from knotpres.recognize import kervaire_report
from knotpres.words import Word
from oracles import perm_compose


ICOSAHEDRAL = "< c, d | c^2, d^3, (c d)^5 >"
BINARY_ICOSAHEDRAL = "< c, d | c^2 (d^-1 c)^-5, d^3 (d^-1 c)^-5 >"


def test_common_period_variant_has_order_2280():
    # Equating all three periods to a single element of order dividing both
    # exponents inflates the group; the abelianisation alone has order 19.
    p = parse("< c, d | c^2 (c d)^-5, d^3 (c d)^-5 >")
    res = order(p)
    assert res.finite and res.index == 2280


def test_symmetric_group_table_permutations():
    p = parse("< s, t | s^2, t^2, (s t)^3 >")
    res = order(p)
    assert res.index == 6
    tbl = res.table
    ps = tuple(row[0] for row in tbl.rows)  # column of s
    pt = tuple(row[2] for row in tbl.rows)  # column of t
    assert sorted(ps) == list(range(6))
    assert perm_compose(ps, ps) == tuple(range(6))
    three = perm_compose(ps, pt)
    assert perm_compose(three, perm_compose(three, three)) == tuple(range(6))


def test_subgroup_index():
    p = parse("< s, t | s^2, t^2, (s t)^3 >")
    res = enumerate_cosets(p, [p.word("s")])
    assert res.finite and res.index == 3
    res = enumerate_cosets(p, [p.word("s t")])
    assert res.finite and res.index == 2


def test_cyclic_quotient_subgroup():
    p = parse("< x | x^12 >")
    res = enumerate_cosets(p, [p.word("x^4")])
    assert res.finite and res.index == 4


def test_infinite_group_exhausts_budget():
    p = parse("< a, b | a b a b^-1 a^-1 b^-1 >")
    res = order(p, 500)
    assert res.status == "exhausted"
    assert res.index is None and res.table is None
    assert 0 < res.cosets_used <= 500


def test_table_invariants():
    rng = random.Random(11)
    texts = [
        ICOSAHEDRAL,
        BINARY_ICOSAHEDRAL,
        "< s, t | s^2, t^2, (s t)^3 >",
        "< x | x^12 >",
        "< a, b | a^2, b^3, (a b)^3 >",
    ]
    for text in texts:
        p = parse(text)
        subs = []
        if rng.random() < 0.5:
            g = rng.randrange(len(p.generators)) + 1
            subs.append(Word([g]))
        res = enumerate_cosets(p, subs)
        assert res.finite
        tbl = res.table
        n = len(tbl)
        for c in range(n):
            for g in range(tbl.num_gens):
                t = tbl.rows[c][2 * g]
                assert 0 <= t < n
                assert tbl.rows[t][2 * g + 1] == c
        for r in p.relators:
            for c in range(n):
                assert tbl.trace(c, r) == c
        for w in subs:
            assert tbl.trace(0, w) == 0


def test_trace_follows_words():
    p = parse("< x | x^5 >")
    tbl = order(p).table
    assert len(tbl) == 5
    seen = {tbl.trace(0, Word([1]) ** k) for k in range(5)}
    assert seen == set(range(5))
    c = tbl.trace(0, Word([1]))
    assert tbl.trace(c, Word([-1])) == 0
    assert tbl.trace(0, Word([1] * 5)) == 0


def test_trivial_and_nontrivial_checks():
    assert is_trivial_bounded(parse("< x | x >")).is_yes
    out = is_trivial_bounded(parse("< x | x^3 >"))
    assert out.is_no and out.evidence["order"] == 3
    out = is_trivial_bounded(parse("< x | >"), 50)
    assert out.is_unknown and out.budget_used == 50


def test_word_triviality_in_finite_group():
    p = parse("< x | x^6 >")
    assert word_is_trivial_in_finite(p, Word([1] * 6)).is_yes
    out = word_is_trivial_in_finite(p, Word([1] * 4))
    assert out.is_no and out.evidence["order"] == 6
    out = word_is_trivial_in_finite(parse("< x | >"), Word([1]), 20)
    assert out.is_unknown


def test_weight_one_witness():
    z = parse("< x | >")
    assert weight_one_witness_check(z, Word([1])).is_yes
    assert weight_one_witness_check(z, Word([1, 1]), 50).is_no
    trefoil = parse("< a, b | a b a b^-1 a^-1 b^-1 >")
    assert weight_one_witness_check(trefoil, Word([1])).is_yes
    out = weight_one_witness_check(trefoil, Word([1, 1, -2, -2]), 200)
    assert not out.is_yes


def test_trace_refuses_what_it_cannot_trace():
    table = order(parse("< a | a^3 >")).table
    a = Word([1])
    assert sorted(table.trace(c, a) for c in range(3)) == [0, 1, 2]
    assert table.trace(2, a ** 3) == 2
    # Python would wrap -1 to the last row, and a bool is an int
    for coset in (-1, 3, True, 1.0, "0", None):
        message = "coset must be an int from 0 to 2, got %r" % (coset,)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            table.trace(coset, a)
    # a letter outside the alphabet would index past the end of a row
    with pytest.raises(ValueError, match=r"^word Word\(\[2\]\) uses a generator outside the alphabet$"):
        table.trace(0, Word([2]))
    with pytest.raises(TypeError, match="^word must be a Word$"):
        table.trace(0, [1])


def test_validation_errors():
    p = parse("< x | x^2 >")
    with pytest.raises(ValueError):
        enumerate_cosets(p, [Word([2])])
    with pytest.raises(ValueError):
        enumerate_cosets(p, [], 0)
    with pytest.raises(ValueError):
        word_is_trivial_in_finite(p, Word([3]))
    with pytest.raises(TypeError):
        weight_one_witness_check(p, "x")
    calls = (
        lambda b: enumerate_cosets(p, [], b),
        lambda b: order(p, b),
        lambda b: is_trivial_bounded(p, b),
        lambda b: weight_one_witness_check(p, Word([1]), b),
        lambda b: kervaire_report(p, [Word([1])], max_cosets=b),
    )
    for call in calls:
        for bad in (True, False, 2.5, "8", None, 0, -1):
            message = "coset budget must be an int, 1 or more, got %r" % (bad,)
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                call(bad)
        call(1)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: enumerate_cosets(p, ["x"]),
        lambda p: enumerate_cosets(p, [Word([1]), (1,)]),
        lambda p: word_is_trivial_in_finite(p, "x"),
        lambda p: word_is_trivial_in_finite(p, [1]),
    ],
    ids=["subgroup_str", "subgroup_tuple", "word_str", "word_list"],
)
def test_words_that_are_not_words_are_refused(call):
    with pytest.raises(TypeError, match=r"^(subgroup word|word) must be a Word$"):
        call(parse("< x | x^2 >"))


def test_subgroup_words_may_come_from_an_iterator():
    p = parse("< x | x^2 >")
    assert enumerate_cosets(p, iter([Word([1])])).index == 1
    assert enumerate_cosets(p, (w for w in [Word([1])])) == enumerate_cosets(p, [Word([1])])


def test_no_generators():
    p = parse("< | >")
    res = order(p)
    assert res.finite and res.index == 1
    assert res.table.rows == ((),)


def test_budget_counts_live_cosets_not_definitions():
    # The first presentation collapses to the trivial group; a collapse may
    # define and discard many cosets while the live count stays small.
    p = parse("< c, d | c^2 (d^-1 c)^-5, d^3 (d^-1 c)^-5, c d^-1 >")
    res = order(p, 300)
    assert res.finite and res.index == 1


def _parity(kernel, p, subgroup, budget):
    """Run both kernels, assert equal closed, count and rows, and return the
    compiled kernel's result."""
    rels = [_directions(r) for r in p.relators]
    subs = [_directions(w) for w in subgroup]
    a = _coset_py.run(len(p.generators), rels, subs, budget)
    b = kernel.run(len(p.generators), rels, subs, budget)
    assert a[0] == b[0] and a[1] == b[1]
    if a[0]:
        assert [list(r) for r in a[2]] == [list(r) for r in b[2]]
    return b


def test_backends_produce_identical_tables(compiled_kernel):
    texts = [
        (ICOSAHEDRAL, []),
        (BINARY_ICOSAHEDRAL, []),
        ("< s, t | s^2, t^2, (s t)^3 >", ["s"]),
        ("< a, b | a b a b^-1 a^-1 b^-1 >", ["a b"]),
        ("< x | x^12 >", ["x^4"]),
        ("< x | 1, x^2 >", []),  # an empty relator
    ]
    for text, sub in texts:
        p = parse(text)
        _parity(compiled_kernel, p, [p.word(s) for s in sub], 3000)


def test_backends_agree_on_random_presentations(compiled_kernel):
    rng = random.Random(23)
    for _ in range(120):
        ngens = rng.randint(1, 3)
        rels = []
        for _ in range(rng.randint(1, 3)):
            w = tuple(
                2 * rng.randrange(ngens) + rng.randint(0, 1)
                for _ in range(rng.randint(1, 6))
            )
            rels.append(w)
        subs = []
        if rng.random() < 0.5:
            subs.append(
                tuple(
                    2 * rng.randrange(ngens) + rng.randint(0, 1)
                    for _ in range(rng.randint(1, 3))
                )
            )
        a = _coset_py.run(ngens, rels, subs, 1500)
        b = compiled_kernel.run(ngens, rels, subs, 1500)
        assert a[0] == b[0] and a[1] == b[1]
        if a[0]:
            assert [list(r) for r in a[2]] == [list(r) for r in b[2]]


TREFOIL = "< x, y | x y x y^-1 x^-1 y^-1 >"


def _weight_one_quotient(gadget):
    """The gadget's output on the trefoil group with its last generator, the
    stable letter that witnesses weight one, killed."""
    out = gadget(parse(TREFOIL)).output
    return quotient(out, [Word([len(out.generators)])])


def _coxeter(n, last_edge):
    """The Coxeter group of a path of n nodes: every edge is labelled 3
    except the last, labelled last_edge."""
    gens = ["s%d" % i for i in range(1, n + 1)]
    rels = ["%s^2" % g for g in gens]
    for i in range(n):
        for j in range(i + 1, n):
            m = 2 if j > i + 1 else last_edge if j == n - 1 else 3
            rels.append("(%s %s)^%d" % (gens[i], gens[j], m))
    return parse("< %s | %s >" % (", ".join(gens), ", ".join(rels)))


# All but the last are also coset_enum jobs in perfbench, and the last two
# are weight-one collapses of the paper's constructions (the first of them
# is perfbench's STABLE_LETTER_COLLAPSE).  Each makes one to four lookahead
# passes, their live counts crossing 64, 512 and 4096 cosets, and the
# Coxeter groups and the order-10752 group leave more than half of over
# 4096 rows dead, so the compiled kernel compacts its table mid-run.
@pytest.mark.parametrize(
    "make, budget, index",
    [
        (lambda: parse("< a, b | a^8, b^7, (a b)^2, (a^-1 b)^3 >"), 60000, 10752),
        (lambda: parse(BINARY_ICOSAHEDRAL), 1000, 120),
        (lambda: _coxeter(5, 4), 20000, 3840),
        (lambda: _coxeter(6, 3), 20000, 5040),
        (lambda: _weight_one_quotient(m_minus_s), 10000, 1),
        (lambda: _weight_one_quotient(k3_embed), 10000, 1),
    ],
    ids=["order-10752", "binary-icosahedral", "coxeter-B5", "coxeter-A6",
         "stable-letter-collapse", "k3-embed-collapse"],
)
def test_compiled_kernel_matches_pure_on_bench_cases(compiled_kernel, make, budget, index):
    closed, count, rows = _parity(compiled_kernel, make(), [], budget)
    assert closed and count == index == len(rows)
    assert all(type(r) is tuple for r in rows)


def test_compaction_that_reaches_the_end_of_the_table_ends_the_enumeration(compiled_kernel):
    # H1 is Z/2, so the group is not trivial.  Processing one coset merges
    # every coset after it, so the compaction that follows leaves the main
    # loop's position at the end of the table; the compiled kernel used to
    # scan the stale row there as a live coset and report index 1.
    p = parse(
        "< a, b, c | b c^-1 a^-1 b c^-1 a^2 c a b^-1 a^-1 b, a^2 c a^-1 b, "
        "b^-1 c^-1 a c^-1 b a, c b^2 c^-2 b a >"
    )
    homology = h1(p)
    assert (homology.free_rank, homology.torsion) == (0, (2,))
    closed, count, rows = _parity(compiled_kernel, p, [], DEFAULT_MAX_COSETS)
    assert closed and count == 2


def test_compiled_kernel_counts_live_cosets_on_exhaustion(compiled_kernel):
    cases = [
        ("< a, b | a^8, b^7, (a b)^2, (a^-1 b)^3 >", [], 5000),
        ("< a, b | >", [], 700),
        ("< x, y | x y x y^-1 x^-1 y^-1 >", ["x y"], 300),
        (BINARY_ICOSAHEDRAL, [], 60),
        # given up while scanning a subgroup word, the second after lookahead
        ("< a, b | a b a^-1 b^-1 >", ["a^200"], 50),
        ("< a, b | a b a^-1 b^-1 >", ["a^200", "b^300"], 250),
        ("< x | >", ["1"], 10),  # an empty subgroup word
    ]
    for text, sub, budget in cases:
        p = parse(text)
        closed, count, rows = _parity(compiled_kernel, p, [p.word(s) for s in sub], budget)
        assert not closed and rows is None and 0 < count <= budget


INFINITE = {
    "trefoil": TREFOIL,
    "Z^2": "< a, b | a b a^-1 b^-1 >",
    "Z2*Z3": "< a, b | a^2, b^3 >",
    "BS(1,2)": "< a, b | b^-1 a b a^-2 >",
}


# Budgets on both sides of the first lookahead threshold (64 live cosets)
# and far past it.  The counts at 20000 are those of coset_enum's
# known-infinite jobs; no lookahead schedule may move any of them.
@pytest.mark.parametrize(
    "group, budget, count",
    [
        ("trefoil", 63, 63),
        ("trefoil", 64, 64),
        ("trefoil", 65, 65),
        ("trefoil", 20000, 19967),
        ("Z^2", 63, 63),
        ("Z^2", 64, 64),
        ("Z^2", 65, 65),
        ("Z^2", 20000, 19913),
        ("Z2*Z3", 63, 63),
        ("Z2*Z3", 64, 64),
        ("Z2*Z3", 65, 65),
        ("Z2*Z3", 20000, 20000),
        ("BS(1,2)", 20000, 19812),
    ],
)
def test_exhausted_counts_across_the_lookahead_schedule(compiled_kernel, group, budget, count):
    assert _parity(compiled_kernel, parse(INFINITE[group]), [], budget) == (False, count, None)


@pytest.mark.parametrize(
    "relators, subgroup, error",
    [
        ([(0, 4)], [], ValueError),
        ([(0, 1)], [(2**70,)], ValueError),
        ([(0, -1)], [], ValueError),
        ([(0, 1.0)], [], TypeError),
        ([(0, "1")], [], TypeError),
        ([], [(0, None)], TypeError),
        ([0], [], TypeError),
        (None, [], TypeError),
    ],
)
def test_compiled_kernel_rejects_bad_directions(compiled_kernel, relators, subgroup, error):
    with pytest.raises(error):
        compiled_kernel.run(2, relators, subgroup, 100)
    # Rejected input leaves the kernel working.
    assert compiled_kernel.run(1, [(0, 0)], [], 100)[:2] == (True, 2)


class _Alarm(Exception):
    pass


def _raise_alarm(signum, frame):
    raise _Alarm


def test_enumeration_stops_on_a_signal(compiled_kernel):
    # The affine Coxeter group A~3 is infinite: the compiled kernel takes
    # well over a second to fill six million cosets, so only a kernel that
    # checks for signals stops within one.
    p = parse("< a, b, c, d | a^2, b^2, c^2, d^2, (a b)^3, (b c)^3, (c d)^3, (a d)^3 >")
    rels = [_directions(r) for r in p.relators]
    previous = signal.signal(signal.SIGALRM, _raise_alarm)
    try:
        for kernel in (_coset_py, compiled_kernel):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            with pytest.raises(_Alarm):
                kernel.run(4, rels, [], 6_000_000)
            assert time.perf_counter() - start < 1, kernel
            # The interrupted run leaves the kernel working.
            assert kernel.run(1, [(0, 0)], [], 100)[:2] == (True, 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_enumeration_is_deterministic():
    p = parse(BINARY_ICOSAHEDRAL)
    first = order(p)
    second = order(p)
    assert first.table == second.table


def test_table_equality_and_json():
    p = parse("< x | x^3 >")
    tbl = order(p).table
    assert tbl == CosetTable(1, [list(r) for r in tbl.rows])
    assert tbl != tbl.rows and tbl.__eq__(tbl.rows) is NotImplemented
    blob = tbl.to_json_dict(["x"])
    assert blob["cosets"] == 3
    assert blob["columns"] == ["x", "x^-1"]
    assert len(blob["rows"]) == 3


def test_enumeration_result_is_a_named_tuple():
    fin = order(parse("< x | x^3 >"))
    ex = order(parse("< x, y | >"), 5)
    assert (fin.status, fin.index, fin.cosets_used, len(fin.table)) == ("finite", 3, 3, 3)
    assert (ex.status, ex.index, ex.cosets_used, ex.table) == ("exhausted", None, 5, None)
    # equal by value, the table included
    assert fin == order(parse("< x | x^3 >")) != order(parse("< x | x^4 >"))
    assert ex == EnumerationResult(status="exhausted", index=None, cosets_used=5, table=None)
    assert ex._replace(cosets_used=6) == EnumerationResult("exhausted", None, 6, None)
    assert (fin.finite, ex.finite, fin._replace(status="exhausted").finite) == (True, False, False)
    with pytest.raises(AttributeError):
        fin.index = 4
    # the CLI writes these dicts as they are, so their bytes are pinned
    assert json.dumps(fin.to_json_dict()) == '{"status": "finite", "cosets_used": 3, "index": 3}'
    assert json.dumps(ex.to_json_dict()) == '{"status": "exhausted", "cosets_used": 5}'


def test_default_budget_value():
    assert DEFAULT_MAX_COSETS == 100000
