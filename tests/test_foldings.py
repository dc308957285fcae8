import random

import pytest

from knotpres.coset import enumerate_cosets
from knotpres.foldings import SubgroupGraph, contains, fold, is_basis, rank
from knotpres.presentations import parse
from knotpres.words import EMPTY, Word, _directions
from oracles import reduced_words, subgroup_ball

A, B = 1, 2


def _random_subgroup(rng):
    return [
        Word([rng.choice([1, -1]) * rng.randint(1, 2) for _ in range(rng.randint(0, 4))])
        for _ in range(rng.randint(1, 3))
    ]


def _probes(maxlen):
    return [Word(t) for t in reduced_words(2, maxlen)]


def _members(gens, maxlen):
    """The elements of length <= maxlen of the subgroup ``gens`` generate."""
    return {Word(t) for t in subgroup_ball([w.letters for w in gens], maxlen)}


def test_cyclic_subgroup_examples():
    g = fold(1, [Word([A, A]), Word([A, A, A])])
    assert g.contains(Word([A]))
    assert g.rank() == 1


def test_membership_basics():
    g = fold(2, [Word([A, A]), Word([B])])
    assert g.contains(Word([A, A]))
    assert g.contains(Word([B, -B, A, A]))
    assert g.contains(EMPTY)
    assert not g.contains(Word([A]))
    assert g.contains(Word([B, A, A, -B]) * Word([B]))


def test_index_two_subgroup_rank_three():
    g = fold(2, [Word([A, A]), Word([B, B]), Word([A, B, A, B])])
    assert g.rank() == 3


def test_rank_of_duplicates_and_trivial():
    assert rank(1, [Word([A]), Word([A])]) == 1
    assert rank(2, []) == 0
    assert rank(2, [EMPTY]) == 0


@pytest.mark.parametrize("size", [-1, -3, 2.5, True, False, "2", None])
def test_alphabet_size_must_be_a_count(size):
    with pytest.raises(ValueError, match="alphabet size must be an int, 0 or more"):
        SubgroupGraph(size)
    with pytest.raises(ValueError, match="alphabet size must be an int, 0 or more"):
        fold(size, [Word([A, B])])
    with pytest.raises(ValueError, match="alphabet size must be an int, 0 or more"):
        rank(size, [])


def test_empty_alphabet_folds_the_trivial_subgroup():
    g = fold(0, [EMPTY])
    assert g.rank() == 0 and g.contains(EMPTY)
    assert is_basis(0, [])


def test_is_basis():
    assert is_basis(2, [Word([A]), Word([B])])
    assert is_basis(2, [Word([A, A]), Word([B, B])])
    assert not is_basis(2, [Word([A]), Word([A])])
    assert not is_basis(1, [EMPTY])
    assert is_basis(2, [])
    assert not is_basis(2, [Word([A]), Word([B]), Word([A, B])])


def test_whole_group():
    g = fold(2, [Word([A]), Word([B])])
    for w in _probes(4):
        assert g.contains(w)
    assert g.rank() == 2


def test_conjugated_generator_membership():
    w = Word([B, A, -B])
    g = fold(2, [w])
    assert g.contains(w)
    assert g.contains(w * w)
    assert g.contains(~w)
    assert not g.contains(Word([A]))
    assert g.rank() == 1


def test_contains_function_form():
    assert contains(2, [Word([A, B])], Word([A, B, A, B]))
    assert not contains(2, [Word([A, B])], Word([B, A]))


def test_membership_against_saturation_oracle():
    rng = random.Random(424242)
    probes = _probes(5)
    for _ in range(15):
        gens = _random_subgroup(rng)
        graph = fold(2, gens)
        truth = _members(gens, 5)
        for w in probes:
            assert graph.contains(w) == (w in truth), (gens, w)


def test_rank_invariances_randomized():
    rng = random.Random(11)
    for _ in range(80):
        gens = _random_subgroup(rng)
        r = rank(2, gens)
        assert 0 <= r <= len(gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert rank(2, shuffled) == r
        assert rank(2, [~w for w in gens]) == r
        if len(gens) >= 2:
            twisted = gens[:]
            twisted[0] = gens[0] * gens[1]
            if twisted[0] or not gens[0]:
                assert rank(2, twisted) == r


def test_products_always_members_randomized():
    rng = random.Random(5150)
    for _ in range(50):
        gens = [
            Word([rng.choice([1, -1]) * rng.randint(1, 2) for _ in range(rng.randint(1, 4))])
            for _ in range(rng.randint(1, 3))
        ]
        graph = fold(2, gens)
        for _ in range(20):
            w = EMPTY
            for _ in range(rng.randint(0, 4)):
                g = rng.choice(gens)
                w = w * (g if rng.random() < 0.5 else ~g)
            assert graph.contains(w)


H235 = "< a, b | a^2, b^3, (a b)^5 >"  # the icosahedral group, order 60
A3 = "< a, b, c | a^2, b^2, c^2, (a b)^3, (b c)^3, (a c)^2 >"  # Coxeter A3, order 24


@pytest.mark.parametrize(
    "text, subgroup, index, members_range",
    [
        pytest.param(H235, ["b"], 20, (100, 300), id="235-over-b"),
        pytest.param(H235, ["a"], 30, (60, 200), id="235-over-a"),
        pytest.param(H235, [], 60, (30, 150), id="235-trivial"),
        pytest.param(A3, [], 24, (30, 150), id="A3-trivial"),
    ],
)
def test_foldings_and_coset_tables_share_the_direction_encoding(
    text, subgroup, index, members_range
):
    # Column d of a coset table and edge slot d of a folded graph both carry
    # the letter that words._directions maps to d.  Read the table's Schreier
    # generators through that map: their folded graph is the table itself,
    # so its rank is the Schreier index formula and its membership test is
    # the table's trace back to coset 0.
    p = parse(text)
    ngens = len(p.generators)
    letters = [k for g in range(1, ngens + 1) for k in (g, -g)]
    letter = {_directions(Word([k]))[0]: k for k in letters}
    assert sorted(letter) == list(range(2 * ngens))
    table = enumerate_cosets(p, [p.word(w) for w in subgroup]).table
    assert len(table) == index
    columns = table.to_json_dict(list(p.generators))["columns"]
    assert [columns[d] for d in sorted(letter)] == [
        name + inv for name in p.generators for inv in ("", "^-1")
    ]
    path = {0: EMPTY}
    frontier = [0]
    while frontier:
        c = frontier.pop(0)
        for d, t in enumerate(table.rows[c]):
            if t not in path:
                path[t] = path[c] * Word([letter[d]])
                frontier.append(t)
    schreier = []
    for c, row in enumerate(table.rows):
        for d, t in enumerate(row):
            w = path[c] * Word([letter[d]]) * ~path[t]
            if d % 2 == 0 and w:
                schreier.append(w)
    graph = fold(ngens, schreier)
    assert graph.rank() == index * (ngens - 1) + 1
    rng = random.Random(60)
    members = 0
    for _ in range(400):
        w = Word([rng.choice(letters) for _ in range(rng.randint(0, 12))])
        inside = table.trace(0, w) == 0
        assert graph.contains(w) == inside
        members += inside
    lo, hi = members_range
    assert lo <= members <= hi


def test_out_of_alphabet_probe_is_refused():
    with pytest.raises(ValueError, match="outside the alphabet"):
        contains(2, [Word([A])], Word([5]))
    with pytest.raises(ValueError, match="outside the alphabet"):
        fold(2, [Word([A])]).contains(Word([B, 3]))
    assert not contains(2, [Word([A])], Word([B]))


@pytest.mark.parametrize("bad", [[A], (A,), "x1", None])
def test_words_that_are_not_words_are_refused(bad):
    with pytest.raises(TypeError, match="must be a Word"):
        contains(2, [bad], Word([A]))
    with pytest.raises(TypeError, match="must be a Word"):
        rank(2, [Word([A]), bad])
    with pytest.raises(TypeError, match="must be a Word"):
        is_basis(2, [EMPTY, bad])
    with pytest.raises(TypeError, match="must be a Word"):
        fold(2, [bad])
    with pytest.raises(TypeError, match="must be a Word"):
        contains(2, [Word([A])], bad)
    with pytest.raises(TypeError, match="must be a Word"):
        fold(2, [Word([A])]).contains(bad)


def test_is_basis_checks_every_word_even_after_a_trivial_one():
    with pytest.raises(ValueError, match="outside the alphabet"):
        is_basis(1, [EMPTY, Word([5])])


def _answers(size, gens, probes):
    return rank(size, gens), is_basis(size, gens), [contains(size, gens, w) for w in probes]


def _fresh_answers(size, gens, probes):
    graph = fold(size, gens)
    r = graph.rank()
    return r, r == len(gens), [graph.contains(w) for w in probes]


def test_one_entry_memo_matches_fresh_folds_and_saturation():
    # Interleave two subgroups, then mutate the list last asked about in place:
    # each answer must match a fresh fold and the exact membership oracle.
    rng = random.Random(2718)
    probes = _probes(4)

    def check(gens, truth):
        got = _answers(2, gens, probes)
        assert got == _fresh_answers(2, gens, probes), gens
        assert got[2] == [w in truth for w in probes], gens

    for _ in range(12):
        a, b = _random_subgroup(rng), _random_subgroup(rng)
        truth_a, truth_b = _members(a, 4), _members(b, 4)
        listed = list(a)
        check(listed, truth_a)
        check(b, truth_b)
        check(listed, truth_a)
        listed[:] = b
        check(listed, truth_b)


def test_memo_hit_does_not_answer_for_a_bool_alphabet():
    assert rank(1, [Word([A])]) == 1
    assert contains(1, [Word([A])], Word([A, A]))
    with pytest.raises(ValueError, match="alphabet size must be an int, 0 or more"):
        rank(True, [Word([A])])
    with pytest.raises(ValueError, match="alphabet size must be an int, 0 or more"):
        contains(True, [Word([A])], Word([A, A]))


def test_out_of_alphabet_subgroup_word_raises_every_time():
    for _ in range(2):
        with pytest.raises(ValueError, match="outside the alphabet"):
            contains(1, [Word([A]), Word([B])], Word([A]))
    assert rank(2, [Word([A]), Word([B])]) == 2


def test_changing_a_returned_graph_leaves_later_answers_alone():
    gens = [Word([A, A])]
    assert not contains(2, gens, Word([A]))
    graph = fold(2, gens)
    graph.add_loop(Word([A]))
    assert graph.contains(Word([A]))
    assert not contains(2, gens, Word([A]))
    assert rank(2, gens) == 1


def test_one_fold_per_subgroup(monkeypatch):
    import knotpres.foldings as foldings

    rank(2, [EMPTY])  # some other subgroup was folded last
    calls = []
    real_fold = foldings.fold

    def counting_fold(size, words):
        calls.append(size)
        return real_fold(size, words)

    monkeypatch.setattr(foldings, "fold", counting_fold)
    gens = [Word([A, B]), Word([B, B, A])]
    probes = [Word([A, B] * k) for k in range(20)]
    assert rank(2, gens) == 2
    assert is_basis(2, gens)
    assert [contains(2, gens, w) for w in probes] == [True] * 20
    assert len(calls) == 1


def test_memo_shared_by_threads_gives_fresh_fold_answers():
    import sys
    import threading

    rng = random.Random(31337)
    subgroups = [_random_subgroup(rng) for _ in range(3)]
    probes = _probes(3)
    expected = [_fresh_answers(2, gens, probes) for gens in subgroups]
    wrong = []

    def worker(offset):
        for i in range(150):
            k = (i + offset) % len(subgroups)
            if _answers(2, subgroups[k], probes) != expected[k]:
                wrong.append(k)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
