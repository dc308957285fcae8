import random
import tracemalloc

import pytest

from knotpres.abelian import h1
from knotpres.presentations import (
    MAX_WORD_LETTERS,
    IdentitySequence,
    Presentation,
    TietzeBudget,
    deficiency,
    direct_product,
    drop_deficiency,
    free_product,
    from_json_dict,
    hnn_extension,
    is_freely_related,
    parse,
    quotient,
    serialize,
    tietze_neighbors,
    to_json_dict,
    words_up_to,
)
from knotpres.words import EMPTY, Word


def test_parse_basic():
    p = parse("< a, b | a b a^-1 b^-1 >")
    assert p.generators == ("a", "b")
    assert p.relators == (Word([1, 2, -1, -2]),)


def test_parse_empty_relator_list():
    p = parse("< a, b | >")
    assert p.generators == ("a", "b") and p.relators == ()


def test_parse_empty_alphabet():
    p = parse("< | >")
    assert p.generators == () and p.relators == ()


def test_parse_one_as_empty_word():
    p = parse("< a | 1 >")
    assert p.relators == (EMPTY,)


def test_parse_parenthesized_powers():
    p = parse("< c, d | c^2, d^3, (c d)^5 >")
    assert p.relators[2] == Word([3, 4] * 5).shift(-2) or p.relators[2] == Word([1, 2] * 5)


def test_parse_nested_parens():
    p = parse("< a, b | ((a b)^2 a)^-1 >")
    assert p.relators[0] == ~Word([1, 2, 1, 2, 1])


def test_parse_errors():
    with pytest.raises(ValueError):
        parse("< a | b >")
    with pytest.raises(ValueError):
        parse("< a, a | >")
    with pytest.raises(ValueError):
        parse("< a | a^ >")
    with pytest.raises(ValueError):
        parse("a | a")
    with pytest.raises(ValueError):
        parse("< a | a > junk")


def test_parse_bounds_word_length_before_building():
    # Each case is refused before its word exists: the largest word built on
    # the way is (x y)^1000 or x^600000, far below the over-limit one.
    texts = [
        "< x | x^1000000000 >",
        "< x | x^-1000000000 >",
        "< x, y | ((x y)^1000)^1001 >",
        "< x | x^600000 x^-600000 >",
    ]
    tracemalloc.start()
    try:
        for text in texts:
            with pytest.raises(ValueError, match="exceeds the limit"):
                parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert len(parse("< x | x^%d >" % MAX_WORD_LETTERS).relators[0]) == MAX_WORD_LETTERS


def test_relators_stored_reduced():
    p = parse("< x | x^-1 x >")
    assert p.relators == (EMPTY,)


def test_serialize_round_trip():
    texts = [
        "< a, b | a b a^-1 b^-1 >",
        "< a, b | >",
        "< | >",
        "< x | x^2, 1 >",
        "< y1, y2 | y1 y2 y1 y2^-1 y1^-1 y2^-1 >",
    ]
    for text in texts:
        p = parse(text)
        assert parse(serialize(p)) == p


def test_serialize_collapses_runs():
    p = parse("< a | a a a >")
    assert serialize(p) == "< a | a^3 >"


def test_word_helper_and_spell():
    p = parse("< a, b | >")
    w = p.word("a b^-2")
    assert w == Word([1, -2, -2])
    assert p.spell(w) == "a b^-2"
    assert p.spell(EMPTY) == "1"


def test_json_round_trip():
    p = parse("< a, b | a^2 b^-3, 1 >")
    d = to_json_dict(p)
    assert d == {"generators": ["a", "b"], "relators": [[[0, 2], [1, -3]], []]}
    assert from_json_dict(d) == p


def test_free_product_with_tags():
    q = parse("< s | s^2 >")
    out = free_product(q, q, ("1", "2"))
    assert out.generators == ("s1", "s2")
    assert out.relators == (Word([1, 1]), Word([2, 2]))


def test_free_product_collision_is_an_error():
    q = parse("< s | >")
    with pytest.raises(ValueError):
        free_product(q, q)


def test_direct_product_adds_commutators():
    p = parse("< a | >")
    q = parse("< b | b^3 >")
    out = direct_product(p, q)
    assert out.generators == ("a", "b")
    assert out.relators == (Word([2, 2, 2]), Word([-1, -2, 1, 2]))
    assert len(out.relators) == len(p.relators) + len(q.relators) + 1


def test_hnn_extension():
    p = parse("< b | >")
    out = hnn_extension(p, "s", [(p.gen("b"), p.gen("b") ** 2)])
    assert out.generators == ("b", "s")
    assert out.relators == (Word([-2, 1, 2, -1, -1]),)
    with pytest.raises(ValueError):
        hnn_extension(p, "b", [])


def test_quotient_and_deficiency():
    p = parse("< a, b | a^2 >")
    q = quotient(p, [p.word("b")])
    assert q.relators == (Word([1, 1]), Word([2]))
    assert deficiency(p) == 1
    assert deficiency(q) == 0


def test_drop_deficiency():
    p = parse("< a, b | a^2 >")
    out = drop_deficiency(p)
    assert deficiency(out) == deficiency(p) - 1
    assert out.generators == ("a", "b", "z1", "z2")
    assert h1(out) == h1(p)
    # name collision handled deterministically
    p2 = parse("< z1 | >")
    out2 = drop_deficiency(p2)
    assert out2.generators == ("z1", "z1_", "z2")


def test_words_up_to_order_and_reduction():
    ws = list(words_up_to(2, 2))
    assert ws[0] == EMPTY
    assert ws[1:5] == [Word([1]), Word([-1]), Word([2]), Word([-2])]
    assert all(len(w) <= 2 for w in ws)
    assert len(set(ws)) == len(ws)
    assert len(ws) == 1 + 4 + 12


def test_identity_sequence_product():
    p = parse("< a | a^2 >")
    seq = IdentitySequence(((p.gen("a"), 0, 1), (EMPTY, 0, -1)))
    assert seq.product(p) == EMPTY
    seq2 = IdentitySequence(((EMPTY, 0, 1),))
    assert seq2.product(p) == Word([1, 1])


def test_tietze_remove_duplicate_relator():
    p = parse("< x | x, x >")
    results = list(tietze_neighbors(p))
    removals = [(q, m) for q, m in results if m.kind == "remove-relator"]
    assert removals
    q, move = removals[0]
    assert q == parse("< x | x >")
    assert move.certificate is not None
    remaining = parse("< x | x >")
    assert move.certificate.product(remaining) == move.word


def test_tietze_remove_epsilon_relator():
    p = parse("< x | 1, x >")
    results = [(q, m) for q, m in tietze_neighbors(p) if m.kind == "remove-relator"]
    assert any(q == parse("< x | x >") for q, _ in results)


def test_tietze_add_relator_includes_duplicate():
    p = parse("< x | x >")
    adds = [(q, m) for q, m in tietze_neighbors(p) if m.kind == "add-relator"]
    assert any(q == parse("< x | x, x >") for q, _ in adds)
    for q, m in adds:
        assert m.certificate.product(p) == m.word


def test_tietze_add_generator():
    p = parse("< x | >")
    adds = [(q, m) for q, m in tietze_neighbors(p) if m.kind == "add-generator"]
    assert adds
    q0, m0 = adds[0]
    assert q0.generators == ("x", "y")
    assert q0.relators == (Word([2, -1]),)
    assert m0.word == Word([1])


def test_tietze_remove_generator():
    p = parse("< x, y | y x^-1 >")
    rms = [(q, m) for q, m in tietze_neighbors(p) if m.kind == "remove-generator"]
    assert any(q == parse("< x | >") for q, _ in rms)
    assert any(q == parse("< y | >") for q, _ in rms)


def test_tietze_emissions_preserve_h1():
    rng = random.Random(314)
    budget = TietzeBudget(max_products=2, max_conjugator_len=1, max_relator_len=8, max_defining_len=1)
    for _ in range(100):
        ngens = rng.randint(1, 3)
        rels = [
            Word([rng.choice([1, -1]) * rng.randint(1, ngens) for _ in range(rng.randint(1, 5))])
            for _ in range(rng.randint(0, 3))
        ]
        p = Presentation(tuple(f"g{i}" for i in range(ngens)), rels)
        base = h1(p)
        for q, move in tietze_neighbors(p, budget):
            assert h1(q) == base, f"{move.kind} changed H1 on {p}"


def test_tietze_determinism():
    p = parse("< a, b | a^2, b^2 >")
    runs = [list(tietze_neighbors(p)) for _ in range(2)]
    assert [(q, m.kind) for q, m in runs[0]] == [(q, m.kind) for q, m in runs[1]]


def test_is_freely_related():
    assert is_freely_related(parse("< a, b | a^2, b^2 >")).is_yes
    assert is_freely_related(parse("< a | a, a >")).is_no
    assert is_freely_related(parse("< a | 1 >")).is_no
    assert is_freely_related(parse("< a, b | >")).is_yes
    out = is_freely_related(parse("< y1, y2 | y1 y2 y1 y2^-1 y1^-1 y2^-1 >"))
    assert out.is_yes
