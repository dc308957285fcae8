import json
import random

import pytest

from knotpres import gadgets
from knotpres.abelian import h1, h1_is_infinite_cyclic, is_perfect
from knotpres.coset import is_trivial_bounded
from knotpres.gadgets import (
    GadgetReport,
    homology_gadget,
    k3_embed,
    k3_minus_k2,
    m_minus_s,
    perfect_embed,
    s_minus_k3,
    weight_gadget,
    whitehead_gadget,
)
from knotpres.presentations import parse, quotient
from knotpres.words import EMPTY, Word
from oracles import random_presentation

TREFOIL = "< x, y | x y x y^-1 x^-1 y^-1 >"


def test_perfect_embed_counts_and_map():
    rep = perfect_embed(parse("< x | >"))
    out = rep.output
    assert len(out.generators) == 5
    assert len(out.relators) == 5
    assert out.generators == ("x", "a", "alpha", "b", "beta")
    assert rep.generator_map == {"x": Word([1])}
    assert rep.provenance == "perfect_embed"


def test_perfect_embed_keeps_input_relators():
    g = parse(TREFOIL)
    rep = perfect_embed(g)
    assert rep.output.generators[:2] == ("x", "y")
    assert rep.output.relators[: len(g.relators)] == g.relators
    # m + 4 generators, n + m + 4 relators
    assert len(rep.output.generators) == 6
    assert len(rep.output.relators) == 7


def test_perfect_embed_addendum_adds_one_row():
    g = parse(TREFOIL)
    plain = perfect_embed(g).output
    extra = perfect_embed(g, addendum=True).output
    assert len(extra.generators) == len(plain.generators)
    assert len(extra.relators) == len(plain.relators) + 1


def test_perfect_embed_output_is_perfect_on_random_inputs():
    rng = random.Random(401)
    for _ in range(30):
        g = random_presentation(rng)
        rep = perfect_embed(g)
        assert is_perfect(rep.output)
        assert rep.audit == [("h1_trivial", "yes")]


def test_perfect_embed_collapses_for_trivial_inputs():
    """A trivial input group must make the whole embedding trivial."""
    for text in ("< x | x >", "< | >"):
        out = perfect_embed(parse(text)).output
        res = is_trivial_bounded(out, 5000)
        assert res.is_yes
        assert res.evidence == {"order": 1}


def test_perfect_embed_renames_on_collision():
    rep = perfect_embed(parse("< a, b | a b >"))
    assert rep.output.generators == ("a", "b", "a_", "alpha", "b_", "beta")


def test_k3_embed_counts():
    g = parse("< x | x^2 >")
    rep = k3_embed(g)
    assert len(rep.output.generators) == 13
    assert len(rep.output.relators) == 49
    # tower bookkeeping: direct square of the embedding plus three letters
    P = perfect_embed(g).output
    k = len(P.generators)
    assert len(rep.output.generators) == 2 * k + 3
    assert len(rep.output.relators) == 2 * len(P.relators) + k * k + 2 * k + 2


def test_k3_embed_homology_and_audit():
    rep = k3_embed(parse("< x | x^2 >"))
    assert str(h1(rep.output)) == "Z"
    assert rep.audit == [
        ("h1_infinite_cyclic", "yes"),
        ("normal_closure_collapses:u", "yes"),
    ]
    assert rep.generator_map == {"x": Word([1])}


def test_k3_embed_h1_on_random_inputs():
    rng = random.Random(402)
    for _ in range(10):
        g = random_presentation(rng)
        rep = k3_embed(g, audit_budget=200)
        assert h1_is_infinite_cyclic(rep.output)


def test_k3_minus_k2_counts_and_h1():
    rep = k3_minus_k2(parse("< x | x^2 >"))
    assert len(rep.output.generators) == 23
    assert len(rep.output.relators) == 100
    assert str(h1(rep.output)) == "Z"


def test_k3_minus_k2_h1_on_random_inputs():
    rng = random.Random(403)
    for _ in range(10):
        g = random_presentation(rng)
        rep = k3_minus_k2(g)
        assert h1_is_infinite_cyclic(rep.output)


def test_s_minus_k3_counts_map_and_audit():
    g = parse("< x | x^2 >")
    rep = s_minus_k3(g)
    out = rep.output
    assert len(out.generators) == 9
    assert len(out.relators) == 41
    assert out.generators[0] == "tau"
    # the input sits one slot to the right of the cyclic factor
    assert rep.generator_map == {"x": Word([2])}
    assert out.spell(rep.generator_map["x"]) == "x"
    assert rep.audit == [
        ("h1_infinite_cyclic", "yes"),
        ("central_square_is_commutator", "yes"),
    ]
    assert str(h1(out)) == "Z"


def test_s_minus_k3_h1_on_random_inputs():
    rng = random.Random(404)
    for _ in range(10):
        g = random_presentation(rng)
        rep = s_minus_k3(g)
        assert h1_is_infinite_cyclic(rep.output)


def test_m_minus_s_counts_and_audits():
    rep = m_minus_s(parse(TREFOIL))
    out = rep.output
    assert len(out.generators) == 7
    assert len(out.relators) == 8
    assert out.generators[-1] == "s"
    assert rep.audit == [
        ("h1_infinite_cyclic", "yes"),
        ("normal_closure_collapses:s", "yes"),
    ]
    assert str(h1(out)) == "Z"


def test_m_minus_s_collapse_is_input_independent():
    """The stable letter normally generates no matter what group goes in;
    construction raises if the bounded certificate ever fails."""
    rng = random.Random(405)
    for _ in range(8):
        g = random_presentation(rng)
        rep = m_minus_s(g)
        assert ("normal_closure_collapses:s", "yes") in rep.audit
        assert h1_is_infinite_cyclic(rep.output)


def test_weight_gadget_counts_and_degeneracies():
    u = parse("< u1, u2 | >")
    rep = weight_gadget(u, EMPTY)
    out = rep.output
    assert len(out.generators) == len(u.generators) + 7
    assert out.generators[0] == "g0"
    assert rep.generator_map == {"u1": Word([2]), "u2": Word([3])}
    # killing the free factor leaves exactly the glued piece, which must
    # be trivial when the designated word already was
    d_w = quotient(out, [Word([1])])
    res = is_trivial_bounded(d_w, 5000)
    assert res.is_yes
    rep_u1 = weight_gadget(u, Word([1]))
    assert rep_u1.audit == [("h1", "Z")]


def test_weight_gadget_errors():
    with pytest.raises(ValueError):
        weight_gadget(parse("< x | >"), EMPTY)
    with pytest.raises(ValueError):
        weight_gadget(parse("< u1, u2, u3 | >"), Word([3]))


def test_homology_gadget_block_sum():
    g = parse("< x, y | x^2 y^2 >")
    u = parse(gadgets.BINARY_ICOSAHEDRAL_TEXT)
    y = parse("< a, b | a, b >")
    rep = homology_gadget(g, u, y, EMPTY)
    out = rep.output
    assert out.generators == ("x", "y", "c", "d", "a", "b")
    assert len(out.relators) == len(u.relators) + len(y.relators) + len(g.relators)
    # a trivial word leaves the first block's relators untouched
    assert out.relators[-1] == g.relators[0]
    assert str(h1(out)) == "Z + Z/2"
    # commutator splicing never changes the abelianization
    spliced = homology_gadget(g, u, y, Word([1]))
    assert str(h1(spliced.output)) == "Z + Z/2"
    assert spliced.output.relators[-1] != g.relators[0]


def test_homology_gadget_uniquifies_names():
    g = parse("< x | x >")
    rep = homology_gadget(g, parse("< x | >"), parse("< x | >"), Word([1]))
    assert rep.output.generators == ("x", "x_", "x__")


def test_homology_gadget_errors():
    y = parse("< a, b | >")
    u = parse("< c | >")
    with pytest.raises(ValueError):
        homology_gadget(parse("< x | x, x >"), u, y, EMPTY)
    with pytest.raises(ValueError):
        homology_gadget(parse("< x | x, x^-1 >"), u, parse("< a | >"), EMPTY)
    with pytest.raises(ValueError):
        homology_gadget(parse("< x | x >"), u, y, Word([2]))
    # two free relators need two generators in the third input
    with pytest.raises(ValueError, match="third input needs at least 2 generators, has 1"):
        homology_gadget(parse("< x, z | x, z >"), u, parse("< a | >"), EMPTY)


def test_whitehead_gadget_counts_and_collapse():
    p = parse("< x | >")
    rep = whitehead_gadget(p, EMPTY)
    assert len(rep.output.generators) == len(p.generators) + 4
    assert len(rep.output.relators) == len(p.relators) + len(p.generators) + 4
    res = is_trivial_bounded(rep.output, 5000)
    assert res.is_yes


def test_whitehead_gadget_h1_vanishes_on_random_inputs():
    rng = random.Random(406)
    for _ in range(20):
        p = random_presentation(rng)
        n = len(p.generators)
        letters = [
            rng.randint(1, n) * (1 if rng.random() < 0.5 else -1)
            for _ in range(rng.randint(0, 6))
        ]
        rep = whitehead_gadget(p, Word(letters))
        assert is_perfect(rep.output)
        assert str(h1(rep.output)) == "0"


def test_whitehead_gadget_rejects_out_of_range_word():
    with pytest.raises(ValueError):
        whitehead_gadget(parse("< x | >"), Word([2]))


def test_constructions_are_deterministic():
    g = parse(TREFOIL)
    first = m_minus_s(g)
    second = m_minus_s(g)
    assert str(first.output) == str(second.output)
    assert first.to_json_dict() == second.to_json_dict()


def test_report_json_shape():
    rep = perfect_embed(parse("< x | >"))
    d = rep.to_json_dict()
    assert sorted(d) == ["audit", "generator_map", "presentation", "provenance"]
    assert d["generator_map"] == {"x": "x"}
    assert d["audit"] == [["h1_trivial", "yes"]]


def test_gadget_report_is_a_named_tuple():
    rep = perfect_embed(parse("< x | x^2 >"))
    assert rep.output.generators == ("x", "a", "alpha", "b", "beta")
    assert rep.provenance == "perfect_embed"
    assert rep.generator_map == {"x": Word([1])}
    assert rep.audit == [("h1_trivial", "yes")]
    # equal by value: a second build, or the same fields given by hand
    assert rep == perfect_embed(parse("< x | x^2 >"))
    assert rep == GadgetReport(rep.output, "perfect_embed", {"x": Word([1])}, [("h1_trivial", "yes")])
    moved = rep._replace(provenance="whitehead_gadget")
    assert moved != rep and moved.output is rep.output
    with pytest.raises(TypeError):
        hash(rep)  # it holds a dict and a list
    with pytest.raises(AttributeError):
        rep.audit = []
    assert json.dumps(rep.to_json_dict()) == (
        '{"provenance": "perfect_embed", "presentation": "< x, a, alpha, b, beta | x^2, '
        "a alpha a^-1 b^-2, alpha a alpha^-1 b beta^-1 b^-1, a^2 x alpha^2 beta^4 b^-1 beta^-4, "
        "x^-1 a^-1 x a beta^2 b^-1 beta^-2, x^-1 alpha^-1 x alpha beta b beta^-1 b^-1 beta^-1 >"
        '", "generator_map": {"x": "x"}, "audit": [["h1_trivial", "yes"]]}'
    )
