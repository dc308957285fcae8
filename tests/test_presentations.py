import gc
import json
import pickle
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from knotpres import presentations
from knotpres.abelian import h1
from knotpres.cli import main
from knotpres.foldings import fold
from knotpres.gadgets import (
    homology_gadget,
    k3_embed,
    k3_minus_k2,
    m_minus_s,
    perfect_embed,
    s_minus_k3,
    weight_gadget,
    whitehead_gadget,
)
from knotpres.presentations import (
    MAX_INPUT_LETTERS,
    MAX_WORD_LETTERS,
    IdentitySequence,
    Presentation,
    TietzeBudget,
    TietzeMove,
    _CLASSES,
    _certificate_blocks,
    _consequence_search,
    _eliminate,
    deficiency,
    direct_product,
    drop_deficiency,
    free_product,
    hnn_extension,
    is_freely_related,
    parse,
    quotient,
    serialize,
    tietze_neighbors,
    words_up_to,
)
from knotpres.words import EMPTY, Word
from oracles import eliminate as eliminate_oracle
from oracles import random_presentation, read_presentation, read_word
from oracles import tietze_neighbors as tietze_neighbors_oracle

ROOT = Path(__file__).resolve().parents[1]
TREFOIL = "< x, y | x y x y^-1 x^-1 y^-1 >"


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


BUDGET_FIELDS = ["max_products", "max_conjugator_len", "max_relator_len", "max_defining_len"]


@pytest.mark.parametrize("field", BUDGET_FIELDS)
def test_tietze_budget_rejects_negative_fields(field):
    with pytest.raises(ValueError, match=f"^{field} must be at least 0, got -1$"):
        TietzeBudget(**{field: -1})
    # Only an int is a count: no depth ever equals max_products=2.5, so that
    # search would never stop, and True would be taken as 1.
    for value in (2.5, True, "2", None):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an int, got {value!r}")):
            TietzeBudget(**{field: value})
    assert getattr(TietzeBudget(**{field: 0}), field) == 0
    # positional construction is checked the same way
    args = [2, 1, 12, 2]
    args[BUDGET_FIELDS.index(field)] = -1
    with pytest.raises(ValueError, match=f"^{field} must be at least 0, got -1$"):
        TietzeBudget(*args)


def test_tietze_budget_replace_checks_its_fields():
    assert TietzeBudget()._replace(max_products=3) == TietzeBudget(3)
    with pytest.raises(ValueError, match="^max_products must be at least 0, got -1$"):
        TietzeBudget()._replace(max_products=-1)
    with pytest.raises(ValueError, match="^max_relator_len must be an int, got 2.5$"):
        TietzeBudget._make([2, 1, 2.5, 2])


def test_tietze_budget_is_a_frozen_value():
    budget = TietzeBudget()
    assert (budget.max_products, budget.max_conjugator_len, budget.max_relator_len,
            budget.max_defining_len) == (2, 1, 12, 2)
    assert repr(budget) == (
        "TietzeBudget(max_products=2, max_conjugator_len=1, max_relator_len=12, max_defining_len=2)")
    assert budget == TietzeBudget(2, 1, 12, 2) == TietzeBudget(max_relator_len=12)
    assert hash(budget) == hash(TietzeBudget(2, 1, 12, 2))
    built = TietzeBudget(3, max_defining_len=0)
    assert repr(built) == (
        "TietzeBudget(max_products=3, max_conjugator_len=1, max_relator_len=12, max_defining_len=0)")
    assert built != budget and built == TietzeBudget(max_products=3, max_defining_len=0)
    assert len({budget, built, TietzeBudget()}) == 2
    for name in BUDGET_FIELDS + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(budget, name, 5)
    assert budget == TietzeBudget()
    with pytest.raises(TypeError):
        TietzeBudget(1, 1, 12, 2, 0)  # four fields only
    with pytest.raises(TypeError):
        TietzeBudget(max_moves=1)


def test_parse_errors_quote_long_input_in_part():
    def message(text):
        with pytest.raises(ValueError) as err:
            parse(text)
        return str(err.value)

    # input up to 60 characters is quoted whole
    assert message("< x | (x, >") == "expected ')', got ',' in '< x | (x, >'"
    assert message("< x | x") == "unexpected end of input in '< x | x'"
    assert message("< x | x $ >") == "cannot tokenize '$ >'"
    deep = "< x | " + "(" * 5000 + "x" + ")" * 4999 + " >"
    msg = message(deep)
    assert len(msg) < 200
    assert msg.startswith("expected ')', got '>' at character 10007 of 10008, near ")
    assert msg.endswith(repr(deep[-60:]))
    msg = message("< x | x $" + "y" * 10_000 + " >")
    assert len(msg) < 200 and "at character 8 of 10011" in msg
    assert len(message("< x | " + "x " * 10_000)) < 200


def test_library_errors_quote_long_values_in_part():
    long_word = Word([1] * 10_000 + [2])  # generator 2 is outside a 1-letter alphabet
    long_name = "a" * 10_000
    cases = [
        (lambda: Presentation(("a",), [long_word]), "relator Word([1, 1, "),
        (lambda: quotient(Presentation(("a",), []), [long_word]), "relator Word([1, 1, "),
        (lambda: Word([1] * 10_000 + [long_name]), "bad letter 'aaa"),
        (lambda: fold(1, [long_word]), "word Word([1, 1, "),
        (lambda: hnn_extension(Presentation((long_name,), []), long_name, []),
         "stable letter 'aaa"),
    ]
    for call, start in cases:
        with pytest.raises(ValueError) as err:
            call()
        msg = str(err.value)
        assert msg.startswith(start) and len(msg) < 200, msg[:300]


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


def test_parse_bounds_all_letters_before_building():
    # Each input would hold 300 million letters; reading stops at the fifth
    # million, before that word is built, with at most four held.
    many = ", ".join(["x^1000000"] * 300)
    texts = ["< x | %s >" % many, "< x | " + "x^1000000 (" * 300 + "x" + ")" * 300 + " >"]
    refused = "^words of 5000000 letters in all exceed the limit of 4000000$"
    p = Presentation(("x",))
    tracemalloc.start()
    try:
        for text in texts:
            with pytest.raises(ValueError, match=refused):
                parse(text)
        with pytest.raises(ValueError, match=refused):
            p.word("x^1000000", MAX_INPUT_LETTERS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # the word limit still wins, and the bound itself is allowed
    with pytest.raises(ValueError, match="^word of 1000001 letters"):
        p.word("x^1000001", MAX_INPUT_LETTERS)
    assert len(p.word("x", MAX_INPUT_LETTERS - 1)) == 1


def test_parse_cancels_a_long_seam_in_linear_time():
    # Each seam cancels 400,000 letters or more; one letter per loop step
    # that took 0.15-0.2 s per text.  Best of three runs, so that one slow
    # moment of a shared machine does not fail it.
    cases = [
        ("< x | x^400000 x^-400000 >", EMPTY),
        ("< x, y | (x y)^200000 (y^-1 x^-1)^200000 >", EMPTY),
        ("< x, y | y x^400000 x^-400001 y >", Word([2, -1, 2])),
        ("< x, y | y (x^400000 (x^-400000 y^-1)) y >", Word([2])),
    ]
    for text, want in cases:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            p = parse(text)
            best = min(best, time.perf_counter() - start)
        assert p.relators == (want,), text
        assert best < 0.1, (text, best)


def _word_text(rng, names, depth=0):
    """A random word: names, '1' factors, nested groups, exponents from -3
    to 3 with or without spaces around '^', and factors with no space
    between them wherever the tokens stay apart."""
    text, last = "", None  # what the text ends with: ')', a number or a name
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.1:
            factor, end = "1", "number"
        elif roll < 0.35 and depth < 4:
            factor, end = "(" + _word_text(rng, names, depth + 1) + ")", ")"
        else:
            factor, end = rng.choice(names), "name"
        if factor != "1" and rng.random() < 0.5:
            factor += rng.choice(["^", " ^", "^ ", " ^ "]) + str(rng.randint(-3, 3))
            end = "number"
        glued = (last == ")" or (last == "number" and not factor[0].isdigit())
                 or (last == "name" and factor[0] == "("))
        text += (rng.choice(["", " "]) if glued else rng.choice([" ", "  ", "\t"])) + factor
        last = end
    return text.strip()


def test_parse_matches_the_reference_reader():
    rng = random.Random(20261018)
    pool = ["a", "b", "x1", "y_2", "Z"]
    for _ in range(3000):
        names = rng.sample(pool, rng.randint(0, 3))
        rels = [_word_text(rng, names) for _ in range(rng.randint(0, 3))] if names else []
        text = "< %s | %s >" % (", ".join(names), ", ".join(rels))
        p = parse(text)
        expected = read_presentation(text)
        assert (p.generators, [r.letters for r in p.relators]) == expected, text
        if names:
            word = _word_text(rng, names)
            assert p.word(word).letters == read_word(word, names), word


SOUP = ["<", ">", "|", ",", "^", "(", ")", "x", "y", "1", "2", "-1", "0", "-", "$", " "]


def test_token_soup_raises_only_value_error():
    rng = random.Random(7)
    p = parse("< x, y | >")
    for _ in range(4000):
        text = ""
        for _ in range(rng.randint(0, 16)):
            tok = rng.choice(SOUP)
            # a space after each number keeps exponents small
            text += (" " if text[-1:].isdigit() else rng.choice(["", " "])) + tok
        if rng.random() < 0.5:
            text = "< x, y |" + text + ">"
        for read, reference in ((parse, read_presentation),
                                (p.word, lambda t: read_word(t, p.generators))):
            try:
                reference(text)
                accepted = True
            except ValueError:
                accepted = False
            try:
                read(text)
            except ValueError:
                assert not accepted, text
            else:
                assert accepted, text


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


def test_word_reads_each_alphabet_in_turn():
    # Presentations with the same names in other orders, and one built
    # without parsing, read alternately: each word uses its own alphabet.
    ps = [parse("< a, b | >"), parse("< b, a | >"), Presentation(["b", "c", "a"]), parse("< a, b | >")]
    for _ in range(2):
        assert [p.word("a b^-1").letters for p in ps] == [(1, -2), (2, -1), (3, -1), (1, -2)]
    with pytest.raises(ValueError, match="unknown generator"):
        ps[0].word("c")
    assert ps[2].word("c").letters == (2,)


def test_word_reads_many_words_against_one_name_index():
    # 4,000 one-letter words over 4,000 generators took about 1.3 s when
    # each word built its own name index.
    n = 4000
    p = Presentation(["g%d" % i for i in range(n)])
    start = time.perf_counter()
    words = [p.word("g%d" % i) for i in range(n)]
    assert time.perf_counter() - start < 0.5
    assert [w.letters for w in words] == [(k,) for k in range(1, n + 1)]


def _pairs_spelling(names, w):
    """The rendering through run-length pairs that ``spell`` replaced."""
    if not w:
        return "1"
    return " ".join(names[g] if e == 1 else f"{names[g]}^{e}" for g, e in w.to_pairs())


def test_spell_matches_the_pairs_rendering_and_reads_back():
    rng = random.Random(8128)
    runs = 0
    for _ in range(2000):
        ngens = rng.randint(1, 4)
        names = tuple(rng.choice(["x", "y1", "z_2", "Ab"]) + str(i) for i in range(ngens))
        letters = []
        for _ in range(rng.randint(0, 8)):
            k = rng.choice([1, -1]) * rng.randint(1, ngens)
            letters += [k] * rng.choice([1, 1, 2, 3, 5])
        w = Word(letters)
        runs += any(a == b for a, b in zip(w.letters, w.letters[1:]))
        text = Presentation(names).spell(w)
        assert text == _pairs_spelling(names, w)
        assert read_word(text, names) == w.letters
    assert runs > 500


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
    out = hnn_extension(p, "s", [(p.word("b"), p.word("b") ** 2)])
    assert out.generators == ("b", "s")
    assert out.relators == (Word([-2, 1, 2, -1, -1]),)
    # with an empty u the stable letter cancels, leaving v^-1
    assert hnn_extension(p, "s", [(EMPTY, p.word("b"))]).relators == (Word([-1]),)
    with pytest.raises(ValueError):
        hnn_extension(p, "b", [])
    for pair in ((Word([2]), Word([1])), (Word([1]), Word([-2]))):
        with pytest.raises(ValueError, match="outside the base alphabet"):
            hnn_extension(p, "s", [pair])


def test_presentation_refuses_bad_and_duplicate_names():
    with pytest.raises(ValueError, match="bad generator name '1'"):
        Presentation(["1"])
    with pytest.raises(ValueError, match="duplicate generator names"):
        Presentation(["x", "x"])


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


_P = "< a, b | a^2 >"
_Q = "< c | c^3 >"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda p, q: free_product(p, q, ("-", "")), "bad generator name 'a-'"),
        (lambda p, q: free_product(p, q, ("", "x!")), "bad generator name 'cx!'"),
        (lambda p, q: free_product(p, q, ("-", "+")), "bad generator name 'a-'"),
        (lambda p, q: free_product(p, p, ("-", "-")),
         "generator name collision in product: ['a-', 'a-', 'b-', 'b-']"),
        (lambda p, q: direct_product(p, q, ("", "?")), "bad generator name 'c?'"),
        (lambda p, q: direct_product(p, p), "generator name collision in product: ['a', 'a', 'b', 'b']"),
        # a long name list is quoted in part, after QUOTE_CHARS characters
        (lambda p, q: free_product(*[Presentation(tuple("g%d" % i for i in range(12)))] * 2),
         "generator name collision in product: ['g0', 'g0', 'g1', 'g1', 'g10', 'g10', 'g11', 'g11', 'g2', '..."),
        (lambda p, q: hnn_extension(p, "b", []), "stable letter 'b' collides with a generator"),
        (lambda p, q: hnn_extension(p, "1s", []), "bad generator name '1s'"),
        (lambda p, q: hnn_extension(p, "", []), "bad generator name ''"),
        (lambda p, q: hnn_extension(p, "s", [(Word([3]), Word([1]))]),
         "associated words use generators outside the base alphabet"),
        (lambda p, q: hnn_extension(p, "s", [(Word([1]), Word([-3]))]),
         "associated words use generators outside the base alphabet"),
        # the pairs are checked before the stable letter's name
        (lambda p, q: hnn_extension(p, "1s", [(Word([3]), Word([1]))]),
         "associated words use generators outside the base alphabet"),
        (lambda p, q: quotient(p, [Word([3])]), "relator Word([3]) uses a generator outside the alphabet"),
        (lambda p, q: quotient(p, [[1, -3]]), "relator Word([1, -3]) uses a generator outside the alphabet"),
        (lambda p, q: quotient(p, [[1, 0]]), "bad letter 0: letters are nonzero integers"),
        (lambda p, q: quotient(p, [[True]]), "bad letter True: letters are nonzero integers"),
    ],
)
def test_derived_constructors_refuse_what_they_add(build, message):
    # Each derived constructor checks only what it adds to presentations that
    # are already valid; the refusals and their messages are the ones the
    # validating constructor gave when it rebuilt the whole output.
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build(parse(_P), parse(_Q))


def test_quotient_accepts_plain_int_lists():
    p = parse(_P)
    out = quotient(p, [[2, -2, 1], (2,), Word([-1])])
    assert out.relators == (Word([1, 1]), Word([1]), Word([2]), Word([-1]))
    assert all(type(r) is Word for r in out.relators)


def test_words_up_to_order_and_reduction():
    ws = list(words_up_to(2, 2))
    assert ws[0] == EMPTY
    assert ws[1:5] == [Word([1]), Word([-1]), Word([2]), Word([-2])]
    assert all(len(w) <= 2 for w in ws)
    assert len(set(ws)) == len(ws)
    assert len(ws) == 1 + 4 + 12


def test_words_up_to_stops_at_an_empty_level():
    # Over no letters every level after the first is empty, so however long
    # the words may be, the empty word is the only one, and a presentation
    # over no letters has no neighbors at any conjugator length.
    start = time.perf_counter()
    assert list(words_up_to(0, 10**7)) == [EMPTY]
    assert list(tietze_neighbors(parse("< | >"), TietzeBudget(max_conjugator_len=10**30))) == []
    assert time.perf_counter() - start < 0.5


def test_identity_sequence_product():
    p = parse("< a | a^2 >")
    seq = IdentitySequence(((p.word("a"), 0, 1), (EMPTY, 0, -1)))
    assert seq.product(p) == EMPTY
    seq2 = IdentitySequence(((EMPTY, 0, 1),))
    assert seq2.product(p) == Word([1, 1])
    for g, shown in (("a", "'a'"), ((1,), "(1,)"), (None, "None")):
        with pytest.raises(TypeError, match=re.escape(f"conjugator {shown} is not a Word")):
            IdentitySequence(((EMPTY, 0, 1), (g, 0, -1))).product(p)


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


def test_eliminate_solves_renumbers_and_keeps_empty_results():
    # x1 x2 x3 = 1 gives x2 = x1^-1 x3^-1; after the substitution x3 becomes x2.
    rels = [
        Word([1, 2, 3]),
        Word([2, 3, 3]),
        Word([-2, -1]),
        Word([1, 2, -3, -2]),
        Word([1, 2, 3]),
    ]
    rep, rest = _eliminate(rels, 0, 2)
    assert rep == Word([-1, -3])
    assert rest == (Word([-1, 2]), Word([2]), Word([-2, 1]), EMPTY)
    assert (rep, rest) == eliminate_oracle(rels, 0, 2)
    # relator 3 is six letters long before reduction and two after it
    assert _eliminate(rels, 0, 2, max_letters=2) == (rep, rest)
    assert _eliminate(rels, 0, 2, max_letters=1) is None


def test_eliminate_inverse_occurrence():
    # x1 x2^-1 x3 = 1 gives x2 = x3 x1
    rels = [Word([1, -2, 3]), Word([2, -1]), Word([-2, 3])]
    rep, rest = _eliminate(rels, 0, 2)
    assert rep == Word([3, 1])
    assert rest == (Word([2]), Word([-1]))
    assert (rep, rest) == eliminate_oracle(rels, 0, 2)


def test_eliminate_needs_exactly_one_occurrence():
    rels = [Word([1, 1, 2]), Word([1, -2, 1]), Word([2, 2])]
    assert _eliminate(rels, 0, 1) is None  # twice, same sign
    assert _eliminate(rels, 1, 1) is None  # twice, around x2^-1
    assert _eliminate(rels, 2, 1) is None  # absent
    assert _eliminate([Word([1, 2, -1])], 0, 1) is None  # once each way
    # x1 x1 x2 = 1 gives x2 = x1^-2
    assert _eliminate(rels, 0, 2) == (Word([-1, -1]), (Word([1] * 4), Word([-1] * 4)))


def test_eliminate_matches_two_step_substitution():
    rng = random.Random(2718)
    seen = {"absent": 0, "once": 0, "inverse": 0, "repeated": 0, "over cap": 0, "at cap": 0}
    for _ in range(3000):
        ngens = rng.randint(1, 4)
        rels = [
            Word([rng.choice([1, -1]) * rng.randint(1, ngens) for _ in range(rng.randint(0, 8))])
            for _ in range(rng.randint(1, 4))
        ]
        ri = rng.randrange(len(rels))
        g = rng.randint(1, ngens)
        cap = rng.choice([None, rng.randint(0, 10)])
        got = _eliminate(rels, ri, g, cap)
        assert got == eliminate_oracle(rels, ri, g, cap)
        hits = [k for k in rels[ri].letters if abs(k) == g]
        if not hits:
            seen["absent"] += 1
        elif len(hits) > 1:
            seen["repeated"] += 1
            assert got is None
        else:
            seen["inverse" if hits[0] < 0 else "once"] += 1
            free = _eliminate(rels, ri, g)
            assert free is not None
            longest = max((len(r) for r in free[1]), default=0)
            assert _eliminate(rels, ri, g, longest) == free
            if longest:
                assert _eliminate(rels, ri, g, longest - 1) is None
            if got is None:
                seen["over cap"] += 1
            elif cap == longest:
                seen["at cap"] += 1
    assert all(n >= 20 for n in seen.values()), seen


def test_tietze_generator_removals_match_two_step_substitution():
    rng = random.Random(1618)
    budget = TietzeBudget(max_relator_len=6)
    removals = 0
    for _ in range(60):
        ngens = rng.randint(1, 3)
        rels = [
            Word([rng.choice([1, -1]) * rng.randint(1, ngens) for _ in range(rng.randint(0, 5))])
            for _ in range(rng.randint(1, 3))
        ]
        p = Presentation(tuple("abc"[:ngens]), rels)
        want = []
        for g in range(ngens):
            for ri in range(len(rels)):
                step = eliminate_oracle(p.relators, ri, g + 1, budget.max_relator_len)
                if step is not None:
                    want.append((g, ri, step[0], step[1]))
        got = [
            (m.index, m.relator_index, m.word, q.relators)
            for q, m in tietze_neighbors(p, budget)
            if m.kind == "remove-generator"
        ]
        assert got == want
        removals += len(got)
    assert removals > 50


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


def _assert_validates(out):
    """``out`` is what the validating constructor makes of its own parts."""
    assert type(out.generators) is tuple and type(out.relators) is tuple
    for r in out.relators:
        assert type(r) is Word and type(r.letters) is tuple
        assert r == Word(r.letters)
    assert out == Presentation(out.generators, out.relators)


def test_tietze_neighbors_pass_the_validating_constructor():
    # Neighbors skip validation because they derive from a validated parent;
    # rebuilding each through Presentation(...) must give the same value.
    rng = random.Random(4242)
    budget = TietzeBudget(max_relator_len=8)
    seen = 0
    for _ in range(40):
        ngens = rng.randint(1, 3)
        rels = [
            Word([rng.choice([1, -1]) * rng.randint(1, ngens) for _ in range(rng.randint(0, 5))])
            for _ in range(rng.randint(0, 3))
        ]
        p = Presentation(tuple("abc"[:ngens]), rels)
        for q, _ in tietze_neighbors(p, budget):
            _assert_validates(q)
            seen += 1
    assert seen > 1000


def _draw_word(rng, ngens, maxlen=6):
    return Word([rng.choice([1, -1]) * rng.randint(1, ngens) for _ in range(rng.randint(0, maxlen))])


def test_derived_presentations_pass_the_validating_constructor():
    # The derived constructors and the gadgets build their outputs without
    # re-validating them; on the acceptance tests' draw of presentations,
    # rebuilding each output through Presentation(...) must give the same value.
    rng = random.Random(2718)
    outputs = 0
    for _ in range(12):
        g = random_presentation(rng)
        h = random_presentation(rng)
        m = len(g.generators)
        words = [_draw_word(rng, m) for _ in range(3)]
        derived = [
            free_product(g, h, ("_1", "_2")),
            free_product(g, parse("< s, t | s t^2 >")),
            direct_product(g, h, ("_1", "_2")),
            hnn_extension(g, "s", [(words[0], words[1]), (words[2], EMPTY)]),
            quotient(g, words + [[1, -1, 1]]),
            drop_deficiency(g),
        ]
        free = Presentation(g.generators, [r for r in g.relators[:1] if r])
        reports = [
            perfect_embed(g),
            perfect_embed(g, addendum=True),
            k3_embed(g, audit_budget=300),
            k3_minus_k2(g),
            s_minus_k3(g),
            m_minus_s(g),
            whitehead_gadget(g, words[0]),
            homology_gadget(free, g, g, words[1]),
        ]
        if m >= 2:
            reports.append(weight_gadget(g, _draw_word(rng, 2)))
        for rep in reports:
            for w in rep.generator_map.values():
                assert type(w) is Word and w == Word(w.letters)
        for out in derived + [rep.output for rep in reports]:
            _assert_validates(out)
            outputs += 1
    assert outputs >= 12 * 14


def _oracle_corpus():
    """The budgets and presentations that the plain BFS oracle checks.

    Budgets cover no products, one, two and three (on the planted
    three-products only, to keep the oracle's time down), and conjugator
    lengths 0 and 2 (so both seams of a block cancel).  Relator caps of 3
    and 4 cut words on both branches of the seam test, on the middle level
    and the last.  The last relator is empty, a duplicate, or a planted
    product of two or of three conjugated relators, in turn.  Yields pairs
    (presentation, budget).
    """
    budgets = [TietzeBudget(), TietzeBudget(1, 1, 12, 2), TietzeBudget(3, 1, 8, 2),
               TietzeBudget(2, 0, 12, 1), TietzeBudget(0, 1, 12, 2),
               TietzeBudget(2, 2, 6, 2), TietzeBudget(2, 1, 3, 2), TietzeBudget(3, 1, 4, 2)]
    rng = random.Random(2718)

    def letters(ngens, count):
        return [rng.choice([1, -1]) * rng.randint(1, ngens) for _ in range(count)]

    corpus = [parse("< x | 1, x, x >"), parse("< a, b | a^2, b^2, a^2 >")]
    for i in range(24):
        ngens = rng.randint(1 if i % 4 < 2 else 2, 3)  # one generator: all commute
        count = rng.randint(1, 2 if i % 4 == 3 else 3)
        rels = [Word(letters(ngens, rng.randint(1, 4))) for _ in range(count)]
        extra = EMPTY if i % 4 == 0 else rels[0]
        for _ in range(i % 4 - 1):
            g = Word(letters(ngens, 1))
            r = rng.choice(rels)
            extra = extra * ~g * (r if rng.random() < 0.5 else ~r) * g
        rels.append(extra)
        corpus.append(Presentation(tuple("abc"[:ngens]), rels))
    for budget in budgets:
        for p in corpus[5::4] if budget == TietzeBudget(3, 1, 8, 2) else corpus:
            yield p, budget


@pytest.fixture(params=["pure", "compiled"])
def tietze_kernel(request, monkeypatch):
    """Each Tietze kernel in turn, installed as the one tietze_neighbors
    runs.  The compiled one skips where compiled_tietze does."""
    if request.param == "pure":
        kernel = _consequence_search
    else:
        kernel = request.getfixturevalue("compiled_tietze")
    monkeypatch.setattr(presentations, "_kernel", kernel)
    return kernel


@pytest.fixture(scope="module")
def oracle_streams():
    """Each oracle corpus item with the plain BFS oracle's neighbor stream
    of it, pickled, and that stream's repr, computed once for both kernels.
    The streams are kept as bytes: as objects, their 176,000 containers
    would slow the cyclic GC in every later test of the module."""
    out = []
    for p, budget in _oracle_corpus():
        want = tietze_neighbors_oracle(p, budget)
        out.append((p, budget, pickle.dumps(want), repr(want)))
    return out


def test_tietze_neighbors_match_the_plain_bfs_oracle(tietze_kernel, oracle_streams):
    # Every level of the oracle's search multiplies out every block; the
    # library finds the last product of a removal by lookup.
    products = {}  # certificate length -> removals found with it
    for p, budget, pickled, want_repr in oracle_streams:
        got = list(tietze_neighbors(p, budget))
        want = pickle.loads(pickled)
        assert got == want, (p, budget)
        assert repr(got) == want_repr
        for _, m in got:
            if m.kind == "remove-relator":
                n = len(m.certificate.entries)
                products[n] = products.get(n, 0) + 1
    assert products[1] > 50 and products[2] > 10 and products[3] > 0, products


def _tietze_enumerate_presentations():
    """The 150 presentations whose neighbors the benchmark's tietze_enumerate
    workload lists, with the names of its seed 7919.  The benchmark's
    generator runs in an interpreter of its own, as its modules share names
    with these tests' modules."""
    script = (
        "import json, random, sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import workloads\n"
        "calls = workloads._gen_tietze_enumerate(random.Random(7919), False)\n"
        "print(json.dumps([c['text'] for c, _ in calls if c['op'] == 'tietze_neighbors']))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    texts = json.loads(out)
    assert len(texts) == 150
    return [parse(text) for text in texts]


def _searches(p, budget):
    """The argument tuples of every consequence search that
    ``tietze_neighbors(p, budget)`` runs: each removal target's, then the
    addition search's."""
    blocks = _certificate_blocks(p, budget)
    caps = budget.max_products, budget.max_relator_len
    for i, r in enumerate(p.relators):
        if r:
            yield ([b for b in blocks if b[1][1] != i], *caps, r.letters, p, _CLASSES)
    yield (blocks, *caps, (), p, _CLASSES)


def _parity_corpus():
    """The oracle corpus, the benchmark's presentations, and the trefoil's
    K3 embedding (15 generators, 64 relators) on budgets that keep the pure
    kernel's time down: one product, or two without conjugators."""
    corpus = list(_oracle_corpus())
    corpus += [(p, TietzeBudget()) for p in _tietze_enumerate_presentations()]
    k3 = k3_embed(parse(TREFOIL)).output
    corpus += [(k3, TietzeBudget(1, 1, 12, 2)), (k3, TietzeBudget(2, 0, 8, 2)),
               (k3, TietzeBudget(2, 0, 3, 2))]
    return corpus


def test_compiled_tietze_search_matches_pure_kernel(compiled_tietze):
    # Every search over the parity corpus returns, by value and by repr, the
    # pure kernel's result on the distinct nonempty blocks: from both
    # kernels on the blocks as tietze_neighbors passes them, and on them
    # twice over with an empty block before each, for each kernel keeps the
    # earliest of equal blocks and skips empty ones itself; and from the
    # compiled kernel on the distinct blocks too.
    searches = found = 0
    for p, budget in _parity_corpus():
        for blocks, *rest in _searches(p, budget):
            first = {}
            for body, entry in blocks:
                if body:
                    first.setdefault(body, entry)
            once = list(first.items())
            want = _consequence_search(once, *rest)
            want_repr = repr(want)
            twice = [b for block in blocks * 2 for b in (((), "empty"), block)]
            runs = [(compiled_tietze, once)] + [
                (kernel, given)
                for kernel in (_consequence_search, compiled_tietze)
                for given in (blocks, twice)
            ]
            for kernel, given in runs:
                got = kernel(given, *rest)
                assert got == want, (kernel, p, budget, rest[2], len(given))
                assert repr(got) == want_repr
            searches += 1
            found += bool(want)
    assert searches > 1000 and found > 500, (searches, found)


_ONE = parse("< x | >")


def test_compiled_tietze_search_takes_the_earliest_of_equal_blocks(compiled_tietze):
    # Given equal blocks, both kernels step by the earliest, on a middle
    # level and on the last lookup.
    blocks = [((1, 1), "p"), ((1,), "a"), ((1,), "b"), ((-1,), "c"), ((-1,), "d")]
    cases = [(2, (1,), ("a",)), (2, (1, 1, 1), ("p", "a")),
             (3, (1, 1, 1, 1, 1), ("p", "p", "a")), (2, (-1, -1), ("c", "c"))]
    for products, goal, want in cases:
        assert _consequence_search(blocks, products, 12, goal, _ONE, _CLASSES) == want
        assert compiled_tietze(blocks, products, 12, goal, _ONE, _CLASSES) == want
    args = (blocks, 2, 12, (), _ONE, _CLASSES)
    assert compiled_tietze(*args) == _consequence_search(*args)
    # tietze_neighbors passes _certificate_blocks as it is: here x three
    # times over, conjugated by 1, x and x^-1, then each inverted, and six
    # empty blocks from the empty relator.
    p = parse("< x | x, 1 >")
    blocks = _certificate_blocks(p, TietzeBudget())
    assert len(blocks) == 12 and sum(not body for body, _ in blocks) == 6
    x, x_inv = (EMPTY, 0, 1), (EMPTY, 0, -1)
    for kernel in (_consequence_search, compiled_tietze):
        assert kernel(blocks, 2, 12, (1, 1), p, _CLASSES) == (x, x)
        assert kernel(blocks, 3, 12, (-1, -1, -1), p, _CLASSES) == (x_inv,) * 3
        adds = kernel(blocks, 2, 12, (), p, _CLASSES)
        assert [m.certificate.entries for _, m in adds] == [(x_inv,), (x,), (x_inv,) * 2, (x,) * 2]


class _LettersProperty:
    letters = property(lambda self: ())


class _OwnNew(Word):
    __slots__ = ()

    def __new__(cls):
        return object.__new__(cls)


# a tuple subclass that tuple.__new__ may not build: its instances keep
# fields past the ones they show as a tuple
_STRUCT_SEQUENCE = type(sys.float_info)


@pytest.mark.parametrize("blocks, goal, p, classes, error", [
    ([((1, 0), "e")], (), _ONE, _CLASSES, ValueError),  # a letter 0
    ([((2**31,), "e")], (), _ONE, _CLASSES, ValueError),  # a letter beyond a C int
    ([((1,), "e")], (0,), _ONE, _CLASSES, ValueError),
    ([((1.0,), "e")], (), _ONE, _CLASSES, TypeError),
    ([((1,), "e", 0)], (), _ONE, _CLASSES, TypeError),  # not a pair
    ([[(1,), "e"]], (), _ONE, _CLASSES, TypeError),
    ([(1, "e")], (), _ONE, _CLASSES, TypeError),  # letters not a sequence
    # classes that cannot be built as the reference kernel builds them
    ([((1,), "e")], (), _ONE, list(_CLASSES), TypeError),
    ([((1,), "e")], (), _ONE, _CLASSES[:3], TypeError),
    ([((1,), "e")], (), _ONE, (EMPTY,) + _CLASSES[1:], TypeError),  # not a class
    ([((1,), "e")], (), _ONE, (int,) + _CLASSES[1:], TypeError),
    ([((1,), "e")], (), _ONE, (_OwnNew,) + _CLASSES[1:], TypeError),
    ([((1,), "e")], (), _ONE, (_LettersProperty,) + _CLASSES[1:], TypeError),
    ([((1,), "e")], (), _ONE, (Word, Word) + _CLASSES[2:], TypeError),  # not a tuple subclass
    ([((1,), "e")], (), _ONE, _CLASSES[:2] + (Presentation, Presentation), TypeError),
    ([((1,), "e")], (), _ONE, _CLASSES[:2] + (_STRUCT_SEQUENCE, Presentation), TypeError),
    ([((1,), "e")], (), _ONE, _CLASSES[:3] + (Word,), TypeError),  # no generators slot
    ([((1,), "e")], (), _ONE, _CLASSES[:3] + (tuple,), TypeError),
    ([((1,), "e")], (), Presentation._trusted((), []), _CLASSES, TypeError),  # relators not a tuple
])
def test_compiled_tietze_search_refuses_bad_blocks(compiled_tietze, blocks, goal, p, classes, error):
    with pytest.raises(error):
        compiled_tietze(blocks, 2, 12, goal, p, classes)
    got = compiled_tietze([((1,), "e")], 2, 2, (), _ONE, _CLASSES)
    assert [(q.relators, move.certificate.entries) for q, move in got] == [
        ((Word([1]),), ("e",)), ((Word([1, 1]),), ("e", "e"))]


def test_tietze_moves_and_certificates_stay_frozen_values(tietze_kernel):
    p = parse("< x | x, x >")
    built = {}
    for q, move in tietze_neighbors(p):
        built.setdefault(move.kind, move)
        # every neighbor, the kernel-built additions too, is the value the
        # public constructors make of its parts
        assert type(q) is Presentation and type(move.word) is Word
        public = Presentation(q.generators, q.relators)
        assert q == public and hash(q) == hash(public)
        again = pickle.loads(pickle.dumps((q, move)))
        assert again == (q, move) and type(again[0]) is Presentation
        if move.kind == "add-relator":
            assert move.word is q.relators[-1] and q.generators is p.generators
    assert set(built) == {"remove-relator", "remove-generator", "add-relator", "add-generator"}
    for move in built.values():
        assert type(move) is TietzeMove
        public = TietzeMove(**{name: getattr(move, name) for name in move._fields})
        assert move == public and hash(move) == hash(public) and repr(move) == repr(public)
        again = pickle.loads(pickle.dumps(move))
        assert type(again) is TietzeMove and again == move and repr(again) == repr(move)
        with pytest.raises(AttributeError):
            move.kind = "add-relator"
        cert = move.certificate
        if cert is not None:
            assert type(cert) is IdentitySequence
            again = IdentitySequence(cert.entries)
            assert cert == again and hash(cert) == hash(again) and repr(cert) == repr(again)
            with pytest.raises(AttributeError):
                cert.entries = ()
    assert built["remove-relator"].certificate is not None
    assert built["add-relator"].certificate is not None


def test_tietze_huge_budgets_cost_what_saturating_ones_do(tietze_kernel, capsys):
    # A search stops at its first empty level, however many products it may
    # take, and additions are ordered without a list per allowed length: each
    # stream equals the one at a budget just large enough to saturate (one
    # less gives a shorter stream), within a second.  A field of 10**30 is
    # past every machine size, which the compiled kernel saturates at.
    cases = [
        ("< a | a^2 >", {}, "max_products", 6),
        ("< a, b | a^2, b^3 >", {"max_relator_len": 4}, "max_products", 2),
        ("< a, b | a^2, b^3 >", {}, "max_relator_len", 10),
    ]
    for text, base, field, enough in cases:
        p = parse(text)
        saturated = list(tietze_neighbors(p, TietzeBudget(**base, **{field: enough})))
        short = list(tietze_neighbors(p, TietzeBudget(**base, **{field: enough - 1})))
        assert len(short) < len(saturated), (text, field)
        for huge in (10**8, sys.maxsize, 10**30):
            start = time.perf_counter()
            got = list(tietze_neighbors(p, TietzeBudget(**base, **{field: huge})))
            elapsed = time.perf_counter() - start
            assert got == saturated and repr(got) == repr(saturated), (text, field, huge)
            assert elapsed < 1.0, (text, field, huge, elapsed)
    # the CLI prints the same bytes at a 31-digit cap as at a saturating one
    outs = []
    for cap in ("10", "1" + "0" * 30):
        assert main(["tietze", "< a, b | a^2, b^3 >", "--max-relator-len", cap]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] and outs[1] == outs[0]


def test_compiled_tietze_search_returns_every_block(compiled_tietze):
    # The search's buffers come from PyMem_*, which sys.getallocatedblocks
    # counts; calls that find the goal, miss it, build neighbors or are
    # refused each free all of them.  The objects the neighbors share with
    # the presentation and the blocks are referenced once per neighbor, and
    # only while it lives: a reference a call kept would show 200 times.
    p = parse("< a, b | a^2, b^3, (a b)^5 >")
    budget = TietzeBudget(2, 1, 12, 2)
    blocks = _certificate_blocks(p, budget)
    searches = list(_searches(p, budget)) + [(blocks, 2, 12, (1, 2), p, _CLASSES)]
    refused = [((1, 2), "e"), ((1, 0), "e")]
    shared = [p.generators, *p.relators, blocks[0][1]]

    def calls(count):
        for _ in range(count):
            for args in searches:
                compiled_tietze(*args)
            with pytest.raises(ValueError):
                compiled_tietze(refused, 2, 12, (), p, _CLASSES)
            with pytest.raises(TypeError):
                compiled_tietze(blocks, 2, 12, (), p, _CLASSES[:3] + (Word,))

    assert len(compiled_tietze(*searches[-2])) > 100
    calls(3)  # the first calls may grow the interpreter's own caches
    gc.collect()
    before = sys.getallocatedblocks()
    counts = [sys.getrefcount(obj) for obj in shared]
    calls(200)  # a block a call kept would show as 200, four times the threshold
    gc.collect()
    assert abs(sys.getallocatedblocks() - before) < 50
    assert [sys.getrefcount(obj) for obj in shared] == counts


class _Alarm(Exception):
    pass


def test_tietze_search_stops_on_a_signal(tietze_kernel):
    # The addition search over this output forms about 3.4 million products
    # and keeps 484,000 words, for seconds on either kernel.  At three
    # products and a relator length of 0 its last level would form about
    # 5 billion and keep none, so only a check inside the search loop stops
    # it.  An exception that a signal handler raises 50 ms in must come back
    # within a second, and the kernel must work as before after it.
    p = s_minus_k3(parse(TREFOIL)).output
    blocks = _certificate_blocks(p, TietzeBudget())

    def ring(signum, frame):
        raise _Alarm

    for products, relator_len in ((2, 12), (3, 0)):
        old = signal.signal(signal.SIGALRM, ring)
        try:
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            with pytest.raises(_Alarm):
                tietze_kernel(blocks, products, relator_len, (), p, _CLASSES)
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        assert elapsed < 1.05, (products, relator_len, elapsed)
    a2 = parse("< a | a^2 >")
    small = (_certificate_blocks(a2, TietzeBudget()), 2, 12, (), a2, _CLASSES)
    assert tietze_kernel(*small) == _consequence_search(*small)


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
