import random
import re
from collections import deque

import pytest

from knotpres.abelian import h1, h1_is_infinite_cyclic
from knotpres.coset import is_trivial_bounded
from knotpres.gadgets import m_minus_s
from knotpres.outcomes import CheckOutcome
from knotpres.presentations import (
    IdentitySequence,
    Presentation,
    parse,
    quotient,
    tietze_neighbors,
)
from knotpres.recognize import (
    artin_check,
    enumerate_weight_one,
    is_wirtinger,
    kervaire_report,
    replay_elimination,
    two_knot_check,
    verify_identity,
)
from knotpres.words import EMPTY, Word

TREFOIL = "< x, y | x y x y^-1 x^-1 y^-1 >"


def braid_image(n, braid_word, start=None):
    """Apply a braid word (list of +-i for the i-th elementary twist) to the
    free generators: twist i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to
    x_i, its inverse undoes that."""
    images = start or [Word([j + 1]) for j in range(n)]
    for s in braid_word:
        i = abs(s) - 1
        a, b = images[i], images[i + 1]
        if s > 0:
            images[i], images[i + 1] = a * b * ~a, a
        else:
            images[i], images[i + 1] = b, ~b * a * b
    return images


def braid_presentation(n, braid_word):
    images = braid_image(n, braid_word)
    names = tuple("x%d" % (j + 1) for j in range(n))
    rels = [~Word([j + 1]) * images[j] for j in range(n)]
    return Presentation(names, rels)


TREFOIL_BRAID = braid_presentation(2, [1, 1, 1])


def test_wirtinger_accepts_conjugation_relators():
    p = parse("< x1, x2, x3 | x1^-1 x2, x2^-1 x3^-1 x1 x3 >")
    out = is_wirtinger(p)
    assert out.is_yes
    assert out.evidence["patterns"] == [[1, 2, "1"], [2, 1, "x3"]]


def test_wirtinger_evidence_reconstructs_relators():
    p = parse("< x, y, z | x^-1 z^-1 y z, y^-1 x^-1 z x >")
    out = is_wirtinger(p)
    assert out.is_yes
    for (i, j, spelled), r in zip(out.evidence["patterns"], p.relators):
        w = p.word(spelled)
        assert ~Word([i]) * ~w * Word([j]) * w == r


def test_wirtinger_rejects_power_relator():
    out = is_wirtinger(parse("< x1 | x1^2 >"))
    assert out.is_no
    assert out.evidence["relator"] == 0


def test_wirtinger_allows_trivial_relator():
    out = is_wirtinger(parse("< x | 1 >"))
    assert out.is_yes
    i, j, _ = out.evidence["patterns"][0]
    assert i == j == 1


def test_wirtinger_yes_implies_torsion_free_h1():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 4)
        rels = []
        for _ in range(rng.randint(1, 5)):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            w = Word(
                [
                    rng.randint(1, n) * (1 if rng.random() < 0.5 else -1)
                    for _ in range(rng.randint(0, 4))
                ]
            )
            rels.append(~Word([i]) * ~w * Word([j]) * w)
        p = Presentation(tuple("g%d" % k for k in range(n)), rels)
        out = is_wirtinger(p)
        assert out.is_yes
        assert h1(p).torsion == ()


def test_artin_accepts_unknot():
    assert artin_check(parse("< x1 | x1^-1 x1 >")).is_yes


def test_artin_rejects_swapped_product():
    out = artin_check(parse("< x1, x2 | x1^-1 x2, x2^-1 x1 >"))
    assert out.is_no
    assert "product" in out.evidence["reason"]


def test_artin_accepts_trefoil_braid():
    out = artin_check(TREFOIL_BRAID)
    assert out.is_yes
    assert out.evidence["mu"] == [2, 1]
    # the conjugators really do carry the next generator onto the companion
    for j, spelled in enumerate(out.evidence["conjugators"], start=1):
        w = TREFOIL_BRAID.word(spelled)
        beta = Word([j]) * TREFOIL_BRAID.relators[j - 1]
        target = out.evidence["mu"][j - 1]
        assert ~w * Word([target]) * w == beta


def test_artin_rejects_wrong_counts_and_shapes():
    assert artin_check(parse("< x, y | x^-1 y >")).is_no
    assert artin_check(parse("< | >")).is_no
    out = artin_check(parse("< x1 | x1^2 >"))
    assert out.is_no
    assert out.evidence["relator"] == 0
    # identity companion map on two generators is not the full cycle
    out = artin_check(parse("< x1, x2 | 1, 1 >"))
    assert out.is_no
    assert out.evidence["mu"] == [1, 2]


def test_artin_yes_implies_infinite_cyclic_h1():
    rng = random.Random(72)
    for _ in range(30):
        n = rng.randint(1, 4)
        word = [
            rng.randint(1, max(n - 1, 1)) * (1 if rng.random() < 0.5 else -1)
            for _ in range(rng.randint(1, 6))
        ]
        if n == 1:
            word = []
        p = braid_presentation(n, word)
        out = artin_check(p)
        if out.is_yes:
            assert h1_is_infinite_cyclic(p)


def test_braid_presentations_pass_when_cycle_structure_matches():
    # a single full twist on three strands gives the cycle (1 2 3)
    p = braid_presentation(3, [1, 2])
    out = artin_check(p)
    assert out.is_yes
    assert out.evidence["mu"] == [2, 3, 1]


def test_two_knot_accepts_spun_style_instance():
    p = Presentation(("x1", "x2"), [Word([-1, 2]), EMPTY, EMPTY])
    out = two_knot_check(p, 1)
    assert out.is_yes
    assert out.evidence["mu"] == [1, 2]
    assert replay_elimination(
        2, list(p.relators[1:]), out.evidence["elimination"], p.generators
    )


def test_two_knot_replays_derived_family():
    p = Presentation(("x1", "x2"), [Word([-1, 2]), EMPTY, EMPTY])
    out = two_knot_check(p, 1)
    h, n = 1, 2
    betas = [Word([j]) * p.relators[h + j - 1] for j in range(1, n + 1)]
    derived = []
    for j in range(1, n + 1):
        if j % 2 == 1 and j < 2 * h:
            x = Word([j + 1])
            derived.append(x * betas[j] * ~x)
        elif j % 2 == 0 and j <= 2 * h:
            derived.append(betas[j - 2])
        else:
            derived.append(betas[j - 1])
    rels = [~Word([j + 1]) * b for j, b in enumerate(derived)]
    assert replay_elimination(
        n, rels, out.evidence["elimination_derived"], p.generators
    )


def test_two_knot_spells_each_step_in_the_names_live_then():
    # x1 = x2 by the first relator; the survivors x2, x3 are renumbered to
    # letters 1, 2, so the second step eliminates letter 1, which is x2
    p = braid_presentation(3, [1, 2])
    out = two_knot_check(p, 0)
    assert out.is_yes
    assert out.evidence["elimination"] == [[0, 1, "x2"], [0, 1, "x3"]]
    assert out.evidence["elimination_derived"] == [[0, 1, "x2"], [0, 1, "x3"]]


def test_replay_elimination_checks_published_words():
    p = braid_presentation(3, [1, 2])
    trace = two_knot_check(p, 0).evidence["elimination"]
    rels = list(p.relators)  # x_j^-1 beta_j is the relator itself here
    assert replay_elimination(3, rels, trace, p.generators)
    # every published word replaced: the steps still eliminate, the words lie
    forged = [[ri, g, "x1 x1 x1"] for ri, g, _ in trace]
    assert not replay_elimination(3, rels, forged, p.generators)
    # the second step's word spelled with the input names unshifted
    assert not replay_elimination(3, rels, [trace[0], [0, 1, "x2"]], p.generators)
    # a string word with nothing to check it against, or not a word at all
    assert not replay_elimination(3, rels, trace)
    assert not replay_elimination(3, rels, [trace[0][:2], [0, 1, 7]], p.generators)
    assert replay_elimination(3, rels, [step[:2] for step in trace])
    with pytest.raises(ValueError):
        replay_elimination(3, rels, trace, p.generators[:2])


def test_replay_elimination_refuses_bad_traces():
    # x1 = x2 by the first relator turns the second into x1^2 x2^-1, and
    # solving that for x2 (once x3) leaves nothing
    rels = [Word([1, -2]), Word([2, 2, -3])]
    good = [[0, 1, Word([2])], [0, 2, Word([1, 1])]]
    assert replay_elimination(3, rels, good)
    assert replay_elimination(3, rels, [step[:2] for step in good])
    # relator position out of range
    assert not replay_elimination(3, rels, [[2, 1]])
    assert not replay_elimination(3, rels, [[-1, 1]])
    # generator out of range, also once the alphabet has shrunk
    assert not replay_elimination(3, rels, [[0, 0]])
    assert not replay_elimination(3, rels, [[0, 4]])
    assert not replay_elimination(3, rels, [good[0], [0, 3]])
    # a generator that occurs twice in its relator
    assert not replay_elimination(3, rels, [[1, 2]])
    assert not replay_elimination(3, rels, [good[0], [0, 1]])
    # a recorded word that is not the recomputed one
    assert not replay_elimination(3, rels, [[0, 1, Word([-2])], good[1]])
    assert not replay_elimination(3, rels, [good[0], [0, 2, Word([-1, -1])]])
    # a trace that leaves relators
    assert not replay_elimination(3, rels, good[:1])
    assert not replay_elimination(3, rels, [[1, 3]])
    assert not replay_elimination(3, rels, [])


def test_replay_elimination_refuses_steps_that_are_not_ints():
    rels = [Word([1])]
    assert replay_elimination(1, rels, [[0, 1]]) and replay_elimination(1, rels, [(0, 1)])
    for step in ([0.0, 1], [0, 1.0], [False, 1], [0, True], ["0", 1], [0, None],
                 [0], [], (), 5, None, "01", Word([1, 1]), {0: 0, 1: 1}):
        assert not replay_elimination(1, rels, [step]), step


def test_bad_budgets_are_refused_whether_or_not_the_run_uses_them():
    spun = Presentation(("x1", "x2"), [Word([-1, 2]), EMPTY, EMPTY])
    short = Presentation(("x1", "x2"), [Word([-1, 2])])  # refused on shape alone
    assert not two_knot_check(short, 1, 0).is_yes
    for p in (spun, short):
        for bad in (-1, True, 1.5, "8"):
            with pytest.raises(ValueError, match="budget must be an int"):
                two_knot_check(p, 1, bad)
    for bad in (0, -3):
        for candidates in ((), [Word([1])]):
            with pytest.raises(ValueError, match="coset budget must be positive"):
                kervaire_report(parse("< x | >"), candidates, max_cosets=bad)


def test_artin_and_two_knot_share_the_companion_checks():
    names = ("x1", "x2")
    # both companions are generators, but x2 x1 is not x1 x2
    swap = Presentation(names, [Word([-1, 2]), Word([-2, 1])])
    product = {"reason": "companion product differs from generator product"}
    assert artin_check(swap).is_no and artin_check(swap).evidence == product
    assert two_knot_check(swap, 0).is_no and two_knot_check(swap, 0).evidence == product
    # the second companion is x1^2; the failing relator is counted from the
    # start, past the pairing relator
    bad = [Word([-1, 2]), Word([-2, 1, 1])]
    reason = "companion word is not conjugate to a generator"
    out = artin_check(Presentation(names, bad))
    assert out.is_no and out.evidence == {"relator": 1, "reason": reason}
    out = two_knot_check(Presentation(names, [Word([-1, 2])] + bad), 1)
    assert out.is_no and out.evidence == {"relator": 2, "reason": reason}


def test_two_knot_shape_rejections():
    p = Presentation(("x1", "x2"), [Word([-1, 2]), EMPTY])
    assert two_knot_check(p, 1).is_no  # relator count
    q = Presentation(("x1", "x2"), [Word([1, 2]), EMPTY, EMPTY])
    out = two_knot_check(q, 1)
    assert out.is_no
    assert out.evidence["reason"] == "missing pairing relator"
    # with no generators, no orbit is left to pass the transitivity test
    out = two_knot_check(parse("< | >"), 0)
    assert out.is_no and out.evidence == {"reason": "no generators"}


def test_two_knot_intransitive_orbits():
    p = Presentation(("x1", "x2"), [EMPTY, EMPTY])
    out = two_knot_check(p, 0)
    assert out.is_no
    assert out.evidence["orbits"] == [[1], [2]]


def test_two_knot_precondition():
    with pytest.raises(ValueError):
        two_knot_check(parse("< x | 1 >"), 1)


def test_two_knot_refuses_a_pair_count_that_is_not_a_count():
    four = parse("< x1, x2, x3, x4 | >")
    for bad in (True, False, "1", None, 1.5, -1, 3):
        with pytest.raises(ValueError, match="pair count must be an int from 0 to 2, got "):
            two_knot_check(four, bad)
    # 0, 1 and 2 pass the check and fail on the relator count
    for h in (0, 1, 2):
        assert two_knot_check(four, h).evidence["expected"] == 4 + h


def test_check_outcome_refuses_an_unknown_verdict():
    with pytest.raises(ValueError, match="bad verdict 'maybe'"):
        CheckOutcome("maybe")
    for bad in ("Yes", "", None, 1):
        with pytest.raises(ValueError, match=re.escape(f"bad verdict {bad!r}")):
            CheckOutcome(verdict=bad, budget_used=3)


def test_check_outcome_replace_checks_the_verdict():
    assert CheckOutcome.yes(budget_used=2)._replace(verdict="no") == CheckOutcome.no(budget_used=2)
    with pytest.raises(ValueError, match="^bad verdict 'maybe'$"):
        CheckOutcome.yes()._replace(verdict="maybe")


def test_check_outcome_is_a_frozen_value():
    out = CheckOutcome("no", {"order": 2}, 7)
    assert out == CheckOutcome(verdict="no", evidence={"order": 2}, budget_used=7)
    assert out == CheckOutcome.no({"order": 2}, budget_used=7)
    assert out != CheckOutcome("no", {"order": 2}) and out != CheckOutcome("yes", {"order": 2}, 7)
    assert repr(out) == "CheckOutcome(verdict='no', evidence={'order': 2}, budget_used=7)"
    assert (out.verdict, out.evidence, out.budget_used) == ("no", {"order": 2}, 7)
    assert CheckOutcome("yes") == CheckOutcome("yes", None, None) == CheckOutcome.yes()
    assert CheckOutcome.unknown(5) == CheckOutcome("unknown", budget_used=5)
    assert repr(CheckOutcome.unknown(5)) == "CheckOutcome(verdict='unknown', evidence=None, budget_used=5)"
    # equal outcomes hash alike; one carrying a dict of evidence has no hash
    assert hash(CheckOutcome.unknown(5)) == hash(CheckOutcome("unknown", None, 5))
    with pytest.raises(TypeError):
        hash(out)
    assert [(o.is_yes, o.is_no, o.is_unknown) for o in (CheckOutcome.yes(), out, CheckOutcome.unknown())] == [
        (True, False, False), (False, True, False), (False, False, True)]
    assert out.to_json_dict() == {"verdict": "no", "evidence": {"order": 2}, "budget_used": 7}
    assert CheckOutcome.yes().to_json_dict() == {"verdict": "yes"}
    for name, value in (("verdict", "yes"), ("evidence", None), ("budget_used", 0), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(out, name, value)
    with pytest.raises(TypeError):
        CheckOutcome()  # the verdict has no default


def test_two_knot_unknown_when_group_is_not_free():
    # braid companions of a genuine knot never eliminate to a free
    # presentation, so the bounded search must give up, not guess
    p = Presentation(TREFOIL_BRAID.generators, TREFOIL_BRAID.relators)
    out = two_knot_check(p, 0)
    assert out.is_unknown
    assert out.budget_used is not None


def test_kervaire_trefoil_candidate():
    # One relator with a nonzero exponent sum: the left kernel of M is 0, so
    # H2 = 0 by Hopf's formula with no identity sequences at all.
    report = kervaire_report(parse(TREFOIL), [Word([2])])
    assert report["h1_infinite_cyclic"] == "yes"
    assert report["candidates"][0]["normal_closure_is_all"] == "yes"
    assert report["h2_trivial"] == "certified"
    assert report["verdict"] == "yes"


def test_kervaire_baumslag_solitar_is_certified():
    # BS(1,2), Fox's 2-knot group: t normally generates, and the 1x2 relation
    # matrix [-1, 0] has rank 1, so H2 = 0 whether or not identities are given.
    p = parse("< a, t | t a t^-1 a^-2 >")
    for identities in (None, []):
        report = kervaire_report(p, [p.word("t")], identity_sequences=identities)
        assert report["h1_infinite_cyclic"] == "yes"
        assert report["candidates"][0]["normal_closure_is_all"] == "yes"
        assert report["h2_trivial"] == "certified"
        assert report["verdict"] == "yes"


def test_kervaire_torsion_is_negative():
    assert kervaire_report(parse("< x | x^2 >"))["verdict"] == "no"


def test_kervaire_certified_path():
    report = kervaire_report(
        parse("< x | >"), [Word([1])], identity_sequences=[]
    )
    assert report["h2_trivial"] == "certified"
    assert report["verdict"] == "yes"
    bogus = IdentitySequence(((EMPTY, 0, 1),))
    report = kervaire_report(
        parse("< x | x >"), [Word([1])], identity_sequences=[bogus]
    )
    assert report["h2_trivial"] == "not determined"


def test_kervaire_empty_identities_do_not_certify_m_minus_s():
    # The 8x7 relation matrix has rank 6, so H2 may be as large as Z^2 and
    # no identity at all proves nothing.
    rep = m_minus_s(parse(TREFOIL))
    s = rep.output.word("s")
    report = kervaire_report(rep.output, [s], identity_sequences=[])
    assert report["candidates"][0]["normal_closure_is_all"] == "yes"
    assert report["h2_trivial"] == "not determined"
    assert report["verdict"] == "unknown"


def test_kervaire_identities_must_span_the_relation_kernel():
    p = parse("< a, b | a, a >")
    a = p.word("a")
    assert kervaire_report(p, [a], identity_sequences=[])["h2_trivial"] == (
        "not determined"
    )
    quotient_of_relators = [(EMPTY, 0, 1), (EMPTY, 1, -1)]
    report = kervaire_report(p, [a], identity_sequences=[quotient_of_relators])
    assert report["h2_trivial"] == "certified"
    # the same identity twice over spans only an index-2 sublattice
    report = kervaire_report(
        p, [a], identity_sequences=[quotient_of_relators * 2]
    )
    assert report["h2_trivial"] == "not determined"
    # a verified identity with a zero count vector adds nothing
    trivial = IdentitySequence(((EMPTY, 0, 1), (EMPTY, 0, -1)))
    assert kervaire_report(p, [a], identity_sequences=[trivial])[
        "h2_trivial"
    ] == "not determined"


def test_verify_identity_basics():
    p = parse("< a | a^2 >")
    assert verify_identity(p, [(EMPTY, 0, 1), (EMPTY, 0, -1)])
    assert not verify_identity(p, [(EMPTY, 0, 1)])
    assert verify_identity(p, [(Word([1]), 0, 1), (EMPTY, 0, -1)])
    with pytest.raises(ValueError):
        verify_identity(p, [(EMPTY, 3, 1)])


@pytest.mark.parametrize(
    "entry",
    [
        (EMPTY, "a", 1),
        (EMPTY, 0.0, 1),
        (EMPTY, True, 1),
        (EMPTY, None, 1),
        (EMPTY, 0, 1.0),
        (EMPTY, 0, True),
        (EMPTY, 0, -1.0),
        (EMPTY, 0, 2),
        (EMPTY, 0, "1"),
        (EMPTY, -1, 1),
    ],
)
def test_verify_identity_rejects_malformed_entries(entry):
    p = parse("< a | a^2, a^3 >")
    with pytest.raises(ValueError):
        verify_identity(p, [(EMPTY, 0, 1), entry])


@pytest.mark.parametrize("conjugator, shown", [("a", "'a'"), ((1,), "(1,)"), (None, "None")])
def test_verify_identity_refuses_a_conjugator_that_is_not_a_word(conjugator, shown):
    p = parse("< a, b | a, a >")
    entries = [(EMPTY, 0, 1), (conjugator, 1, -1)]
    message = re.escape(f"conjugator {shown} is not a Word")
    with pytest.raises(TypeError, match=message):
        verify_identity(p, entries)
    with pytest.raises(TypeError, match=message):
        kervaire_report(p, [p.word("a")], identity_sequences=[entries])


def test_verify_identity_cancelling_pair_invariance():
    rng = random.Random(73)
    p = parse("< a, b | a b a^-1 b^-1, a^3 >")
    for _ in range(25):
        entries = []
        for _ in range(rng.randint(0, 4)):
            g = Word(
                [
                    rng.randint(1, 2) * (1 if rng.random() < 0.5 else -1)
                    for _ in range(rng.randint(0, 3))
                ]
            )
            entries.append((g, rng.randint(0, 1), rng.choice((1, -1))))
        before = verify_identity(p, list(entries))
        g = Word([rng.randint(1, 2)])
        k = rng.randint(0, 1)
        pos = rng.randint(0, len(entries))
        padded = entries[:pos] + [(g, k, 1), (g, k, -1)] + entries[pos:]
        assert verify_identity(p, padded) == before


def test_enumerator_first_emission_and_budget():
    got = list(enumerate_weight_one(7))
    assert len(got) == 7
    first_p, first_w = got[0]
    assert str(first_p) == "< x | >"
    assert first_w == Word([1])


def test_enumerator_refuses_a_budget_that_is_not_a_count():
    assert list(enumerate_weight_one(0)) == []
    for bad in (-1, True, 1.5, "3", None):
        with pytest.raises(ValueError, match="budget must be an int, 0 or more"):
            list(enumerate_weight_one(bad))


def test_enumerator_witness_quotients_never_refute():
    for pres, witness in enumerate_weight_one(20):
        res = is_trivial_bounded(quotient(pres, [witness]), 2000)
        assert not res.is_no


def test_enumerator_reaches_multiple_generators():
    assert any(
        len(pres.generators) > 1 for pres, _ in enumerate_weight_one(12)
    )


def test_enumerator_is_deterministic():
    a = [(str(p), w) for p, w in enumerate_weight_one(15)]
    b = [(str(p), w) for p, w in enumerate_weight_one(15)]
    assert a == b


def _eager_weight_one(budget):
    """The stream as first written: expand every dequeued node fully.  The
    reference the lazy enumerator must match item for item."""
    if budget <= 0:
        return []
    seed = Presentation(("x",), [Word([1])])
    seen = {seed}
    queue = deque([seed])
    out = []
    while queue:
        current = queue.popleft()
        if current.relators:
            out.append((Presentation(current.generators, current.relators[1:]),
                        current.relators[0]))
            if len(out) >= budget:
                return out
        for nxt, _move in tietze_neighbors(current):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return out


@pytest.mark.parametrize("budget", [1, 30, 90])
def test_enumerator_matches_eager_bfs(budget):
    got = list(enumerate_weight_one(budget))
    want = _eager_weight_one(budget)
    assert len(got) == budget
    assert [(p.generators, p.relators, w) for p, w in got] == [
        (p.generators, p.relators, w) for p, w in want
    ]


def test_enumerator_expands_only_what_its_budget_emits(monkeypatch):
    import knotpres.recognize as recognize

    pulled = [0]

    def counting(p, moves):
        for item in tietze_neighbors(p, moves):
            pulled[0] += 1
            yield item

    monkeypatch.setattr(recognize, "tietze_neighbors", counting)
    assert len(list(enumerate_weight_one(90))) == 90
    # the eager BFS pulls 21,488 neighbors for the same 90 emissions
    assert 0 < pulled[0] <= 1000
