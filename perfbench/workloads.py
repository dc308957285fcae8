"""Seeded inputs and their oracle expectations for the four workloads.

generate(workload, seed, quick) returns a list of (call, expect) pairs.  The
call is a JSON-able spec the worker turns into one public knotpres call; the
expect entry stays in the harness and is compared with the worker's answer
by check().  Nothing here imports knotpres.
"""

import json
import random

import oracles as O

WORKLOADS = ("coset_enum", "gadget_audits", "tietze_enumerate", "exact_decide")

TABLE_CHECK_LIMIT = 6000  # tables up to this index are re-verified cell by cell
INFINITE_BUDGET = 20_000
AUDIT_BUDGET = 10_000
BINARY_ICOSAHEDRAL = "< c, d | c^2 (d^-1 c)^-5, d^3 (d^-1 c)^-5 >"

# m_minus_s applied to the trefoil, with the stable letter s killed: the
# collapse case of benchmarks/bench_coset.py.  The construction promises
# that s normally generates, so the quotient is trivial.
STABLE_LETTER_COLLAPSE = (
    "< x, y, a, alpha, b, beta, s | x y x y^-1 x^-1 y^-1, a alpha a^-1 b^-2, "
    "alpha a alpha^-1 b beta^-1 b^-1, a^2 x alpha^2 beta^4 b^-1 beta^-4, "
    "a^4 y alpha^4 beta^6 b^-1 beta^-6, "
    "x^-1 a^-1 x a y^-1 a^-1 y a beta^2 b^-1 beta^-2, "
    "x^-1 alpha^-1 x alpha y^-1 alpha^-1 y alpha beta b beta^-1 b^-1 beta^-1, "
    "s^-1 b s b^-2, s >"
)


def _names(rng, count, prefix="g"):
    picked = rng.sample(range(100), count)
    return ["%s%d" % (prefix, k) for k in picked]


def _random_word(rng, ngens, length):
    out = []
    while len(out) < length:
        k = rng.randint(1, ngens) * rng.choice((1, -1))
        if out and out[-1] == -k:
            continue
        out.append(k)
    return tuple(out)


def _stratified_presentation(rng, i, max_gens=4, max_rels=6, max_len=12):
    """The acceptance-test draw, with generator and relator counts cycled by
    position so every seed sees the same mix of sizes."""
    ngens = 1 + i % max_gens
    rels = [O.reduce_word(_random_word(rng, ngens, rng.randint(1, max_len)))
            for _ in range(i % (max_rels + 1))]
    return ngens, rels


# ------------------------------------------------------------- coset_enum


def _coxeter(kind, n):
    if kind == "A":
        edges = {(i, i + 1): 3 for i in range(n - 1)}
    elif kind == "B":
        edges = {(i, i + 1): 3 for i in range(n - 2)}
        edges[(n - 2, n - 1)] = 4
    elif kind == "D":
        edges = {(i, i + 1): 3 for i in range(n - 2)}
        edges[(n - 3, n - 1)] = 3
    else:  # E_n: chain 0..n-2 with node n-1 attached to node 2
        edges = {(i, i + 1): 3 for i in range(n - 2)}
        edges[(2, n - 1)] = 3
    rels = [(i + 1, i + 1) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rels.append((i + 1, j + 1) * edges.get((i, j), 2))
    return n, rels


def _triangle(l, m, n, binary):
    """von Dyck group x^l = y^m = (x y)^n = 1, or its binary cover
    c^l = d^m = (d^-1 c)^n."""
    if not binary:
        return 2, [(1,) * l, (2,) * m, (1, 2) * n]
    z = (-2, 1) * n
    return 2, [(1,) * l + O.invert_word(z), (2,) * m + O.invert_word(z)]


# Faithful images used to confirm the closed-form orders by closure.
_CLOSURES = {
    ("vd", 2, 3, 3): ("perm", [(1, 0, 3, 2), (1, 2, 0, 3)]),
    ("vd", 2, 3, 4): ("perm", [(1, 0, 2, 3), (0, 2, 3, 1)]),
    ("vd", 2, 3, 5): ("perm", [(1, 0, 3, 2, 4), (2, 1, 4, 3, 0)]),
    ("bin", 2, 3, 5): ("mat", [((0, 1), (4, 0)), ((0, 4), (1, 1))], 5),
}


def _confirm_closure(key, rels, expected):
    spec = _CLOSURES.get(key)
    if spec is None:
        return
    if spec[0] == "perm":
        images = spec[1]
        ident = tuple(range(len(images[0])))
        ok = all(O.perm_of_word(r, images) == ident for r in rels)
        size = O.closure_size(images, O.perm_compose, ident)
    else:
        images, p = spec[1], spec[2]
        ident = ((1, 0), (0, 1))
        ok = all(O.mat_of_word(r, images, p) == ident for r in rels)
        size = O.closure_size(images, lambda a, b: O.mat_mul_mod(a, b, p), ident)
    if not ok or size != expected:
        raise AssertionError("closure oracle disagrees with closed form for %r" % (key,))


def _coset_jobs():
    """(label, ngens, relators, subgroup, budget, expected index or None)."""
    big, small = [], []
    for kind, n, bucket in (
        ("A", 6, big), ("B", 5, big), ("D", 5, big),
        ("A", 3, small), ("A", 4, small), ("B", 3, small), ("B", 4, small),
        ("D", 4, small), ("A", 5, small),
    ):
        ngens, rels = _coxeter(kind, n)
        bucket.append(("%s%d" % (kind, n), ngens, rels, [], 100_000,
                       O.coxeter_order(kind, n)))
    # Parabolic quotients W(E_n) / W_J with W_J's type read off the diagram.
    for n, subset, types in (
        (7, (0, 1, 2, 3, 6), [("D", 5)]),
        (7, (0, 1, 2, 3, 4, 5), [("A", 6)]),
        (7, (1, 2, 3, 4, 5, 6), [("D", 6)]),
        (6, (1, 2, 3, 5), [("D", 4)]),
        (6, (0, 1, 2, 3), [("A", 4)]),
        (6, (0, 1, 3, 4, 5), [("A", 2), ("A", 2), ("A", 1)]),
    ):
        ngens, rels = _coxeter("E", n)
        sub_order = 1
        for kind, k in types:
            sub_order *= O.coxeter_order(kind, k)
        big.append(("E%d/%s" % (n, "x".join("%s%d" % t for t in types)), ngens, rels,
                    [(g + 1,) for g in subset], 100_000,
                    O.coxeter_order("E", n) // sub_order))
    big.append(("order-10752", 2, [(1,) * 8, (2,) * 7, (1, 2) * 2, (-1, 2) * 3],
                [], 60_000, 10752))
    for binary in (False, True):
        for l, m, n in ((2, 3, 3), (2, 3, 4), (2, 3, 5)) + tuple((2, 2, k) for k in range(3, 9)):
            ngens, rels = _triangle(l, m, n, binary)
            expected = O.von_dyck_order(l, m, n) * (2 if binary else 1)
            _confirm_closure(("bin" if binary else "vd", l, m, n), rels, expected)
            small.append(("%s(%d,%d,%d)" % ("bin" if binary else "vd", l, m, n),
                          ngens, rels, [], 1000, expected))
    infinite = [
        ("Z2*Z3", 2, [(1, 1), (2, 2, 2)], [], INFINITE_BUDGET, None),
        ("trefoil", 2, [(1, 2, 1, -2, -1, -2)], [], INFINITE_BUDGET, None),
        ("BS(1,2)", 2, [(-2, 1, 2, -1, -1)], [], INFINITE_BUDGET, None),
    ]
    return big, small, infinite


def _gen_coset_enum(rng, quick):
    big, small, infinite = _coset_jobs()
    if quick:
        big = [j for j in big if j[5] <= 2000]
    # Every job in every pass, small ones four times over; the seed picks
    # generator names and call order, so all seeds do the same work.
    jobs = big + infinite + small * (1 if quick else 4)
    rng.shuffle(jobs)
    out = []
    for label, ngens, rels, sub, budget, expected in jobs:
        names = _names(rng, ngens, prefix=rng.choice("abcghkmnpqrxyz"))
        call = {"op": "enumerate_cosets" if sub else "order", "label": label,
                "text": O.presentation_text(names, rels), "budget": budget,
                "rows": expected is not None and expected <= TABLE_CHECK_LIMIT}
        if sub:
            call["subgroup"] = [O.spell(names, w) for w in sub]
        out.append((call, {"kind": "coset", "index": expected, "ngens": ngens,
                           "relators": rels, "subgroup": sub}))
    out.append(({"op": "order", "label": "stable-letter collapse",
                 "text": STABLE_LETTER_COLLAPSE, "budget": AUDIT_BUDGET, "rows": True},
                {"kind": "coset", "index": 1, "ngens": 7, "relators": None,
                 "subgroup": []}))
    return out


def _check_coset(call, exp, ans):
    if exp["index"] is None:
        if ans["status"] != "exhausted":
            return ["known-infinite group reported %s" % ans["status"]], False
        return [], None
    if ans["status"] != "finite":
        return [], False
    if ans["index"] != exp["index"]:
        return ["index %s, expected %d" % (ans["index"], exp["index"])], True
    if ans.get("rows") is not None and exp["relators"] is not None:
        return O.table_errors(ans["rows"], exp["ngens"], exp["relators"], exp["subgroup"]), True
    return [], True


# ---------------------------------------------------------- gadget_audits


GADGETS = ("prop1", "k3embed", "k3k2", "sk3", "ms", "weight", "homology", "whitehead")
_H1_Z = (1, ())
_H1_0 = (0, ())


def _freely_related(rng, i):
    """Relators r_i = u g_i v with u, v over later generators: triangular, so
    they extend to a basis and are freely independent."""
    ngens = 2 + i % 3
    rels = []
    for g in range(rng.randint(1, ngens - 1)):
        later = list(range(g + 2, ngens + 1))
        u = tuple(rng.choice(later) * rng.choice((1, -1)) for _ in range(rng.randint(0, 2)))
        v = tuple(rng.choice(later) * rng.choice((1, -1)) for _ in range(rng.randint(0, 2)))
        rels.append(O.reduce_word(u + (g + 1,) + v))
    return ngens, rels


def _gen_gadget_audits(rng, quick):
    """Nine CLI calls per input presentation: every construct kind, then
    check kervaire on the ms output with its stable letter.  The presentations
    and words are one fixed draw, since a single heavy collapse moves a
    pass's time by several percent; the seed picks generator names and the
    order of the calls."""
    pool = random.Random("gadget_audits:pool")
    y_names = ["y%d" % k for k in range(1, 7)]
    y_text = O.presentation_text(y_names, [(k,) for k in range(1, 7)])
    blocks = []
    for i in range(2 if quick else 12):
        ngens, rels = _stratified_presentation(pool, i)
        names = _names(rng, ngens)
        text = O.presentation_text(names, rels)
        budget = ["--max", str(AUDIT_BUDGET)]
        block = []
        for kind in GADGETS:
            argv = ["construct", kind]
            exp = {"kind": "construct", "gadget": kind, "inputs": [names]}
            if kind == "weight":
                wnames = names if ngens >= 2 else names + ["g100"]
                word = _random_word(pool, 2, pool.randint(0, 6))
                argv += [O.presentation_text(wnames, rels), "--w", O.spell(wnames, word)]
                exp["inputs"] = [wnames]
            elif kind == "homology":
                gn, grels = _freely_related(pool, i)
                gnames = _names(rng, gn, prefix="f")
                word = _random_word(pool, 2, pool.randint(0, 4))
                argv += [O.presentation_text(gnames, grels), BINARY_ICOSAHEDRAL, y_text,
                         "--w", O.spell(["c", "d"], word)]
                # U and Y are perfect, so H1 of the output is H1 of the first input.
                exp["h1"] = O.abelian_invariants(gn, grels)
                exp["inputs"] = [gnames]
            elif kind == "whitehead":
                word = _random_word(pool, ngens, pool.randint(0, 6))
                argv += [text, "--w", O.spell(names, word)]
                exp["h1"] = _H1_0
            else:
                argv.append(text)
                exp["h1"] = _H1_0 if kind == "prop1" else _H1_Z
                if kind in ("k3embed", "sk3", "ms"):
                    argv += budget
            block.append(({"op": "cli", "argv": argv + ["--format", "json"]}, exp))
        rng.shuffle(block)
        blocks.append(block)
    rng.shuffle(blocks)
    out = []
    for block in blocks:
        ms = len(out) + [exp["gadget"] for _, exp in block].index("ms")
        out.extend(block)
        out.append((
            {"op": "cli", "pipe": ms,
             "argv": ["check", "kervaire", "@presentation", "--candidates", "s",
                      "--budget", str(AUDIT_BUDGET), "--format", "json"]},
            {"kind": "kervaire"},
        ))
    return out


def _audit_verdicts(payload, prefix):
    return [v for name, v in payload["audit"] if name.startswith(prefix)]


def _check_construct(call, exp, ans):
    if ans["code"] != 0:
        return ["exit code %d" % ans["code"]], None
    payload = json.loads(ans["stdout"])
    ngens, rels = O.parse_serialized(payload["presentation"])
    inv = O.abelian_invariants(ngens, rels)
    errors = []
    kind = exp["gadget"]
    if "h1" in exp and inv != exp["h1"]:
        errors.append("H1 of output is %s" % O.h1_display(inv))
    if sorted(payload["generator_map"]) != sorted(exp["inputs"][0]):
        errors.append("generator map does not cover the input generators")
    decided = None
    if kind in ("prop1", "whitehead"):
        if _audit_verdicts(payload, "h1_trivial") != ["yes"]:
            errors.append("missing h1_trivial audit")
    elif kind in ("weight", "homology"):
        if [v for name, v in payload["audit"] if name == "h1"] != [O.h1_display(inv)]:
            errors.append("h1 audit disagrees with the output presentation")
    else:
        if _audit_verdicts(payload, "h1_infinite_cyclic") != ["yes"]:
            errors.append("missing h1_infinite_cyclic audit")
    if kind in ("k3embed", "ms"):
        verdicts = _audit_verdicts(payload, "normal_closure_collapses:")
        if len(verdicts) != 1 or verdicts[0] == "no":
            errors.append("witness audit %r contradicts the construction" % verdicts)
        else:
            decided = verdicts[0] == "yes"
    if kind == "sk3" and _audit_verdicts(payload, "central_square_is_commutator") != ["yes"]:
        errors.append("central square audit missing")
    return errors, decided


def _check_kervaire(call, exp, ans, piped):
    if piped is None:
        return ["no presentation to check"], None
    payload = json.loads(ans["stdout"])
    ngens, rels = O.parse_serialized(piped)
    errors = []
    if O.abelian_invariants(ngens, rels) != _H1_Z or payload["h1_infinite_cyclic"] != "yes":
        errors.append("h1 verdict wrong")
    cand = payload["candidates"]
    if len(cand) != 1 or cand[0]["normal_closure_is_all"] == "no":
        return errors + ["stable letter refuted as a weight witness"], None
    decided = cand[0]["normal_closure_is_all"] == "yes"
    if payload["h2_trivial"] != "not determined" or payload["verdict"] != "unknown":
        errors.append("claimed more than the evidence supports")
    if ans["code"] != 2:
        errors.append("exit code %d for an unknown verdict" % ans["code"])
    return errors, decided


# ------------------------------------------------------- tietze_enumerate


STREAM_SIZES = (30, 60, 90)


def _consequence(rng, ngens, rels):
    """A product of at most two conjugated relators that the default Tietze
    budget certifies: conjugators of length <= 1, result at most 12 long."""
    for _ in range(100):
        a = rng.choice(rels) if rng.random() < 0.5 else O.invert_word(rng.choice(rels))
        g = _random_word(rng, ngens, rng.randint(0, 1))
        b = rng.choice(rels) if rng.random() < 0.5 else O.invert_word(rng.choice(rels))
        w = O.reduce_word(O.invert_word(g) + a + g + b)
        if w and len(w) <= 12 and w not in rels:
            return w
    return None


def _gen_tietze_enumerate(rng, quick):
    """Tietze neighbours of small presentations, a third of them carrying a
    planted redundant relator, and three weight-one streams.  As for the
    gadgets, the presentations are one fixed draw and the seed picks names
    and call order, so every seed does the same work."""
    pool = random.Random("tietze_enumerate:pool")
    out = []
    for i in range(4 if quick else 150):
        ngens = 1 + i % 3
        rels = [O.reduce_word(_random_word(pool, ngens, pool.randint(1, 5)))
                for _ in range(1 + (i // 3) % 3)]
        rels = [r for r in rels if r] or [(1,)]
        redundant = None
        if i % 3 == 0:
            extra = _consequence(pool, ngens, rels)
            if extra is not None:
                redundant = len(rels)
                rels.append(extra)
        names = _names(rng, ngens)
        out.append(({"op": "tietze_neighbors", "text": O.presentation_text(names, rels)},
                    {"kind": "tietze", "ngens": ngens, "relators": rels,
                     "redundant": redundant}))
    for size in (5, 10) if quick else STREAM_SIZES:
        out.append(({"op": "enumerate_weight_one", "budget": size},
                    {"kind": "enumerate", "budget": size}))
    rng.shuffle(out)
    return out


def _certificate_word(rels, cert):
    acc = ()
    for g, j, s in cert:
        g = tuple(g)
        r = rels[j] if s == 1 else O.invert_word(rels[j])
        acc = O.reduce_word(acc + O.invert_word(g) + r + g)
    return acc


def _check_tietze(call, exp, ans):
    base = O.abelian_invariants(exp["ngens"], exp["relators"])
    errors = []
    decided = None if exp["redundant"] is None else False
    for kind, gens, rels, word, cert, index in ans:
        rels = [tuple(r) for r in rels]
        if O.abelian_invariants(len(gens), rels) != base:
            errors.append("%s changed H1" % kind)
        if kind == "remove-relator":
            if _certificate_word(rels, cert) != tuple(word):
                errors.append("removal certificate does not multiply out")
            if index == exp["redundant"]:
                decided = True
        elif kind == "add-relator":
            if _certificate_word(rels[:-1], cert) != tuple(word) or rels[-1] != tuple(word):
                errors.append("addition certificate does not multiply out")
    return errors, decided


def _check_enumerate(call, exp, ans):
    errors = []
    if len(ans) != exp["budget"]:
        errors.append("%d emissions for budget %d" % (len(ans), exp["budget"]))
    for gens, rels, witness in ans:
        rels = [tuple(r) for r in rels] + [tuple(witness)]
        if O.abelian_invariants(len(gens), rels) != _H1_0:
            errors.append("witness quotient has nontrivial H1")
            break
    return errors, None


# ---------------------------------------------------------- exact_decide


def _reduced_probe(rng, length):
    return O.reduce_word(_random_word(rng, 2, length))


def _gen_folding(rng):
    """A subgroup of F2 with ten probes built as products of its generators
    and ten random words.  Membership is decided by an independent folding;
    brute-force saturation must agree wherever it finds a word."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        gens.append(_reduced_probe(rng, rng.randint(1, 4)))
    members = []
    for _ in range(10):
        prod = ()
        for _ in range(rng.randint(1, 3)):
            g = rng.choice(gens)
            prod = O.reduce_word(prod + (g if rng.random() < 0.5 else O.invert_word(g)))
        members.append(prod)
    probes = members + [_reduced_probe(rng, rng.randint(1, 6)) for _ in range(10)]
    graph = O.folded_graph(gens)
    expected = [O.subgroup_contains(graph, p) for p in probes]
    closure = O.brute_closure(gens, 8)
    for probe, inside in zip(probes, expected):
        if not inside and (probe in members or probe in closure):
            raise AssertionError("membership oracles disagree on %r in %r" % (probe, gens))
    return (
        {"op": "folding", "gens": gens, "probes": probes},
        {"kind": "folding", "gens": gens, "members": expected,
         "rank": O.subgroup_rank(graph)},
    )


def _braid(rng, n, length):
    return [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]


def _mutant(rng, rels):
    rels = [list(r) for r in rels]
    r = rng.choice(rels)
    pos = rng.randint(0, len(r))
    choice = rng.random()
    if choice < 0.4 or not r:
        r.insert(pos, rng.choice((1, -1, 2, -2)))
    elif choice < 0.7:
        del r[min(pos, len(r) - 1)]
    else:
        r[min(pos, len(r) - 1)] = rng.choice((1, -1, 2, -2))
    return [O.reduce_word(x) for x in rels]


def _recognize(check, n, rels, h=0, truth=None):
    """A recognizer call.  For two_knot_check, truth is "unknot" (the
    companions present a free group, so the answer is Yes), "knot" (the
    group is not free, so the bounded reduction must answer Unknown) or None
    (not known to the oracle beyond the shape conditions)."""
    names = ["x%d" % (j + 1) for j in range(n)]
    call = {"op": "recognize", "check": check, "gens": names,
            "rels": [list(r) for r in rels], "h": h}
    if check == "wirtinger":
        return call, {"kind": "recognize", "expect": "yes" if O.wirtinger_shape(n, rels) else "no"}
    if check == "artin":
        return call, {"kind": "recognize", "expect": "yes" if O.artin_shape(n, rels) else "no"}
    if not O.two_knot_shape(n, rels, h):
        truth = "shape"
    return call, {"kind": "recognize", "expect": None, "truth": truth}


def _gen_exact_decide(rng, quick):
    scale = 1 if quick else 40
    out = [_gen_folding(rng) for _ in range(4 * scale)]
    for i in range(4 * scale):
        size = (3, 4, 8, 12, 16, 20, 25)[i % 7]
        dense = i % 2 == 0
        m = [[rng.randint(-9, 9) if dense or rng.random() < 0.3 else 0 for _ in range(size)]
             for _ in range(size)]
        out.append(({"op": "snf", "matrix": m},
                    {"kind": "snf", "matrix": m, "minors": size <= 4}))
    for i in range(2 * scale):
        ngens, rels = _stratified_presentation(rng, i)
        names = _names(rng, ngens)
        out.append(({"op": "h1", "text": O.presentation_text(names, rels)},
                    {"kind": "h1", "h1": O.abelian_invariants(ngens, rels)}))
    for i in range(2 * scale):
        n = 2 + i % 4
        rels = O.braid_relators(n, _braid(rng, n, 2 + i % 9))
        for check in ("wirtinger", "artin"):
            out.append(_recognize(check, n, rels))
            out.append(_recognize(check, n, _mutant(rng, rels)))
    for i in range(2 * scale):
        # Each elementary twist once: the closure is an unknot, whose group
        # is free, so the shape check and the free reduction both succeed.
        n = 2 + i % 4
        order = list(range(1, n))
        rng.shuffle(order)
        unknot = O.braid_relators(n, [rng.choice((1, -1)) * s for s in order])
        out.append(_recognize("twoknot", n, unknot, truth="unknot"))
        out.append(_recognize("twoknot", n, _mutant(rng, unknot)))
    for braid in ([1, 1, 1], [1, -2, 1, -2], [1, 1, 1, 1, 1])[: 1 if quick else 3]:
        n = max(abs(s) for s in braid) + 1
        out.append(_recognize("twoknot", n, O.braid_relators(n, braid), truth="knot"))
    rng.shuffle(out)
    return out


def _check_folding(call, exp, ans):
    rank, basis, members = ans
    errors = []
    if rank != exp["rank"]:
        errors.append("rank %d, expected %d" % (rank, exp["rank"]))
    if basis != (rank == len(exp["gens"]) and all(exp["gens"])):
        errors.append("basis verdict inconsistent with rank")
    if members != exp["members"]:
        errors.append("membership differs on %d probes"
                      % sum(a != b for a, b in zip(members, exp["members"])))
    return errors, None


def _check_recognize(call, exp, ans):
    verdict = ans["verdict"]
    if exp["expect"] is not None:
        ok = verdict == exp["expect"]
        return ([] if ok else ["verdict %s, expected %s" % (verdict, exp["expect"])]), None
    truth = exp["truth"]
    if truth == "shape":
        return ([] if verdict == "no" else ["shape violation answered %s" % verdict]), True
    if verdict == "no":
        return ["a valid shape was rejected"], None
    if truth == "knot" and verdict != "unknown":
        return ["a knot group was certified free"], None
    return [], (verdict == "yes") if truth == "unknot" else None


CHECKS = {
    "coset": _check_coset,
    "construct": _check_construct,
    "tietze": _check_tietze,
    "enumerate": _check_enumerate,
    "folding": _check_folding,
    "snf": lambda call, exp, ans: (
        O.smith_certificate_errors(exp["matrix"], ans[0], ans[1], ans[2], exp["minors"]), None),
    "h1": lambda call, exp, ans: (
        [] if (ans[0], tuple(ans[1])) == exp["h1"] else ["H1 %r" % (ans,)], None),
    "recognize": _check_recognize,
}

GENERATORS = {
    "coset_enum": _gen_coset_enum,
    "gadget_audits": _gen_gadget_audits,
    "tietze_enumerate": _gen_tietze_enumerate,
    "exact_decide": _gen_exact_decide,
}


def generate(workload, seed, quick=False):
    return GENERATORS[workload](random.Random("%s:%d" % (workload, seed)), quick)


def check(calls, answers):
    """Judge pass-one answers.  Returns one (errors, decided) pair per call;
    decided is None for calls outside the decided_ratio denominator."""
    results = []
    for i, ((call, exp), ans) in enumerate(zip(calls, answers)):
        if ans is None:
            results.append((["no answer"], None))
            continue
        try:
            if exp["kind"] == "kervaire":
                piped = None
                prev = answers[call["pipe"]]
                if prev is not None and prev["code"] == 0:
                    piped = json.loads(prev["stdout"])["presentation"]
                results.append(_check_kervaire(call, exp, ans, piped))
            else:
                results.append(CHECKS[exp["kind"]](call, exp, ans))
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            results.append((["malformed answer: %r" % (exc,)], None))
    return results


def corrupt(calls):
    """Falsify one oracle answer, for the self-check."""
    for call, exp in calls:
        if exp["kind"] == "coset" and exp["index"]:
            exp["index"] += 1
            return
        if exp["kind"] == "construct" and "h1" in exp:
            exp["h1"] = (exp["h1"][0] + 1, exp["h1"][1])
            return
        if exp["kind"] == "enumerate":
            exp["budget"] += 1
            return
        if exp["kind"] == "h1":
            exp["h1"] = (exp["h1"][0] + 1, exp["h1"][1])
            return
    raise AssertionError("nothing to corrupt")
