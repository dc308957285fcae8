"""Recognizers for presentation shapes carried by knot-like groups.

The decidable checks here work entirely inside the free group: a relator
either has the required shape up to free equality or it does not, and the
evidence (indices, conjugators, permutations) makes every Yes auditable.
The one semi-decision, the free-group reduction inside ``two_knot_check``,
returns Unknown rather than guess when its budget runs out.
"""

from collections import deque
from itertools import product

from .abelian import h1, invariant_factors
from .coset import DEFAULT_MAX_COSETS, _check_max_cosets, weight_one_witness_check
from .outcomes import CheckOutcome
from .presentations import (
    IdentitySequence,
    Presentation,
    _eliminate,
    tietze_neighbors,
)
from .words import EMPTY, Word, _check_count, _quote, cyclic_reduce

DEFAULT_ELIMINATION_LETTERS = 2048


def _conjugate_to_generator(u):
    """If ``u`` is conjugate in the free group to a generator, return the
    pair ``(j, w)`` with ``w^-1 x_j w == u``; otherwise None."""
    core, peel = cyclic_reduce(u)
    if len(core) == 1 and core.letters[0] > 0:
        return core.letters[0], ~peel
    return None


def is_wirtinger(p):
    """Decide whether every relator freely equals x_i^-1 w^-1 x_j w.

    Multiplying a relator of that shape on the left by x_i leaves a
    conjugate of x_j, so each relator is tested against every choice of i.
    The case i = j is allowed (the relator is then freely trivial).
    """
    patterns = []
    for idx, r in enumerate(p.relators):
        hit = None
        for i in range(1, len(p.generators) + 1):
            found = _conjugate_to_generator(Word([i]) * r)
            if found is not None:
                hit = (i, found[0], found[1])
                break
        if hit is None:
            return CheckOutcome.no(
                evidence={
                    "relator": idx,
                    "reason": "not a conjugation relator for any generator",
                }
            )
        patterns.append(hit)
    return CheckOutcome.yes(
        evidence={
            "patterns": [[i, j, p._spell(w)] for i, j, w in patterns],
        }
    )


def _companion_family(p, first, full_cycle):
    """Read relators ``first``, ``first + 1``, ... as x_j^-1 beta_j, one per
    generator j, and check the companion words beta_j.

    Each beta_j must be conjugate to a generator x_mu[j]; mu must be the
    cycle j -> j + 1 (mod n) when ``full_cycle`` is set, else a permutation;
    and the product of the beta_j must freely equal x_1 x_2 ... x_n.
    Returns ``(mu, conjugators, betas)``, or the No outcome of the first
    check that fails.
    """
    n = len(p.generators)
    mu = []
    conjugators = []
    betas = []
    for j in range(1, n + 1):
        beta = Word([j]) * p.relators[first + j - 1]
        found = _conjugate_to_generator(beta)
        if found is None:
            return CheckOutcome.no(
                evidence={
                    "relator": first + j - 1,
                    "reason": "companion word is not conjugate to a generator",
                }
            )
        mu.append(found[0])
        conjugators.append(found[1])
        betas.append(beta)
    if full_cycle and mu != [j % n + 1 for j in range(1, n + 1)]:
        return CheckOutcome.no(
            evidence={"mu": mu, "reason": "companion map is not the full cycle"}
        )
    if not full_cycle and sorted(mu) != list(range(1, n + 1)):
        return CheckOutcome.no(
            evidence={"mu": mu, "reason": "companion map is not a permutation"}
        )
    total = EMPTY
    for beta in betas:
        total = total * beta
    if total != Word(range(1, n + 1)):
        return CheckOutcome.no(
            evidence={"reason": "companion product differs from generator product"}
        )
    return mu, conjugators, betas


def artin_check(p):
    """Decide whether the presentation is a closed-braid form of a classical
    knot group: one relator x_j^-1 beta_j per generator, each beta_j
    conjugate to the cyclically next generator, and the beta product freely
    equal to the generator product.
    """
    n = len(p.generators)
    if n == 0:
        return CheckOutcome.no(evidence={"reason": "no generators"})
    if len(p.relators) != n:
        return CheckOutcome.no(
            evidence={
                "reason": "relator count differs from generator count",
                "generators": n,
                "relators": len(p.relators),
            }
        )
    family = _companion_family(p, 0, full_cycle=True)
    if isinstance(family, CheckOutcome):
        return family
    mu, conjugators, _betas = family
    return CheckOutcome.yes(
        evidence={
            "mu": mu,
            "conjugators": [p._spell(w) for w in conjugators],
        }
    )


def _orbits(n, maps):
    """Orbit partition of {1..n} under a list of permutations (as 1-based
    image lists), each orbit sorted, orbits sorted by their least element."""
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for images in maps:
        for j in range(1, n + 1):
            ra, rb = find(j), find(images[j - 1])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    buckets = {}
    for j in range(1, n + 1):
        buckets.setdefault(find(j), []).append(j)
    return [sorted(v) for _, v in sorted(buckets.items())]


def _eliminate_to_free(names, relators, max_letters):
    """Bounded generator elimination aiming at a free presentation.

    Repeatedly takes the first relator holding a generator that occurs in it
    exactly once and eliminates that generator, skipping candidates whose
    substitution would exceed ``max_letters`` in any relator.  Returns
    (True, trace) once no relators are left, else (False, trace); the trace
    lists [relator_pos, generator, word] steps against the surviving
    presentation at each step, each word spelled in the names live there, as
    ``replay_elimination`` reads them.
    """
    live = list(names)
    rels = [r for r in relators if r]
    trace = []
    while rels:
        for ri, g in product(range(len(rels)), range(1, len(live) + 1)):
            step = _eliminate(rels, ri, g, max_letters)
            if step is not None:
                break
        else:
            return False, trace
        rep, rest = step
        trace.append([ri, g, Presentation(live)._spell(rep)])
        del live[g - 1]
        rels = [r for r in rest if r]
    return True, trace


def replay_elimination(ngens, relators, trace, names=None):
    """Check an elimination trace: re-run each step with the elimination
    ``two_knot_check`` runs, and confirm that no relators are left.

    Each step must be a list or tuple naming, as ints, a live relator
    position and a generator occurring exactly once in that relator.  When a
    step carries a recorded word, it must match the recomputed defining word:
    a ``Word`` as it is, a string as spelled in ``names`` (one per generator)
    with the eliminated generators dropped, as ``two_knot_check`` publishes
    it.  A string word without ``names``, or a word of any other type, fails
    the replay.
    """
    if names is not None and len(names) != ngens:
        raise ValueError("names must give one name per generator")
    live = None if names is None else list(names)
    count = ngens
    rels = [r for r in relators if r]
    for entry in trace:
        if not isinstance(entry, (list, tuple)) or len(entry) < 2:
            return False
        ri, g = entry[0], entry[1]
        if (type(ri) is not int or type(g) is not int
                or not (0 <= ri < len(rels)) or not (1 <= g <= count)):
            return False
        step = _eliminate(rels, ri, g)
        if step is None:
            return False
        rep, rest = step
        if len(entry) > 2:
            word = entry[2]
            if isinstance(word, str):
                if live is None or word != Presentation(live)._spell(rep):
                    return False
            elif not isinstance(word, Word) or word != rep:
                return False
        if live is not None:
            del live[g - 1]
        rels = [r for r in rest if r]
        count -= 1
    return not rels


def two_knot_check(p, h, budget=DEFAULT_ELIMINATION_LETTERS):
    """Check the presentation shape carried by spun and twisted 2-knots.

    The first ``h`` relators must pair consecutive generators as
    x_{2i-1}^-1 x_{2i}; the remaining ones must be companion relators whose
    targets form a permutation that, together with the pairing involution,
    acts transitively.  On top of the decidable shape conditions, both the
    companion family and its derived rewrite must reduce to free
    presentations; that search is bounded, so the outcome may be Unknown,
    but a Yes always ships a replayable elimination trace.  A presentation
    with no generators is a No: with no orbits, transitivity would hold
    vacuously.  ``h`` must be an int up to half the generator count,
    ``budget`` an int; both 0 or more.
    """
    _check_count(budget, "budget")
    n = len(p.generators)
    if type(h) is not int or not 0 <= 2 * h <= n:
        raise ValueError("pair count must be an int from 0 to %d, got %s"
                         % (n // 2, _quote(h)))
    if n == 0:
        return CheckOutcome.no(evidence={"reason": "no generators"})
    if len(p.relators) != h + n:
        return CheckOutcome.no(
            evidence={
                "reason": "relator count differs from pairing plus companion rows",
                "expected": h + n,
                "relators": len(p.relators),
            }
        )
    for i in range(1, h + 1):
        want = Word([-(2 * i - 1), 2 * i])
        if p.relators[i - 1] != want:
            return CheckOutcome.no(
                evidence={
                    "relator": i - 1,
                    "reason": "missing pairing relator",
                    "expected": p._spell(want),
                }
            )
    family = _companion_family(p, h, full_cycle=False)
    if isinstance(family, CheckOutcome):
        return family
    mu, conjugators, betas = family
    pairing = list(range(1, n + 1))
    for i in range(1, h + 1):
        pairing[2 * i - 2], pairing[2 * i - 1] = 2 * i, 2 * i - 1
    orbits = _orbits(n, [mu, pairing])
    if len(orbits) > 1:
        return CheckOutcome.no(
            evidence={"reason": "pairing and companion map act intransitively",
                      "orbits": orbits}
        )
    derived = []
    for j in range(1, n + 1):
        if j % 2 == 1 and j < 2 * h:
            x = Word([j + 1])
            derived.append(x * betas[j] * ~x)
        elif j % 2 == 0 and j <= 2 * h:
            derived.append(betas[j - 2])
        else:
            derived.append(betas[j - 1])
    derived_rels = [~Word([j + 1]) * beta for j, beta in enumerate(derived)]
    # each x_j^-1 beta_j is the companion relator itself
    ok_plain, trace_plain = _eliminate_to_free(p.generators, p.relators[h:], budget)
    ok_derived, trace_derived = _eliminate_to_free(p.generators, derived_rels, budget)
    if not (ok_plain and ok_derived):
        stuck = []
        if not ok_plain:
            stuck.append("companion family")
        if not ok_derived:
            stuck.append("derived family")
        return CheckOutcome.unknown(
            budget_used=budget,
            evidence={
                "reason": "free-group reduction did not finish",
                "stuck": stuck,
            },
        )
    return CheckOutcome.yes(
        evidence={
            "mu": mu,
            "conjugators": [p._spell(w) for w in conjugators],
            "elimination": trace_plain,
            "elimination_derived": trace_derived,
        }
    )


def verify_identity(p, pi):
    """True iff the product of conjugated signed relators reduces to the
    empty word in the free group."""
    if not isinstance(pi, IdentitySequence):
        pi = IdentitySequence(tuple(pi))
    return pi.product(p) == EMPTY


def _h2_certified(p, sequences, kernel_rank):
    """True iff the identity sequences prove H2 = 0.

    By Hopf's formula H2 is the integer left kernel of the relation matrix M
    (r rows, one per relator) modulo the signed relator-count vectors of all
    identity sequences, so H2 = 0 once the given vectors span that kernel.
    A verified sequence's vector lies in it; the kernel has rank
    ``kernel_rank`` = r - rank M and a torsion-free cokernel, so the vectors
    span it exactly when their Smith form is ``kernel_rank`` ones.  With no
    sequences that holds exactly when the kernel is 0.
    """
    r = len(p.relators)
    counts = []
    for seq in sequences:
        if not isinstance(seq, IdentitySequence):
            seq = IdentitySequence(tuple(seq))
        if not verify_identity(p, seq):
            return False
        row = [0] * r
        for _g, k, sign in seq.entries:
            row[k] += sign
        counts.append(row)
    if not counts:
        return kernel_rank == 0
    return invariant_factors(counts) == (1,) * kernel_rank


def kervaire_report(p, candidates=(), max_cosets=DEFAULT_MAX_COSETS,
                    identity_sequences=None):
    """Report on the three conditions a higher-knot group must satisfy.

    First homology infinite cyclic is decided outright.  Each candidate word
    gets a bounded normal-closure check.  Second homology vanishing is
    certified by Hopf's formula when the left kernel of the relation matrix
    is 0, or when the identity sequences given (None means none) verify and
    span that kernel; otherwise it is reported as not determined, never
    guessed.
    """
    _check_max_cosets(max_cosets)
    inv = h1(p)  # one Smith form: rank M = generators - free rank
    h1_ok = inv.free_rank == 1 and not inv.torsion
    report = {"h1_infinite_cyclic": "yes" if h1_ok else "no"}
    weight = []
    any_weight_yes = False
    for t in candidates:
        out = weight_one_witness_check(p, t, max_cosets)
        entry = {"word": p._spell(t), "normal_closure_is_all": out.verdict}
        if out.budget_used is not None:
            entry["budget_used"] = out.budget_used
        weight.append(entry)
        any_weight_yes = any_weight_yes or out.is_yes
    report["candidates"] = weight
    kernel_rank = len(p.relators) - len(p.generators) + inv.free_rank
    certified = _h2_certified(p, identity_sequences or (), kernel_rank)
    report["h2_trivial"] = "certified" if certified else "not determined"
    if not h1_ok:
        report["verdict"] = "no"
    elif any_weight_yes and certified:
        report["verdict"] = "yes"
    else:
        report["verdict"] = "unknown"
    return report


def enumerate_weight_one(budget):
    """Stream pairs (presentation, witness) whose quotient by the witness is
    certifiably trivial.

    Walks move-certified rewrites of the one-relator collapse <x | x> in
    breadth-first order; every node presents the trivial group, so deleting
    its first relator leaves a presentation normally generated by that
    relator.  Stops after ``budget`` emissions, an int of 0 or more (bool
    refused); any other budget raises ValueError when the stream is read.

    Expansion is lazy: once the queue holds enough nodes with relators to
    reach ``budget``, the rest of the neighbors could only be queued behind
    every node still to be emitted, so no later node is expanded and the
    node being expanded has no more of its neighbors read.  Each node's
    additions are searched in full but built as they are read, so budgets
    30, 60 and 90 read 38, 72 and 102 neighbors and build 15, 36 and 66
    additions.
    """
    _check_count(budget, "budget")
    if budget == 0:
        return
    seed = Presentation(("x",), [Word([1])])
    seen = {seed}
    queue = deque([seed])
    emitted = 0
    pending = 1  # queued nodes with relators, each one emission to come
    while queue:
        current = queue.popleft()
        if current.relators:
            pending -= 1
            yield (
                Presentation._trusted(current.generators, current.relators[1:]),
                current.relators[0],
            )
            emitted += 1
            if emitted >= budget:
                return
        if emitted + pending >= budget:
            continue
        for nxt, _move in tietze_neighbors(current):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                if nxt.relators:
                    pending += 1
                    if emitted + pending >= budget:
                        break
