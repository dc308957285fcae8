"""Timing comparison between the two coset-enumeration kernels.

Runs the same workloads through the pure-Python kernel and the compiled one,
checks that they produce identical tables, and prints the best-of-three wall
times.  Build the compiled kernel first:

    python3 setup.py build_ext --inplace
    PYTHONPATH=src python3 benchmarks/bench_coset.py

Exits with status 1 when the compiled kernel is not importable.
"""

import sys
import time

from knotpres import _coset_py
from knotpres.coset import _directions
from knotpres.gadgets import m_minus_s
from knotpres.presentations import parse, quotient
from knotpres.words import Word

try:
    from knotpres import _coset_speedup
except ImportError:
    _coset_speedup = None

REPEATS = 3


def _collapse_case():
    rep = m_minus_s(parse("< x, y | x y x y^-1 x^-1 y^-1 >"))
    out = rep.output
    s = Word([len(out.generators)])
    return quotient(out, [s])


def cases():
    yield (
        "order 10752 quotient",
        parse("< a, b | a^8, b^7, (a b)^2, (a^-1 b)^3 >"),
        [],
        60000,
    )
    yield (
        "binary icosahedral (120)",
        parse("< c, d | c^2 (d^-1 c)^-5, d^3 (d^-1 c)^-5 >"),
        [],
        1000,
    )
    yield "stable-letter collapse", _collapse_case(), [], 10000


def run_kernel(kernel, p, subgroup, budget):
    rels = [_directions(r) for r in p.relators]
    subs = [_directions(w) for w in subgroup]
    best = None
    result = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = kernel.run(len(p.generators), rels, subs, budget)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main():
    if _coset_speedup is None:
        sys.exit(
            "knotpres._coset_speedup is not built; run "
            "'python3 setup.py build_ext --inplace' first"
        )
    print("backend comparison (best of %d runs)" % REPEATS)
    header = "%-28s %12s %12s %10s" % ("case", "pure (s)", "compiled (s)", "speedup")
    print(header)
    print("-" * len(header))
    for name, p, subgroup, budget in cases():
        pure_t, pure_r = run_kernel(_coset_py, p, subgroup, budget)
        fast_t, fast_r = run_kernel(_coset_speedup, p, subgroup, budget)
        assert pure_r[0] == fast_r[0] and pure_r[1] == fast_r[1]
        if pure_r[0]:
            assert [list(r) for r in pure_r[2]] == [list(r) for r in fast_r[2]]
        print(
            "%-28s %12.4f %12.4f %9.1fx"
            % (name, pure_t, fast_t, pure_t / fast_t if fast_t else float("inf"))
        )
        status = "closed at index %d" % pure_r[1] if pure_r[0] else "exhausted"
        print("     tables identical, %s" % status)


if __name__ == "__main__":
    main()
