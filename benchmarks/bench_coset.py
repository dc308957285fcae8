"""Timing comparison between the two coset-enumeration kernels.

Runs the same workloads through the pure-Python kernel and the compiled one,
checks that they produce identical tables, and prints the median and
quartiles of the wall times over alternating repeats, and of the per-repeat
speedup.  Build the compiled kernel first:

    python3 setup.py build_ext --inplace
    PYTHONPATH=src python3 benchmarks/bench_coset.py

Exits with status 1 when the compiled kernel is not importable.
"""

import statistics
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

# Pure and compiled runs alternate, and which goes first alternates too, so
# a slow stretch of a shared host lands on both kernels alike.
REPEATS = 15


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


def spread(xs):
    """'median [q1-q3]' of a sample."""
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return "%.4g [%.4g-%.4g]" % (med, q1, q3)


def main():
    if _coset_speedup is None:
        sys.exit(
            "knotpres._coset_speedup is not built; run "
            "'python3 setup.py build_ext --inplace' first"
        )
    print("backend comparison: median [quartiles] of %d alternating repeats" % REPEATS)
    header = "%-26s %26s %26s %22s" % ("case", "pure (ms)", "compiled (ms)", "speedup (x)")
    print(header)
    print("-" * len(header))
    for name, p, subgroup, budget in cases():
        args = (
            len(p.generators),
            [_directions(r) for r in p.relators],
            [_directions(w) for w in subgroup],
            budget,
        )
        kernels = (_coset_py, _coset_speedup)
        times = {kernel: [] for kernel in kernels}
        for rep in range(REPEATS):
            results = {}
            for kernel in kernels if rep % 2 == 0 else kernels[::-1]:
                t0 = time.perf_counter()
                results[kernel] = kernel.run(*args)
                times[kernel].append((time.perf_counter() - t0) * 1e3)
            pure_r, fast_r = results[_coset_py], results[_coset_speedup]
            assert pure_r[0] == fast_r[0] and pure_r[1] == fast_r[1]
            if pure_r[0]:
                assert [list(r) for r in pure_r[2]] == [list(r) for r in fast_r[2]]
        pure_ts, fast_ts = times[_coset_py], times[_coset_speedup]
        ratios = [a / b if b else float("inf") for a, b in zip(pure_ts, fast_ts)]
        print("%-26s %26s %26s %22s" % (name, spread(pure_ts), spread(fast_ts), spread(ratios)))
        status = "closed at index %d" % pure_r[1] if pure_r[0] else "exhausted"
        print("     tables identical in every repeat, %s" % status)


if __name__ == "__main__":
    main()
