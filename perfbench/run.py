"""knotpres benchmark: one workload per invocation, or all four in turn.

    python3 perfbench/run.py --workload coset_enum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  The harness builds the package in place with
its own setup.py, makes the workload's inputs and oracle answers from the
seed, measures set-up in several fresh processes, then hands only the inputs
to one fresh worker process that calls knotpres in a closed loop for the
given seconds.  Answers are checked against the oracles afterwards, outside
the timed interval.  The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics: the end-to-end metrics
untraced (--trace 0) or the per-layer split from a traced run (--trace 1).
See perfbench/README.md for the metric and workload names.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "correct_ratio": "ratio",
    "decided_ratio": "ratio",
}


def per_layer_units():
    units = {}
    for name in tracing.SPAN_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in tracing.COUNTERS:
        units[name] = "count"
    units["coset.kernel.cosets_per_s"] = "1/s"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.unattributed_s"] = "s"
    return units


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Fixed hashing keeps set and dict layouts, and so timings, alike across runs.
    env["PYTHONHASHSEED"] = "0"
    return env


def build():
    """Build the package in place the way setup.py defines it; a pure-Python
    tree builds nothing and runs on the pure kernel."""
    if not os.path.isfile(os.path.join(ROOT, "setup.py")) or not os.path.isfile(
        os.path.join(ROOT, "src", "knotpres", "__init__.py")
    ):
        raise BenchError("no knotpres source tree at %s" % ROOT)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", os.path.join(".bench_build", "build")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout + proc.stderr)


def _worker(job, *flags):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *flags],
        input=json.dumps(job), capture_output=True, text=True, cwd=ROOT,
        env=_child_env(), timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout)


def _quantile(values, q):
    """Harrell-Davis estimate of the q quantile: a weighted mean of all the
    order statistics, with Beta((n+1)q, (n+1)(1-q)) weights.  It does not jump
    when two calls near the quantile swap places, as one order statistic does."""
    values = sorted(values)
    n = len(values)
    if n == 1:
        return values[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule within each order statistic's interval
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(w)
    return sum(w * v for w, v in zip(weights, values)) / sum(weights)


def _pass_walls(passes):
    return [sum(t for t in p if t is not None) for p in passes]


def _median_latencies(passes):
    """Each call's median scaled latency over the passes."""
    out = []
    for times in zip(*passes):
        times = [t for t in times if t is not None]
        if times:
            out.append(statistics.median(times))
    return out


def _metadata(args, result):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": result["backend"],
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        "commit": commit, "passes": result["passes"],
    }


def _layer_metrics(result):
    """Per-layer figures for one pass.  Span times are scaled like the
    end-to-end ones, by each traced pass's scaled over measured time."""
    passes = result["layers"]
    walls = _pass_walls(result["traced"])
    factors = [w / raw for w, raw in zip(walls, result["raw_pass_walls"]["traced"])]
    first = passes[0]
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[name + ".calls"] = first["layers"][name]["calls"]
        metrics[name + ".self_s"] = statistics.median(
            p["layers"][name]["self_s"] * f for p, f in zip(passes, factors))
    for name in tracing.COUNTERS:
        metrics[name] = first["counts"].get(name, 0)
    kernel_s = metrics[tracing.KERNEL + ".self_s"]
    metrics["coset.kernel.cosets_per_s"] = (
        metrics["coset.cosets_used"] / kernel_s if kernel_s > 0 else 0.0)
    metrics["trace.overhead_ratio"] = (
        sum(_median_latencies(result["traced"])) / sum(_median_latencies(result["untraced"])))
    unattributed = []
    for wall, f, p in zip(walls, factors, passes):
        attributed = sum(v["self_s"] for k, v in p["layers"].items() if k != tracing.ROOT)
        unattributed.append(wall - attributed * f)
    metrics["trace.unattributed_s"] = statistics.median(unattributed)
    return metrics


def run_one(args):
    build()
    t0 = time.perf_counter()
    calls = workloads.generate(args.workload, args.seed, args.quick)
    if args.corrupt:
        workloads.corrupt(calls)
    input_s = time.perf_counter() - t0

    probe = {"workload": args.workload}
    probes = [_worker(probe, "--setup-only") for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    setups_raw = [p["setup_raw_s"] for p in probes]
    job = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
           "calls": [c for c, _ in calls],
           "spans_path": os.path.join(OUT, "spans-%s.jsonl" % args.workload),
           "answers_path": os.path.join(OUT, "answers-%s.jsonl" % args.workload)}
    os.makedirs(OUT, exist_ok=True)
    result = _worker(job)
    setups.append(result["setup_s"])
    setups_raw.append(result["setup_raw_s"])
    with open(job["answers_path"]) as fh:
        answers = [json.loads(line) for line in fh]

    checks = workloads.check(calls, answers)
    passes = result["passes"]
    error_counts = {int(k): v for k, v in result["error_counts"].items()}
    attempted = passes * len(calls)
    failed = sum(error_counts.values()) + result["mismatches"]
    wrong = []
    for i, ((call, _), (errors, _)) in enumerate(zip(calls, checks)):
        if errors and answers[i] is not None:
            failed += passes - error_counts.get(i, 0)
            wrong.append({"call": i, "op": call["op"], "label": call.get("label"),
                          "errors": errors[:3]})
    parity = result["parity"]
    if parity:
        failed += parity["mismatches"]
        attempted += parity["checked"]
    budgeted = [d for _, d in checks if d is not None]
    decided_ratio = sum(budgeted) / len(budgeted) if budgeted else 1.0

    if args.trace:
        metrics = _layer_metrics(result)
        units = per_layer_units()
    else:
        per_call = _median_latencies(result["untraced"])
        latencies = [t * 1000.0 for t in per_call]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(per_call),
            "call_p50_ms": _quantile(latencies, 0.5),
            "call_p90_ms": _quantile(latencies, 0.9),
            "peak_rss_mb": result["peak_rss_mb"],
            "correct_ratio": (attempted - failed) / attempted,
            "decided_ratio": decided_ratio,
        }
        units = END_TO_END_UNITS

    meta = _metadata(args, result)
    meta.update({
        "calls_per_pass": len(calls),
        "timed_calls": sum(t is not None for p in result["untraced"] for t in p),
        "failed_ratio": failed / attempted, "decided_calls": sum(budgeted),
        "budgeted_calls": len(budgeted), "input_s": input_s, "setup_samples": setups,
        "setup_raw_samples": setups_raw,
        "untraced_walls": _pass_walls(result["untraced"]),
        "untraced_raw_walls": result["raw_pass_walls"]["untraced"],
        "traced_walls": _pass_walls(result["traced"]),
        "traced_raw_walls": result["raw_pass_walls"]["traced"],
        "kernel_parity": parity,
        "errors": result["errors"], "wrong": wrong[:10],
    })
    print(json.dumps({"meta": meta}))
    for name, value in metrics.items():
        print("%-48s %16.6g %s" % (name, value, units[name]))
    print("%-48s %16.6g %s" % ("failed_ratio", failed / attempted, "ratio"))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args):
    """Each workload in its own harness process, one after the other."""
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            raise BenchError("%s failed:\n%s" % (workload, proc.stderr[-4000:]))
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, res in results.items():
        print("== %s: correct=%s attempted=%d failed=%d failed_ratio=%.6g" % (
            workload, res["correct"], res["attempted"], res["failed"],
            res["failed"] / res["attempted"]))
        for name, m in res["metrics"].items():
            print("   %-48s %16.6g %s" % (name, m["value"], m["unit"]))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the self-check")
    parser.add_argument("--corrupt", action="store_true",
                        help="falsify one oracle answer, for the self-check")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            results = run_all(args)
            print(json.dumps(results))
            return 0 if all(r["correct"] for r in results.values()) else 1
        print(json.dumps(run_one(args)))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
