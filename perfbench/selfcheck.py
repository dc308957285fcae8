"""Quick self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size, untraced and traced, and checks that the
result line carries exactly the metric names and units BENCHMARK.json
declares, with every answer judged correct.  Then falsifies one oracle
answer per workload and checks that the run reports it as a failure, and
runs the harness from a directory holding only BENCHMARK.json and the
benchmark's files, where it must exit nonzero without a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    problems = []
    for workload in workloads.WORKLOADS:
        base = ["--workload", workload, "--seed", "1", "--seconds", "1", "--quick"]
        for trace in (0, 1):
            code, res, err = _run(base + ["--trace", str(trace)])
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or res is None:
                problems.append("%s: exit %d %s" % (label, code, err[-500:]))
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != declared[trace]:
                problems.append("%s: metric names or units differ from BENCHMARK.json" % label)
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append("%s: not all answers correct" % label)
            print("ok   %s: %d calls" % (label, res["attempted"]))
        code, res, err = _run(base + ["--trace", "0", "--corrupt"])
        if code != 0 or res is None or res["correct"] or res["failed"] < 1:
            problems.append("%s: a falsified oracle answer went unnoticed" % workload)
        else:
            print("ok   %s: falsified oracle answer counted, %d failed" % (workload, res["failed"]))

    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, res, _ = _run(["--workload", "coset_enum", "--seed", "1", "--seconds", "1",
                         "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or res is not None:
        problems.append("a tree without the program did not fail cleanly")
    else:
        print("ok   tree without the program: exit %d, no result" % code)

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
