"""The measured process: one caller making knotpres calls in a closed loop.

Reads a JSON job from stdin ({"workload", "seconds", "trace", "calls",
"answers_path", "spans_path"}), imports knotpres, warms up every layer the
workload uses, then makes passes over the call list until the time is spent.
Each call starts only after the previous one returned.  Pass one is not
timed: its answers go to answers_path for the harness's oracles, and its
latencies fix how often each short call is repeated per timed sample.  Writes
one JSON object to stdout:
set-up time, per-pass per-call latencies, failures, peak RSS and, when
traced, the per-layer split.

Every time is reported twice: as measured, and scaled to a reference machine
speed.  A fixed pure-Python loop is timed before a call whenever
CALIBRATE_EVERY_S has gone by since it was last timed, and after the pass; a
call's scaled latency is its latency times REFERENCE_LOOP_S over the mean of
the nearest loop times on either side of it.  A shared host's speed drifts by
up to 1.6x between stretches of a few seconds; the loop slows with it, so the
scaled time follows the program and not the neighbours.

With --setup-only it stops after set-up and reports only that.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter

knotpres = None  # bound by setup(), after the clock starts
MIN_PASSES = 5  # an untraced run makes at least this many, for per-call medians
# The calibration loop's time at the reference speed: its fast-state time on
# the 2-CPU Xeon machine the benchmark was tuned on, under Python 3.11.
REFERENCE_LOOP_S = 2.0e-4
CALIBRATE_EVERY_S = 0.02  # the host's speed changes over seconds, not milliseconds
# A call shorter than this is made several times back to back per timed
# sample, and its latency is the sample's time over the count, so that timer
# and interrupt noise stay small against what is measured.
MIN_SAMPLE_S = 0.002
MAX_REPEATS = 16


def _import_all():
    global knotpres
    import knotpres as kp
    import knotpres.cli  # noqa: F401

    knotpres = kp


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = knotpres.cli.main(argv)
    return code, buf.getvalue()


def _warm_up(workload):
    kp = knotpres
    if workload == "coset_enum":
        p = kp.parse("< a, b | a^2, b^2, (a b)^3 >")
        kp.order(p, 100)
        kp.enumerate_cosets(p, [p.word("a")], 100)
    elif workload == "gadget_audits":
        _run_cli(["construct", "prop1", "< x | >", "--format", "json"])
        _run_cli(["check", "kervaire", "< x | >", "--candidates", "x", "--format", "json"])
    elif workload == "tietze_enumerate":
        list(kp.tietze_neighbors(kp.parse("< x | x >")))
        list(kp.enumerate_weight_one(1))
    else:
        x = kp.Word([1])
        kp.rank(2, [x])
        kp.is_basis(2, [x])
        kp.contains(2, [x], x)
        kp.smith_normal_form([[2, 0], [0, 3]])
        kp.h1(kp.parse("< x | x^2 >"))
        p = kp.Presentation(("x1",), [kp.EMPTY])
        kp.is_wirtinger(p)
        kp.artin_check(p)
        kp.two_knot_check(p, 0)


def calibrate():
    """Best of two timings of a fixed loop of tuple, dict and integer work,
    the kind of work the knotpres layers do."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        d = {}
        acc = 0
        for i in range(1000):
            t = (i, i ^ 5)
            d[t] = i
            acc += d[t] & 7
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best


def scale(seconds, loop_before, loop_after):
    return seconds * 2.0 * REFERENCE_LOOP_S / (loop_before + loop_after)


def setup(workload):
    """Set-up time as measured and scaled."""
    before = calibrate()
    t0 = time.perf_counter()
    _import_all()
    _warm_up(workload)
    dt = time.perf_counter() - t0
    return dt, scale(dt, before, calibrate())


# ------------------------------------------------------------------ calls
#
# Each op has prepare(spec, outputs) -> args, run outside the timed interval,
# and call(args) -> answer, timed.  summarize(spec, answer) turns the answer
# into plain JSON for the oracles; it also runs outside the timed interval.


def _unchanged(spec, outputs):
    return spec


def _prepare_cli(spec, outputs):
    argv = list(spec["argv"])
    if "pipe" in spec:
        code, out = outputs[spec["pipe"]] or (None, None)
        text = json.loads(out)["presentation"] if code == 0 else "< | >"
        argv = [text if a == "@presentation" else a for a in argv]
    return argv


def _prepare_folding(spec, outputs):
    Word = knotpres.Word
    return [Word(g) for g in spec["gens"]], [Word(w) for w in spec["probes"]]


def _prepare_recognize(spec, outputs):
    p = knotpres.Presentation(spec["gens"], [knotpres.Word(r) for r in spec["rels"]])
    return spec["check"], p, spec["h"]


def _call_coset(spec):
    p = knotpres.parse(spec["text"])
    if spec["op"] == "order":
        return knotpres.order(p, spec["budget"])
    words = [p.word(t) for t in spec["subgroup"]]
    return knotpres.enumerate_cosets(p, words, spec["budget"])


def _call_folding(args):
    gens, probes = args
    kp = knotpres
    return kp.rank(2, gens), kp.is_basis(2, gens), [kp.contains(2, gens, w) for w in probes]


def _call_recognize(args):
    check, p, h = args
    if check == "wirtinger":
        return knotpres.is_wirtinger(p)
    if check == "artin":
        return knotpres.artin_check(p)
    return knotpres.two_knot_check(p, h)


def _summarize_coset(spec, res):
    out = {"status": res.status, "index": res.index, "cosets_used": res.cosets_used}
    if res.finite:
        rows = res.table.rows
        out["digest"] = hashlib.sha1(repr(rows).encode()).hexdigest()
        if spec.get("rows"):
            out["rows"] = [list(r) for r in rows]
    return out


def _letters(w):
    return list(w.letters)


def _summarize_neighbors(spec, pairs):
    out = []
    for q, move in pairs:
        cert = None
        if move.certificate is not None:
            cert = [[_letters(g), j, s] for g, j, s in move.certificate.entries]
        out.append([move.kind, list(q.generators), [_letters(r) for r in q.relators],
                    _letters(move.word) if move.word is not None else None, cert, move.index])
    return out


OPS = {
    "order": (_unchanged, _call_coset, _summarize_coset),
    "enumerate_cosets": (_unchanged, _call_coset, _summarize_coset),
    "cli": (_prepare_cli, _run_cli,
            lambda spec, ans: {"code": ans[0], "stdout": ans[1]}),
    "tietze_neighbors": (
        _unchanged,
        lambda spec: list(knotpres.tietze_neighbors(knotpres.parse(spec["text"]))),
        _summarize_neighbors),
    "enumerate_weight_one": (
        _unchanged,
        lambda spec: list(knotpres.enumerate_weight_one(spec["budget"])),
        lambda spec, ans: [[list(p.generators), [_letters(r) for r in p.relators], _letters(w)]
                           for p, w in ans]),
    "folding": (_prepare_folding, _call_folding, lambda spec, ans: list(ans)),
    "snf": (_unchanged, lambda spec: knotpres.smith_normal_form(spec["matrix"]),
            lambda spec, ans: list(ans)),
    "h1": (_unchanged, lambda spec: knotpres.h1(knotpres.parse(spec["text"])),
           lambda spec, ans: [ans.free_rank, list(ans.torsion)]),
    "recognize": (_prepare_recognize, _call_recognize,
                  lambda spec, ans: {"verdict": ans.verdict,
                                     "evidence": json.dumps(ans.evidence, sort_keys=True)}),
}


class Runner:
    """Makes passes over the call list.  Pass one's answers go to a file as
    JSON lines, so they do not count towards the worker's peak RSS; later
    passes keep only digests, which must match pass one's."""

    def __init__(self, calls, answers_path):
        self.calls = calls
        self.answers_path = answers_path
        self.digests = None
        self.repeats = [1] * len(calls)  # set from pass one's latencies
        self.errors = {}  # call index -> first error text
        self.error_counts = Counter()  # call index -> attempts that raised
        self.mismatches = 0  # later-pass answers differing from pass one

    def _fail(self, i, message):
        self.errors.setdefault(i, message)
        self.error_counts[i] += 1

    def one_pass(self, tracer=None):
        """One pass over the calls; returns each call's latency in seconds,
        as measured and scaled, None where the call could not be made."""
        first = self.digests is None
        sink = open(self.answers_path, "w") if first else None
        outputs = [None] * len(self.calls)
        digests = [None] * len(self.calls)
        latencies = [None] * len(self.calls)
        loops = [None] * (len(self.calls) + 1)  # loop time taken before call i
        last = -CALIBRATE_EVERY_S
        try:
            for i, spec in enumerate(self.calls):
                prepare, call, summarize = OPS[spec["op"]]
                try:
                    args = prepare(spec, outputs)
                except Exception as exc:  # the piped input of a failed call
                    self._fail(i, "prepare: %r" % (exc,))
                    args = ans = exc
                if not isinstance(args, Exception):
                    gc.collect()
                    if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                        loops[i] = calibrate()
                        last = time.perf_counter()
                    repeats = 1 if tracer else self.repeats[i]
                    root = tracer.begin_call() if tracer else None
                    t0 = time.perf_counter()
                    try:
                        for _ in range(repeats):
                            ans = call(args)
                    except Exception as exc:  # a failed call, never dropped
                        ans = exc
                    dt = (time.perf_counter() - t0) / repeats
                    if tracer:
                        tracer.close(root)
                    latencies[i] = dt
                    if isinstance(ans, Exception):
                        self._fail(i, "raised %r" % (ans,))
                line = None
                if not isinstance(ans, Exception):
                    if spec["op"] == "cli":
                        outputs[i] = ans
                    line = json.dumps(summarize(spec, ans), sort_keys=True)
                    digests[i] = hashlib.sha1(line.encode()).hexdigest()
                if first:
                    sink.write((line or "null") + "\n")
                # Drop this call's answer now: a big table left alive would
                # slow the next call's garbage collection.
                ans = args = line = None
            loops[-1] = calibrate()
        finally:
            if sink:
                sink.close()
        before = [None] * len(self.calls)
        loop = None
        for i, t in enumerate(loops[:-1]):
            loop = before[i] = t or loop
        scaled = [None] * len(self.calls)
        after = loops[-1]
        for i in reversed(range(len(self.calls))):
            if latencies[i] is not None:
                scaled[i] = scale(latencies[i], before[i], after)
            after = loops[i] or after
        if first:
            self.digests = digests
            self.repeats = [1 if t is None else max(1, min(MAX_REPEATS, int(MIN_SAMPLE_S / t)))
                            for t in latencies]
        else:
            self.mismatches += sum(
                1 for a, b in zip(digests, self.digests) if a is not None and a != b)
        return latencies, scaled


def _kernel_parity(calls):
    """Compare the compiled kernel's tables with the pure kernel's on the
    small coset jobs, when the compiled kernel is importable."""
    try:
        from knotpres import _coset_speedup as fast
    except ImportError:
        return {"checked": 0, "mismatches": 0, "note": "compiled kernel not importable"}
    from knotpres import _coset_py as pure
    from knotpres.coset import _directions

    checked = mismatches = 0
    for spec in calls:
        if spec["op"] not in ("order", "enumerate_cosets") or not spec.get("rows"):
            continue
        p = knotpres.parse(spec["text"])
        rels = [_directions(r) for r in p.relators]
        subs = [_directions(p.word(t)) for t in spec.get("subgroup", ())]
        a = pure.run(len(p.generators), rels, subs, spec["budget"])
        b = fast.run(len(p.generators), rels, subs, spec["budget"])
        same = a[0] == b[0] and a[1] == b[1] and (
            not a[0] or [list(r) for r in a[2]] == [list(r) for r in b[2]])
        checked += 1
        mismatches += not same
    return {"checked": checked, "mismatches": mismatches}


def main():
    job = json.load(sys.stdin)
    if "--setup-only" in sys.argv:
        raw, scaled = setup(job["workload"])
        json.dump({"setup_s": scaled, "setup_raw_s": raw}, sys.stdout)
        return
    setup_raw_s, setup_s = setup(job["workload"])
    runner = Runner(job["calls"], job["answers_path"])
    # Every call starts from the same collector state: the harness's and the
    # modules' objects are frozen out of collection, and a collection before
    # each call (untimed) clears what earlier calls left, so a call's time
    # does not depend on which calls ran before it.
    gc.freeze()
    # Pass one writes the answers and sets each call's repeat count; its
    # times are not used.
    runner.one_pass()
    seconds = job["seconds"]
    start = time.perf_counter()
    untraced, traced, layers = [], [], []
    raw_walls = {"untraced": [], "traced": []}

    def measured(kind, pair):
        """Keep the scaled latencies and the measured pass time."""
        raw_walls[kind].append(sum(t for t in pair[0] if t is not None))
        return pair[1]

    if not job["trace"]:
        while len(untraced) < MIN_PASSES or time.perf_counter() - start < seconds:
            untraced.append(measured("untraced", runner.one_pass()))
    else:
        # Untraced and traced passes alternate, so the overhead ratio
        # compares passes made under the same conditions.
        import tracing

        tracer = tracing.Tracer()
        kept = None
        while True:
            untraced.append(measured("untraced", runner.one_pass()))
            if traced and time.perf_counter() - start >= seconds:
                break
            tracer.reset()
            tracer.install()
            try:
                traced.append(measured("traced", runner.one_pass(tracer)))
            finally:
                tracer.uninstall()
            layers.append({"layers": tracer.summary(), "counts": dict(tracer.counts)})
            if kept is None:
                kept = (tracer.names, tracer.spans)
            if time.perf_counter() - start >= seconds:
                break
        _write_spans(job["spans_path"], *kept)
    parity = _kernel_parity(job["calls"]) if job["workload"] == "coset_enum" else None
    json.dump({
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "raw_pass_walls": raw_walls,
        "backend": knotpres.BACKEND,
        "untraced": untraced,
        "traced": traced,
        "errors": {str(k): v for k, v in runner.errors.items()},
        "error_counts": {str(k): v for k, v in runner.error_counts.items()},
        "mismatches": runner.mismatches,
        "passes": 1 + len(untraced) + len(traced),
        "layers": layers,
        "parity": parity,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, sys.stdout)


def _write_spans(path, names, spans):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for nid, start, end, parent, call_id in spans:
            fh.write(json.dumps([names[nid], start, end, parent, call_id]) + "\n")


if __name__ == "__main__":
    main()
