"""Span tracing of knotpres's public functions, installed from outside.

install() rebinds each wrapped function in every knotpres module namespace
that holds it, since gadgets, recognize and cli import by name.  A span is
(name, start, end, parent, call id) and lives in memory until the run ends;
self time is a span's duration minus the time its child spans cover.
Generator functions get one span per resumption, so a stream's self time
excludes the consumer's work between items.
"""

import inspect
import sys
import time
import types
from collections import Counter

# (module, attribute) -> span name; the attribute is a function or a generator
# function in that module.
FUNCTIONS = [
    ("cli", "main"),
    ("presentations", "parse"),
    ("presentations", "tietze_neighbors"),
    ("presentations", "is_freely_related"),
    ("coset", "enumerate_cosets"),
    ("coset", "order"),
    ("coset", "is_trivial_bounded"),
    ("coset", "word_is_trivial_in_finite"),
    ("coset", "weight_one_witness_check"),
    ("gadgets", "perfect_embed"),
    ("gadgets", "k3_embed"),
    ("gadgets", "k3_minus_k2"),
    ("gadgets", "s_minus_k3"),
    ("gadgets", "m_minus_s"),
    ("gadgets", "weight_gadget"),
    ("gadgets", "homology_gadget"),
    ("gadgets", "whitehead_gadget"),
    ("abelian", "smith_normal_form"),
    ("abelian", "invariant_factors"),
    ("abelian", "h1"),
    ("foldings", "fold"),
    ("foldings", "contains"),
    ("foldings", "rank"),
    ("foldings", "is_basis"),
    ("recognize", "is_wirtinger"),
    ("recognize", "artin_check"),
    ("recognize", "two_knot_check"),
    ("recognize", "kervaire_report"),
    ("recognize", "enumerate_weight_one"),
]
KERNEL = "coset.kernel"
TABLE = "coset.table"
SPAN_NAMES = ["%s.%s" % f for f in FUNCTIONS] + [KERNEL, TABLE]
COUNTERS = [
    "coset.cosets_returned",
    "coset.cosets_used",
    "coset.exhausted",
    "coset.table_cells",
    "presentations.neighbors",
    "presentations.presentation_inits",
    "words.word_inits",
    "foldings.vertices",
]
ROOT = "bench.call"


class Tracer:
    def __init__(self):
        self.names = [ROOT] + SPAN_NAMES
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.spans = []
        self.stack = []
        self.call_id = 0
        self.counts = Counter()
        self._undo = []

    # ------------------------------------------------------------ spans

    def open(self, nid):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent, self.call_id])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def begin_call(self):
        self.call_id += 1
        return self.open(0)

    def summary(self):
        """Per-span-name calls and self seconds, over the spans so far."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for i, (nid, start, end, _, _) in enumerate(self.spans):
            calls[nid] += 1
            self_s[nid] += end - start - child[i]
        return {
            self.names[nid]: {"calls": calls[nid], "self_s": self_s[nid]}
            for nid in range(len(self.names))
        }

    def reset(self):
        self.spans = []
        self.counts.clear()

    # ---------------------------------------------------------- install

    def _rebind(self, orig, wrapper):
        for mod in [m for name, m in sys.modules.items()
                    if name == "knotpres" or name.startswith("knotpres.")]:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def _patch(self, owner, key, wrapper):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _function(self, orig, name, on_result=None):
        nid = self._ids[name]
        open_, close = self.open, self.close
        if inspect.isgeneratorfunction(orig):
            on_item = on_result

            def resumed(gen):
                while True:
                    idx = open_(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    if on_item is not None:
                        on_item(item)
                    yield item

            def wrapper(*args, **kwargs):
                return resumed(orig(*args, **kwargs))
        else:

            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    close(idx)
                if on_result is not None:
                    on_result(result)
                return result

        return wrapper

    def install(self):
        import knotpres.coset as coset
        import knotpres.presentations as presentations
        import knotpres.words as words

        counts = self.counts
        hooks = {
            "presentations.tietze_neighbors":
                lambda item: counts.update(("presentations.neighbors",)),
            "foldings.fold":
                lambda graph: counts.update({"foldings.vertices": len(graph.parent)}),
        }
        for modname, attr in FUNCTIONS:
            mod = sys.modules["knotpres." + modname]
            orig = getattr(mod, attr)
            name = "%s.%s" % (modname, attr)
            self._rebind(orig, self._function(orig, name, hooks.get(name)))

        def kernel_result(res):
            closed, count, _ = res
            counts["coset.cosets_used"] += count
            if closed:
                counts["coset.cosets_returned"] += count
            else:
                counts["coset.exhausted"] += 1

        kernel = coset._kernel
        proxy = types.SimpleNamespace(
            run=self._function(kernel.run, KERNEL, kernel_result))
        self._patch(coset, "_kernel", proxy)

        table_init = self._function(coset.CosetTable.__init__, TABLE)

        def init_table(table, num_gens, rows):
            table_init(table, num_gens, rows)
            counts["coset.table_cells"] += len(table.rows) * 2 * num_gens

        self._patch(coset.CosetTable, "__init__", init_table)

        for cls, counter in ((presentations.Presentation, "presentations.presentation_inits"),
                             (words.Word, "words.word_inits")):
            self._patch(cls, "__init__", _counting(cls.__init__, counts, counter))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)


def _counting(init, counts, key):
    def wrapper(self, *args, **kwargs):
        counts[key] += 1
        init(self, *args, **kwargs)

    return wrapper
