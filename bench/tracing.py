"""In-memory span tracing of the cssnmf layers, installed by patching.

Each traced call into a public function of ``cssnmf.model``, ``cssnmf.sweep``,
``cssnmf.text`` or ``cssnmf.io`` becomes one span: name, start, end, parent
span and run id.  Calls into ``cssnmf.linalg`` are leaves; they are found as
the functions that ``cssnmf.model``, ``cssnmf.sweep`` and ``cssnmf.cli``
import from it (by ``__module__``, so a renamed or added kernel is still
timed) and are aggregated per parent span as a call count and total time,
which keeps memory bounded at hundreds of thousands of kernel calls.

Patching replaces every module attribute in the ``cssnmf`` package that *is*
one of the traced functions, so intra-module calls (``model._fit_once``
calling ``update_w``) and aliased imports (``cli.fit_model``) are both
covered.  ``uninstall`` puts the originals back.
"""

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("model", "sweep", "text", "io")
# Modules whose imports from cssnmf.linalg are timed as kernel calls.
LINALG_CALLERS = ("model", "sweep", "cli")
# Called once per value written; a span per call would swamp the run it
# measures, and its cost is inside the io spans that call it.
SKIP = {"io.format_float"}
UPDATE_FUNCTIONS = ("model.update_w", "model.update_h", "model.update_theta")


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, run, raised]
        self.leaves = {}     # (parent, name) -> [calls, seconds]
        self.counters = {}   # run -> {counter name: value}
        self._stack = []
        self.run = 0
        self._patches = []

    def _parent(self):
        return self._stack[-1] if self._stack else -1

    def count(self, name, value, add=True):
        bucket = self.counters.setdefault(self.run, {})
        bucket[name] = bucket.get(name, 0) + value if add else value

    @contextlib.contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None, self._parent(), self.run, False]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except BaseException:
            record[5] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, leaf, observe):
        if leaf:
            @functools.wraps(fn)
            def traced_leaf(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    agg = self.leaves.setdefault((self._parent(), name), [0, 0.0])
                    agg[0] += 1
                    agg[1] += time.perf_counter() - start
            return traced_leaf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def install(self):
        """Patch every traced function throughout the cssnmf package."""
        wrappers = {}
        for fn, (name, leaf) in _targets().items():
            wrappers[fn] = self._wrap(name, fn, leaf, OBSERVERS.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "cssnmf" and not modname.startswith("cssnmf."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches = []

    def write(self, path):
        """Write spans and aggregated leaf calls as CSV, times relative to
        the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("kind,id,run,parent,name,start_s,end_s,raised,calls\n")
            for i, (name, start, end, parent, run, raised) in enumerate(self.spans):
                fh.write(f"span,{i},{run},{parent},{name},{start - t0:.9f},"
                         f"{end - t0:.9f},{int(raised)},1\n")
            for (parent, name), (calls, secs) in self.leaves.items():
                run = self.spans[parent][4] if parent >= 0 else -1
                fh.write(f"leaf,,{run},{parent},{name},,{secs:.9f},0,{calls}\n")


def _targets():
    """Map each traced function to ``(span name, is_leaf)``."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"cssnmf.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            name = f"{layer}.{attr}"
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name not in SKIP:
                out[fn] = (name, False)
    for caller in LINALG_CALLERS:
        mod = importlib.import_module(f"cssnmf.{caller}")
        for value in vars(mod).values():
            if inspect.isfunction(value) and value.__module__ == "cssnmf.linalg":
                out[value] = (f"linalg.{value.__name__}", True)
    return out


def _observe_tfidf(tracer, args, dtm):
    tracer.count("text.X_density", float(np.count_nonzero(dtm.X)) / dtm.X.size, add=False)
    tracer.count("text.vocab_terms", len(dtm.vocab), add=False)


def _observe_written(tracer, args, result):
    tracer.count("io.bytes_written", os.path.getsize(args[0]))


def _observe_read(tracer, args, result):
    tracer.count("io.bytes_read", os.path.getsize(args[0]))


def _observe_sweep(tracer, args, cells):
    tracer.count("sweep.cells", len(cells))
    tracer.count("sweep.cells_failed", sum(1 for c in cells if not c.ok))


OBSERVERS = {
    "text.build_tfidf": _observe_tfidf,
    "io.save_matrix_csv": _observe_written,
    "io.save_vector_csv": _observe_written,
    "io.load_matrix_csv": _observe_read,
    "sweep.run_sweep": _observe_sweep,
}


def run_metrics(tracer, run):
    """Per-layer metrics of one traced run of a workload."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == run]
    # The commands' spans: they hold every other span of the run.
    wall = sum(end - start for _, (name, start, end, *_) in spans if name.startswith("cli."))
    in_run = {i for i, _ in spans}
    child_time = {}
    in_sweep = {}
    for i, (name, start, end, parent, _, _) in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        in_sweep[i] = name == "sweep.run_sweep" or in_sweep.get(parent, False)
    linalg_calls, linalg_s = 0, 0.0
    for (parent, _), (calls, secs) in tracer.leaves.items():
        if parent in in_run:
            child_time[parent] = child_time.get(parent, 0.0) + secs
            linalg_calls += calls
            linalg_s += secs

    total, self_s, calls = {}, {}, {}
    layer_self = {}
    errors = 0
    predict_ms = []
    test_predict = 0.0
    for i, (name, start, end, parent, _, raised) in spans:
        dur = end - start
        own = dur - child_time.get(i, 0.0)
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if raised and name in UPDATE_FUNCTIONS:
            errors += 1
        if name == "model.predict":
            predict_ms.append(1e3 * dur)
            if in_sweep[i]:
                test_predict += dur

    def s(name):
        return total.get(name, 0.0)

    counters = tracer.counters.get(run, {})
    m = {
        "linalg.calls": linalg_calls,
        "linalg.s": linalg_s,
        "linalg.share": linalg_s / wall if wall > 0 else 0.0,
        "model.update_w.s": s("model.update_w"),
        "model.update_w.self_s": self_s.get("model.update_w", 0.0),
        "model.update_w.calls": calls.get("model.update_w", 0),
        "model.update_h.s": s("model.update_h"),
        "model.update_h.self_s": self_s.get("model.update_h", 0.0),
        "model.update_h.calls": calls.get("model.update_h", 0),
        "model.update_theta.s": s("model.update_theta"),
        "model.objective.s": s("model.objective"),
        "model.objective.calls": calls.get("model.objective", 0),
        "model.normalize.s": s("model.normalize"),
        "model.fit.s": s("model.fit"),
        "model.errors": errors,
        "model.predict.calls": calls.get("model.predict", 0),
        "model.predict.p50_ms": _percentile(predict_ms, 50),
        "model.predict.p99_ms": _percentile(predict_ms, 99),
        "model.load_model.s": s("model.load_model"),
        "sweep.run_sweep.s": s("sweep.run_sweep"),
        "sweep.cells": counters.get("sweep.cells", 0),
        "sweep.cells_failed": counters.get("sweep.cells_failed", 0),
        "sweep.test_predict.s": test_predict,
        "text.load_corpus.s": s("text.load_corpus"),
        "text.build_tfidf.s": s("text.build_tfidf"),
        "text.build_tfidf.self_s": self_s.get("text.build_tfidf", 0.0),
        "text.tokenize.s": s("text.tokenize"),
        "text.tokenize.calls": calls.get("text.tokenize", 0),
        "text.vectorize_new.s": s("text.vectorize_new"),
        "text.vectorize_new.calls": calls.get("text.vectorize_new", 0),
        "text.X_density": counters.get("text.X_density", 0.0),
        "text.vocab_terms": counters.get("text.vocab_terms", 0),
        "io.save_matrix_csv.s": s("io.save_matrix_csv"),
        "io.load_matrix_csv.s": s("io.load_matrix_csv"),
        "io.bytes_written": counters.get("io.bytes_written", 0),
        "io.bytes_read": counters.get("io.bytes_read", 0),
    }
    for layer in ("cli",) + LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return m


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0
