"""Spans around the calls into each viewgraph module, recorded from outside.

The tracer replaces a function with a timing wrapper at every place a caller
looks it up. ``from .x import y`` binds ``y`` in the importing module when it
is imported, so wrapping ``viewgraph.x.y`` alone would miss those callers:
each binding site is listed in ``BINDINGS``. Spans (name, start, end, parent)
are kept in memory in flat arrays; a span's self time is its duration minus
the durations of its direct children (the program is single-threaded, so
children never overlap). A binding that no longer exists after a refactor
is noted, and every metric that depends on it is reported as absent.
"""

import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name): every site where a traced function is bound.
BINDINGS = (
    ("viewgraph.cli", "main", "cli.main"),
    ("viewgraph.dataio", "load", "dataio.load"),
    ("viewgraph.dataio", "save", "dataio.save"),
    ("viewgraph.dataio", "build_view_graph", "geometry.build_view_graph"),
    ("viewgraph.geometry", "build_view_graph", "geometry.build_view_graph"),
    ("viewgraph.model", "embed", "semantics.embed"),
    ("viewgraph.model", "embed_backward", "semantics.embed_backward"),
    ("viewgraph.model", "all_cumulative_correlations", "correlation.forward"),
    ("viewgraph.model", "all_correlation_backward", "correlation.backward"),
    ("viewgraph.model", "attention_scores", "attention.forward"),
    ("viewgraph.model", "normalize_attention", "attention.forward"),
    ("viewgraph.model", "aggregate", "attention.forward"),
    ("viewgraph.model", "scores_backward", "attention.backward"),
    ("viewgraph.model", "aggregate_backward", "attention.backward"),
    ("viewgraph.model", "global_feature", "classifier.forward"),
    ("viewgraph.model", "classify", "classifier.forward"),
    ("viewgraph.model", "classifier_backward", "classifier.backward"),
    ("viewgraph.model", "forward", "model.forward"),
    ("viewgraph.trainer", "forward", "model.forward"),
    ("viewgraph.cli", "forward", "model.forward"),
    ("viewgraph.evalmetrics", "forward", "model.forward"),
    ("viewgraph.model", "backward", "model.backward"),
    ("viewgraph.trainer", "backward", "model.backward"),
    ("viewgraph.model", "sample_loss", "model.loss"),
    ("viewgraph.trainer", "sample_loss", "model.loss"),
    ("viewgraph.trainer", "init_model", "model.init"),
    ("viewgraph.model", "save_checkpoint", "model.checkpoint_save"),
    ("viewgraph.cli", "save_checkpoint", "model.checkpoint_save"),
    ("viewgraph.model", "load_checkpoint", "model.checkpoint_load"),
    ("viewgraph.cli", "load_checkpoint", "model.checkpoint_load"),
    ("viewgraph.trainer", "train", "trainer.train"),
    ("viewgraph.evalmetrics", "distance_matrix", "evalmetrics.distance"),
    ("viewgraph.evalmetrics", "rank_gallery", "evalmetrics.rank"),
    ("viewgraph.evalmetrics", "average_precision", "evalmetrics.ap"),
    ("viewgraph.evalmetrics", "shrec_metrics", "evalmetrics.report"),
    ("viewgraph.evalmetrics", "pr_curve", "evalmetrics.pr_curve"),
)

# Spans whose returned arrays are sized: the computed gradient bytes.
SIZED = ("classifier.backward", "model.backward")

FORWARD_PARTS = ("semantics.embed", "correlation.forward", "attention.forward",
                 "classifier.forward")
BACKWARD_PARTS = ("semantics.embed_backward", "correlation.backward",
                  "attention.backward", "classifier.backward")


def nbytes(obj) -> int:
    """Bytes of every array in a (nested) return value."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(nbytes(o) for o in obj)
    if hasattr(obj, "__dict__"):
        return sum(nbytes(v) for v in vars(obj).values())
    return 0


class Tracer:
    """Installs the wrappers for one traced stretch and summarises its spans."""

    def __init__(self):
        self.names = []
        self.span_name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.sized_bytes = defaultdict(int)
        self.missing = set()
        self.enabled = True
        self._installed = []

    def _wrap(self, fn, name):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, clock, sized = self.stack, time.perf_counter, name in SIZED

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if sized:
                self.sized_bytes[name] += nbytes(out)
            return out

        return traced

    def install(self) -> None:
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    @contextmanager
    def recording(self):
        """Record spans inside the block; the program is untouched outside it."""
        for arr in (self.span_name, self.parent, self.start, self.end):
            del arr[:]
        self.sized_bytes.clear()
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        """Run untimed work inside a traced stretch without recording it."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def summary(self) -> dict:
        """{span name: {"calls", "total_s", "self_s", "mb", "nested_calls"}}.

        ``nested_calls`` counts the calls made from inside another span,
        that is by the program rather than by the benchmark's own code.
        """
        names = np.frombuffer(self.span_name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        nested = np.bincount(names[inner], minlength=width)
        total = np.bincount(names, weights=dur, minlength=width)
        own = np.bincount(names, weights=dur - child, minlength=width)
        return {
            name: {
                "calls": int(calls[i]),
                "nested_calls": int(nested[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
                "mb": self.sized_bytes.get(name, 0) / 1e6,
            }
            for i, name in enumerate(self.names)
        }


def _get(stat, field):
    return lambda s: s[stat][field]


def _self_frac(s):
    total = s["trainer.train"]["total_s"]
    return s["trainer.train"]["self_s"] / total if total else 0.0


def _rank_useful(s):
    # Rank calls made inside the program serve the retrieve reports; the
    # benchmark's own single-query rankings are not nested in any span.
    nested = s["evalmetrics.rank"]["nested_calls"]
    return s["retrieve_reports"] / nested if nested else None


# Per-layer metric: (unit, better, value from a unit's summary, spans it needs).
LAYER_METRICS = {
    "dataio.load_s": ("s", "lower", _get("dataio.load", "total_s"), ("dataio.load",)),
    "geometry.graph_calls": ("count", "lower",
                             _get("geometry.build_view_graph", "calls"),
                             ("geometry.build_view_graph",)),
    "geometry.graph_s": ("s", "lower", _get("geometry.build_view_graph", "total_s"),
                         ("geometry.build_view_graph",)),
    "semantics.embed_s": ("s", "lower", _get("semantics.embed", "total_s"),
                          ("semantics.embed",)),
    "semantics.embed_backward_s": ("s", "lower",
                                   _get("semantics.embed_backward", "total_s"),
                                   ("semantics.embed_backward",)),
    "correlation.forward_s": ("s", "lower", _get("correlation.forward", "total_s"),
                              ("correlation.forward",)),
    "correlation.backward_s": ("s", "lower", _get("correlation.backward", "total_s"),
                               ("correlation.backward",)),
    "attention.forward_s": ("s", "lower", _get("attention.forward", "total_s"),
                            ("attention.forward",)),
    "attention.backward_s": ("s", "lower", _get("attention.backward", "total_s"),
                             ("attention.backward",)),
    "classifier.forward_s": ("s", "lower", _get("classifier.forward", "total_s"),
                             ("classifier.forward",)),
    "classifier.backward_s": ("s", "lower", _get("classifier.backward", "total_s"),
                              ("classifier.backward",)),
    "classifier.grad_mb": ("MB", "lower", _get("classifier.backward", "mb"),
                           ("classifier.backward",)),
    "model.forward_calls": ("count", "lower", _get("model.forward", "calls"),
                            ("model.forward",)),
    "model.forward_s": ("s", "lower", _get("model.forward", "total_s"), ("model.forward",)),
    "model.forward_self_s": ("s", "lower", _get("model.forward", "self_s"),
                             ("model.forward",) + FORWARD_PARTS),
    "model.backward_s": ("s", "lower", _get("model.backward", "total_s"),
                         ("model.backward",)),
    "model.backward_self_s": ("s", "lower", _get("model.backward", "self_s"),
                              ("model.backward",) + BACKWARD_PARTS),
    "model.grad_mb": ("MB", "lower", _get("model.backward", "mb"), ("model.backward",)),
    "model.checkpoint_save_s": ("s", "lower", _get("model.checkpoint_save", "total_s"),
                                ("model.checkpoint_save",)),
    "model.checkpoint_load_s": ("s", "lower", _get("model.checkpoint_load", "total_s"),
                                ("model.checkpoint_load",)),
    "trainer.train_s": ("s", "lower", _get("trainer.train", "total_s"), ("trainer.train",)),
    "trainer.self_s": ("s", "lower", _get("trainer.train", "self_s"),
                       ("trainer.train", "model.forward", "model.backward", "model.loss",
                        "model.init")),
    "trainer.self_frac": ("fraction", "lower", _self_frac,
                          ("trainer.train", "model.forward", "model.backward",
                           "model.loss", "model.init")),
    "evalmetrics.distance_s": ("s", "lower", _get("evalmetrics.distance", "total_s"),
                               ("evalmetrics.distance",)),
    "evalmetrics.rank_s": ("s", "lower", _get("evalmetrics.rank", "self_s"),
                           ("evalmetrics.rank", "evalmetrics.distance")),
    "evalmetrics.rank_calls": ("count", "lower", _get("evalmetrics.rank", "calls"),
                               ("evalmetrics.rank",)),
    "evalmetrics.rank_useful_frac": ("fraction", "higher", _rank_useful,
                                     ("evalmetrics.rank",)),
    "evalmetrics.ap_s": ("s", "lower", _get("evalmetrics.ap", "total_s"),
                         ("evalmetrics.ap",)),
    "evalmetrics.report_self_s": ("s", "lower", _get("evalmetrics.report", "self_s"),
                                  ("evalmetrics.report", "evalmetrics.rank",
                                   "evalmetrics.ap")),
    "evalmetrics.pr_curve_self_s": ("s", "lower", _get("evalmetrics.pr_curve", "self_s"),
                                    ("evalmetrics.pr_curve", "evalmetrics.rank")),
    "cli.self_s": ("s", "lower", _get("cli.main", "self_s"),
                   ("cli.main", "dataio.load", "model.checkpoint_load",
                    "model.checkpoint_save", "trainer.train", "model.forward",
                    "model.loss", "evalmetrics.report", "evalmetrics.pr_curve")),
}

EMPTY = {"calls": 0, "nested_calls": 0, "total_s": 0.0, "self_s": 0.0, "mb": 0.0}


def layer_metrics(summaries: list, missing: set, retrieve_reports: int) -> dict:
    """Per-layer metrics, each the mean over the traced units' summaries.

    ``retrieve_reports`` is the number of retrieve reports one unit makes.
    """
    out = {}
    for metric, (unit, _, value, needs) in LAYER_METRICS.items():
        if missing.intersection(needs):
            continue
        values = []
        for summary in summaries:
            stats = defaultdict(lambda: EMPTY, summary)
            stats["retrieve_reports"] = retrieve_reports
            values.append(value(stats))
        if any(v is None for v in values):
            continue
        out[metric] = {"value": float(np.mean(values)), "unit": unit}
    return out
