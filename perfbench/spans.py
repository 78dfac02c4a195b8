"""In-memory span tracing around the program's public layer functions.

``Tracer.installed()`` swaps each function the pipeline looks up (and the
model base-class methods) for a wrapper that records a span: name, parent
span, start, end and the benchmark phase it ran in. The originals are put
back on exit. Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

from cardiofuse import fusion, metrics, pipeline
from cardiofuse.models.base import ProbabilisticClassifier

# model kind -> layer name used in metric names
MODEL_LAYER = {"LR": "logistic", "SVM": "svm", "DT": "tree", "RF": "forest",
               "ANN": "mlp", "ADA": "adaboost"}

# (module, attribute looked up at call time, span name)
FUNCTION_SPANS = [
    (pipeline, "load_csv", "dataset.load"),
    (pipeline, "impute_most_frequent", "preprocess.impute"),
    (pipeline, "encode_labels", "preprocess.encode"),
    (pipeline, "derive_task", "preprocess.derive"),
    (pipeline, "split", "preprocess.split"),
    (pipeline, "random_oversample", "preprocess.oversample"),
    (pipeline, "fit_scaler", "preprocess.scale"),
    (pipeline, "apply_scaler", "preprocess.scale"),
    (fusion, "grid_search", "fusion.grid_search"),
    (fusion, "fuse", "fusion.fuse"),
    (metrics, "confusion", "metrics.confusion"),
    (metrics, "scalar_metrics", "metrics.scalar"),
    (metrics, "roc_auc", "metrics.roc_auc"),
    (pipeline, "emit_report", "pipeline.emit"),
]

# base-class method -> span suffix; the span is keyed on the model's kind
METHOD_SPANS = {"fit": "fit", "predict_proba": "score", "to_dict": "save"}


def span_of(tracer):
    """The span context manager of ``tracer``, or one that records nothing."""
    return tracer.span if tracer is not None else (lambda name: nullcontext())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent index, start, end, phase]
        self.phase = "setup"
        self.fits: list[tuple] = []   # (model, X, y) of every fit, for counters
        self._stack: list[int] = []
        self._paused = False

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own bookkeeping)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextmanager
    def span(self, name: str):
        if self._paused:
            yield
            return
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), None, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _wrap_function(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _wrap_method(self, fn, suffix):
        def traced(model, *args, **kwargs):
            with self.span(f"models.{MODEL_LAYER[model.kind]}.{suffix}"):
                out = fn(model, *args, **kwargs)
            if suffix == "fit" and not self._paused:
                self.fits.append((model, args[0], args[1]))
            return out
        return traced

    def _wrap_from_dict(self, fn):
        def traced(doc):
            with self.span(f"models.{MODEL_LAYER[doc['kind']]}.load"):
                return fn(doc)
        return staticmethod(traced)

    @contextmanager
    def installed(self):
        """Wrap every traced layer function for the duration of the block."""
        saved = []
        for module, attr, name in FUNCTION_SPANS:
            saved.append((module, attr, module.__dict__[attr]))
        for attr in (*METHOD_SPANS, "from_dict"):
            saved.append((ProbabilisticClassifier, attr,
                          ProbabilisticClassifier.__dict__[attr]))
        try:
            for module, attr, name in FUNCTION_SPANS:
                setattr(module, attr, self._wrap_function(getattr(module, attr), name))
            for attr, suffix in METHOD_SPANS.items():
                setattr(ProbabilisticClassifier, attr,
                        self._wrap_method(ProbabilisticClassifier.__dict__[attr], suffix))
            ProbabilisticClassifier.from_dict = self._wrap_from_dict(
                ProbabilisticClassifier.__dict__["from_dict"].__func__)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def seconds_per(self, n_ops: int, n_setups: int) -> dict[str, float]:
        """Time in each span name per timed operation.

        A name that never ran in the timed phase reports its set-up time per
        set-up instead, so layers that run only in set-up still show.
        """
        run, setup = {}, {}
        for name, _, start, end, phase in self.spans:
            bucket = run if phase == "run" else setup
            bucket[name] = bucket.get(name, 0.0) + (end - start)
        out = {name: total / n_setups for name, total in setup.items()}
        out.update({name: total / n_ops for name, total in run.items()})
        return out

    def self_seconds_per_op(self, name: str, n_ops: int) -> float:
        own = self.self_times()
        return sum(t for rec, t in zip(self.spans, own)
                   if rec[0] == name and rec[4] == "run") / n_ops

    def write(self, path, extra: dict):
        own = self.self_times()
        doc = dict(extra)
        doc["span_fields"] = ["name", "parent", "start_s", "end_s", "phase", "self_s"]
        doc["spans"] = [[name, parent, start, end, phase, s]
                        for (name, parent, start, end, phase), s in zip(self.spans, own)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
