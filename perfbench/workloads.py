"""The benchmark's workloads: desk-scale experiments and cohort scoring.

A workload has a set-up, then runs rounds of operations, at least
``min_rounds`` of them. ``round(r)`` returns the operations of round ``r``;
each returns a result that ``check`` verifies against independent
computations and, when traced, that ``count`` turns into work counts (first
round only, so counts repeat exactly for a seed whatever the run length).
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from functools import partial
from itertools import combinations

import numpy as np

from cardiofuse import fusion, metrics, pipeline
from cardiofuse.dataset import bundled_data_path
from cardiofuse.hyperparams import SCALER_FOR, defaults_for
from cardiofuse.models import MODEL_KINDS, make_model
from cardiofuse.models.base import ProbabilisticClassifier
from cardiofuse.preprocess import SplitSpec, TaskKind

from perfbench import checks, counters
from perfbench.spans import MODEL_LAYER, span_of

# the paper's 70:30 and 80:20 splits
SPLITS = (0.3, 0.2)
# master seeds of workload seed s are s*SEED_STRIDE, s*SEED_STRIDE + 1, ...
SEED_STRIDE = 1000
# cohort-scoring: rows drawn with replacement from the 303-row table
COHORT_ROWS = 20_000
COHORT_SPLIT = 0.2


def run_and_emit(config, report_dir, tracer=None):
    """One experiment as a user runs it: run_experiment, then emit_report.

    Returns the RunReport, the bytes of report.json and the number of
    Python warnings raised.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with span_of(tracer)("pipeline.run"):
            report = pipeline.run_experiment(config)
        pipeline.emit_report(report, report_dir)
    with open(os.path.join(report_dir, "report.json"), "rb") as fh:
        blob = fh.read()
    return report, blob, len(caught)


def _model_counts(tracer) -> dict:
    """Work counts and SVM optimality of the fits the tracer saw, then forget them."""
    out = {"models": {}, "svm": []}
    with tracer.paused():
        for model, X, y in tracer.fits:
            for name, value in counters.model_counts(model.to_dict()).items():
                out["models"][name] = out["models"].get(name, 0) + value
            if model.kind == "SVM":
                out["svm"].extend(counters.svm_optimality(model, X, y))
    tracer.fits.clear()
    return out


class Desk:
    """run_experiment + emit_report at both paper splits over consecutive
    master seeds, with the task's default fusion pairs."""

    def __init__(self, task, seed, report_dir, tracer=None):
        self.task = task
        self.seed = seed
        # a five-class round (two experiments, ~30 s) outlasts a run and its
        # cost varies by master seed, so every run averages two rounds
        self.min_rounds = 2 if task == "multiclass" else 1
        self.report_dir = report_dir
        self.tracer = tracer
        self.records = []   # per-experiment counts of the first round

    def setup(self):
        labels = checks.table_labels(bundled_data_path())
        self.counts = checks.class_counts(labels, self.task)

    def round(self, r):
        master = self.seed * SEED_STRIDE + r
        return [partial(self.experiment, master, frac) for frac in SPLITS]

    def experiment(self, master, frac):
        config = pipeline.RunConfig(task=self.task, test_fraction=frac,
                                    master_seed=master)
        return run_and_emit(config, self.report_dir, self.tracer)

    def check(self, result):
        report, blob, _ = result
        checks.check_run_report(report, self.counts)
        doc = json.loads(blob)
        if doc["truth"] != report.truth.tolist():
            raise checks.CheckFailed("report.json truth differs from the run's")
        for name, f in report.fusions.items():
            if doc["fusions"][name]["weights"] != [f["weights"].w1, f["weights"].w2]:
                raise checks.CheckFailed(f"report.json weights of {name} differ")

    def count(self, result):
        report, blob, n_warnings = result
        cfg = report.config
        n_train = sum(self.counts) - len(report.truth)
        rec = {
            "master_seed": cfg.master_seed,
            "test_fraction": cfg.test_fraction,
            "report_sha256": hashlib.sha256(blob).hexdigest(),
            "pipeline.report_bytes": len(blob),
            "pipeline.warnings": n_warnings,
            "preprocess.oversample_rows": report.preprocessing["train_rows"] - n_train,
            "fusion.grid_points": sum(len(f["sweep"]) for f in report.fusions.values()),
        }
        rec.update(_model_counts(self.tracer))
        self.records.append(rec)


class CohortScoring:
    """Six binary models fitted once; each pass round-trips them through JSON,
    scores a large resampled cohort and fuses and evaluates all 15 pairs."""

    min_rounds = 1

    def __init__(self, seed, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.records = []

    def setup(self):
        master = self.seed
        table = pipeline.load_csv(bundled_data_path())
        table = pipeline.impute_most_frequent(table)
        table, _ = pipeline.encode_labels(table)
        table = pipeline.derive_task(table, TaskKind("binary"))
        spec = SplitSpec(COHORT_SPLIT, pipeline.child_seed(master, "split"), True)
        train, test = pipeline.split(table, spec)
        counts = checks.class_counts(checks.table_labels(bundled_data_path()), "binary")
        checks.check_split(counts, COHORT_SPLIT, test.labels, train.n_rows, False)

        rng = np.random.default_rng(self.seed)
        self.source = rng.integers(0, table.n_rows, size=COHORT_ROWS)
        self.labels = table.labels[self.source]
        defaults = defaults_for("binary", COHORT_SPLIT)
        self.models, self.cohort, self.reference = {}, {}, {}
        for kind in MODEL_KINDS:
            hp = defaults[kind]
            if kind in ("DT", "RF", "ANN"):
                hp["seed"] = pipeline.child_seed(master, "train", kind)
            scaler = pipeline.fit_scaler(train.rows, SCALER_FOR[kind])
            model = make_model(kind, **hp)
            model.class_count_ = 2
            model.fit(pipeline.apply_scaler(scaler, train.rows), train.labels)
            table_X = pipeline.apply_scaler(scaler, table.rows)
            table_scores = model.predict_proba(table_X)
            checks.check_scores(table_scores, table.n_rows, 2, f"{kind} table scores")
            self.cohort[kind] = table_X[self.source]
            self.reference[kind] = model.predict_proba(self.cohort[kind])
            checks.check_cohort_rows(self.reference[kind], table_scores, self.source, kind)
            self.models[kind] = model
        if self.tracer is not None:
            self.setup_counts = _model_counts(self.tracer)

    def round(self, r):
        return [self.score_pass]

    def score_pass(self):
        texts, scores = {}, {}
        for kind, model in self.models.items():
            texts[kind] = json.dumps(model.to_dict())
            loaded = ProbabilisticClassifier.from_dict(json.loads(texts[kind]))
            scores[kind] = loaded.predict_proba(self.cohort[kind])
        evaluated = {}
        for a, b in combinations(MODEL_KINDS, 2):
            sel = fusion.grid_search(scores[a], scores[b], self.labels)
            fused = sel.fused.scores
            cm = metrics.confusion(self.labels, fusion.decide(fused), 2)
            scalars = metrics.scalar_metrics(cm, "macro")
            auc, _ = metrics.roc_auc(self.labels, fused)
            evaluated[(a, b)] = (sel, cm.counts, scalars, auc)
        return texts, scores, evaluated

    def check(self, result):
        _, scores, evaluated = result
        for kind, s in scores.items():
            if not np.array_equal(s, self.reference[kind]):
                raise checks.CheckFailed(
                    f"{kind} reloaded from its document scores differently")
        for (a, b), (sel, cm, scalars, auc) in evaluated.items():
            sweep = [(w.w1, w.w2, acc) for w, acc in sel.sweep]
            checks.check_fusion(scores[a], scores[b], self.labels,
                                (sel.weights.w1, sel.weights.w2), sweep,
                                (cm, scalars, auc), "macro", f"{a}+{b}")

    def count(self, result):
        texts, _, evaluated = result
        rec = {f"models.{MODEL_LAYER[kind]}.doc_bytes": len(text.encode())
               for kind, text in texts.items()}
        rec["fusion.grid_points"] = sum(len(sel.sweep) for sel, *_ in evaluated.values())
        rec.update(self.setup_counts)
        self.records.append(rec)
