"""End-to-end experiment orchestration and report emission.

A run is fully determined by its RunConfig and master seed: load, impute,
encode, derive the task, split, oversample the training partition
(multiclass only), scale per algorithm, train the member models, fuse each
configured pair over the weight grid and evaluate everything. Reports are
written only when the whole run has succeeded.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fusion as fusion_mod
from . import metrics as metrics_mod
from .dataset import bundled_data_path, load_csv, load_schema_file
from .hyperparams import MULTICLASS_KINDS, SCALER_FOR, defaults_for
from .models import MODEL_KINDS, make_model, model_class
from .preprocess import (SplitSpec, TaskKind, apply_scaler, derive_task,
                         encode_labels, fit_scaler, impute_most_frequent,
                         random_oversample, split)

DEFAULT_PAIRS = {
    "binary": [("ANN", "RF"), ("SVM", "LR"), ("ADA", "DT")],
    "multiclass": [("LR", "RF"), ("SVM", "ANN"), ("ANN", "LR")],
}

# printed fusion accuracies from the source experiments, for validate
PAPER_FUSION_ACCURACY = {
    ("binary", 0.30, "ANN+RF"): 93.41,
    ("binary", 0.20, "ANN+RF"): 95.08,
    ("binary", 0.30, "SVM+LR"): 89.90,
    ("binary", 0.20, "SVM+LR"): 93.44,
    ("binary", 0.30, "ADA+DT"): 92.31,
    ("binary", 0.20, "ADA+DT"): 95.08,
    ("multiclass", 0.30, "LR+RF"): 65.93,
    ("multiclass", 0.20, "LR+RF"): 75.41,
    ("multiclass", 0.30, "SVM+ANN"): 67.03,
    ("multiclass", 0.20, "SVM+ANN"): 72.13,
    ("multiclass", 0.30, "ANN+LR"): 67.03,
    ("multiclass", 0.20, "ANN+LR"): 75.41,
}
VALIDATE_TOLERANCE = {"binary": 5.0, "multiclass": 15.0}
# stages whose failure is the input data's fault (the CLI exits 2 on them)
DATA_STAGES = frozenset({"load", "impute", "encode", "split", "weight_eval_split"})


class PipelineError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


def stage(name, fn, *args, **kwargs):
    """Call fn, re-raising any failure as a PipelineError of stage `name`."""
    try:
        return fn(*args, **kwargs)
    except Exception as e:
        raise PipelineError(name, e) from e


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    data_path: str | None = None          # None -> bundled Cleveland file
    schema_path: str | None = None        # None -> built-in Cleveland schema
    task: str = "binary"
    test_fraction: float = 0.20
    master_seed: int = 0
    fusion_pairs: list[tuple[str, str]] = None
    hyperparams: dict = field(default_factory=dict)   # {kind: {param: value}}
    report_dir: str | None = None
    weight_eval_mode: str = "test"        # "test" (paper-faithful) | "validation"
    stratified: bool = True
    has_header: bool = False
    validation_fraction: float = 0.2      # used by weight_eval_mode="validation"

    def __post_init__(self):
        if self.task not in ("binary", "multiclass"):
            raise ConfigError(f"unknown task {self.task!r}")
        for name in ("test_fraction", "validation_fraction"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0.0 < value < 1.0):
                raise ConfigError(f"{name} must be a number in (0, 1), not {value!r}")
        if isinstance(self.master_seed, bool) or not isinstance(self.master_seed, int):
            raise ConfigError(f"master_seed must be an integer, not {self.master_seed!r}")
        if not all(isinstance(p, (str, type(None))) for p in (self.data_path, self.schema_path)):
            raise ConfigError("data_path and schema_path must be path strings or null")
        if not all(isinstance(flag, bool) for flag in (self.stratified, self.has_header)):
            raise ConfigError("stratified and has_header must be true or false")
        if self.weight_eval_mode not in ("test", "validation"):
            raise ConfigError(f"unknown weight_eval_mode {self.weight_eval_mode!r}")
        if self.fusion_pairs is None:
            self.fusion_pairs = list(DEFAULT_PAIRS[self.task])
        if not isinstance(self.fusion_pairs, (list, tuple)) or not self.fusion_pairs:
            raise ConfigError("fusion_pairs must be a list of at least one model-kind pair, "
                              f"not {self.fusion_pairs!r}")
        pairs = []
        for pair in self.fusion_pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(isinstance(kind, str) for kind in pair)):
                raise ConfigError(f"bad fusion pair {pair!r}; expected two model kinds")
            a, b = pair[0].upper(), pair[1].upper()
            for kind in (a, b):
                if kind not in MODEL_KINDS:
                    raise ConfigError(f"unknown model kind {kind!r}")
                if self.task == "multiclass" and kind not in MULTICLASS_KINDS:
                    raise ConfigError(f"{kind} has no multiclass configuration")
            pairs.append((a, b))
        self.fusion_pairs = pairs
        if not isinstance(self.hyperparams, dict):
            raise ConfigError("hyperparams must map model kinds to parameter mappings")
        for kind, params in self.hyperparams.items():
            if kind not in MODEL_KINDS:
                raise ConfigError(f"hyperparams: unknown model kind {kind!r}; "
                                  f"expected one of {MODEL_KINDS}")
            if not isinstance(params, dict):
                raise ConfigError(f"hyperparams: {kind} needs a mapping of parameters")
            for name in params:
                if name not in model_class(kind).settings:
                    raise ConfigError(f"hyperparams: {kind} has no parameter {name!r}")

    def experiment_dict(self) -> dict:
        # everything that determines the computation; where the report is
        # written is deliberately excluded
        doc = asdict(self)
        doc.pop("report_dir")
        doc["fusion_pairs"] = [list(p) for p in self.fusion_pairs]
        return doc

    def config_hash(self) -> str:
        blob = json.dumps(self.experiment_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def child_seed(master_seed: int, stage: str, detail: str = "") -> int:
    """Stable per-stage seed so adding a model never perturbs other stages."""
    blob = f"{master_seed}|{stage}|{detail}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


@dataclass
class EvaluationReport:
    confusion: np.ndarray
    metrics: dict[str, float]
    roc_auc: float
    roc_points: dict[int, list]
    averaging_mode: str

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.tolist(),
            "accuracy": round(self.metrics["accuracy"], 2),
            "precision": round(self.metrics["precision"], 2),
            "recall": round(self.metrics["recall"], 2),
            "f1": round(self.metrics["f1"], 2),
            "roc_auc": round(self.roc_auc, 4),
            "averaging_mode": self.averaging_mode,
        }


@dataclass
class RunReport:
    config: RunConfig
    members: dict[str, EvaluationReport]
    fusions: dict[str, dict]   # name -> {weights, sweep, report}
    member_scores: dict[str, np.ndarray]
    truth: np.ndarray
    preprocessing: dict


def _evaluate(truth, scores, k, averaging) -> EvaluationReport:
    pred = fusion_mod.decide(scores)
    cm = metrics_mod.confusion(truth, pred, k)
    scal = metrics_mod.scalar_metrics(cm, averaging)
    auc, points = metrics_mod.roc_auc(truth, scores)
    return EvaluationReport(cm.counts, scal, auc, points, averaging)


def run_experiment(config: RunConfig) -> RunReport:
    task = TaskKind(config.task)
    averaging = "macro" if task.kind == "binary" else "weighted"
    seed = config.master_seed

    path = config.data_path or bundled_data_path()
    schema = (stage("load", load_schema_file, config.schema_path)
              if config.schema_path else None)
    table = stage("load", load_csv, path, schema=schema,
                  has_header=config.has_header)
    table = stage("impute", impute_most_frequent, table)
    table, code_maps = stage("encode", encode_labels, table)
    table = stage("derive_task", derive_task, table, task)

    spec = SplitSpec(config.test_fraction, child_seed(seed, "split"), config.stratified)
    train, test = stage("split", split, table, spec)

    # the rows the fusion weights are picked on; validation rows are carved off
    # before oversampling so duplicated minority rows cannot straddle the boundary
    select = test
    if config.weight_eval_mode == "validation":
        vspec = SplitSpec(config.validation_fraction,
                          child_seed(seed, "weight_eval_split"), config.stratified)
        train, select = stage("weight_eval_split", split, train, vspec)

    if task.kind == "multiclass":
        train = stage("oversample", random_oversample, train,
                      child_seed(seed, "oversample"))

    defaults = defaults_for(task.kind, config.test_fraction)
    kinds = sorted({k for pair in config.fusion_pairs for k in pair})
    tables = [test] if select is test else [test, select]

    member_scores, select_scores, members, scaler_doc = {}, {}, {}, {}
    for kind in kinds:
        hp = defaults[kind]
        hp.update(config.hyperparams.get(kind, {}))
        if "seed" in model_class(kind).settings:
            hp.setdefault("seed", child_seed(seed, "train", kind))
        scores, scaler_doc[kind] = _fit_and_score(kind, hp, train, tables,
                                                  task.class_count)
        member_scores[kind], select_scores[kind] = scores[0], scores[-1]
        members[kind] = stage("evaluate", _evaluate, test.labels,
                              member_scores[kind], task.class_count, averaging)

    fusions = {}
    for a, b in config.fusion_pairs:
        sel = fusion_mod.grid_search(select_scores[a], select_scores[b], select.labels)
        fused = fusion_mod.fuse(member_scores[a], member_scores[b], sel.weights)
        report = stage("evaluate", _evaluate, test.labels, fused.scores,
                       task.class_count, averaging)
        fusions[f"{a}+{b}"] = {
            "weights": sel.weights,
            "sweep": [(w.w1, w.w2, acc) for w, acc in sel.sweep],
            "report": report,
        }

    preprocessing = {
        "code_maps": {c: {str(k): v for k, v in m.items()}
                      for c, m in code_maps.items()},
        "scalers": scaler_doc,
        "train_rows": int(train.n_rows),
        "test_rows": int(test.n_rows),
        "imputed_on_full_table": True,  # documented leakage caveat
    }
    return RunReport(config, members, fusions, member_scores, test.labels.copy(),
                     preprocessing)


def _fit_and_score(kind, hp, train, tables, class_count):
    """Fit kind's scaler and model on train; return the model's scores of each
    of tables and the scaler document. No fitted model outlives the call."""
    scaler = stage("scale", fit_scaler, train.rows, SCALER_FOR[kind])
    model = stage("train", _train_one, kind, hp, apply_scaler(scaler, train.rows),
                  train.labels, class_count)
    # one batch per table: SVM scores move in the last bits with the batch
    scores = [stage("score", model.predict_proba, apply_scaler(scaler, t.rows))
              for t in tables]
    return scores, {
        "kind": scaler.kind,
        "center": None if scaler.center is None else scaler.center.tolist(),
        "scale": None if scaler.scale is None else scaler.scale.tolist(),
    }


def _train_one(kind, hp, X, y, class_count):
    model = make_model(kind, **hp)
    model.class_count_ = class_count
    return model.fit(X, y)


# ---------------------------------------------------------------------------
# report emission

def report_to_dict(report: RunReport) -> dict:
    doc = {
        "environment": {"master_seed": report.config.master_seed,
                        "config_hash": report.config.config_hash()},
        "config": report.config.experiment_dict(),
        "preprocessing": report.preprocessing,
        "members": {k: r.to_dict() for k, r in report.members.items()},
        "fusions": {},
        "truth": report.truth.tolist(),
        "member_scores": {k: np.round(s, 10).tolist()
                          for k, s in report.member_scores.items()},
    }
    for name, f in report.fusions.items():
        doc["fusions"][name] = {
            "weights": [f["weights"].w1, f["weights"].w2],
            "sweep": [[w1, w2, round(acc, 6)] for w1, w2, acc in f["sweep"]],
            **f["report"].to_dict(),
        }
    return doc


def emit_report(report: RunReport, report_dir) -> list[str]:
    """Write report.json plus summary tables and per-class ROC point CSVs.

    Everything is built in memory and written into a sibling staging
    directory, which os.replace moves into place: a new report directory
    appears whole, and in an existing one the report's files and roc/ are
    swapped in by rename while other entries stay. A failed write leaves no
    partial directory and no damaged earlier report. All output bytes are
    deterministic functions of the run, keeping identical configs
    byte-identical on disk.
    """
    files: dict[str, str] = {}
    doc = report_to_dict(report)
    files["report.json"] = json.dumps(doc, indent=2, sort_keys=True) + "\n"

    task, frac = report.config.task, report.config.test_fraction
    binary = task == "binary"
    lines = [f"# Run summary ({task}, test fraction {frac})", ""]
    if binary:
        lines.append("| Model | Tp | Fp | Fn | Tn | Acc | Prc | Recall | F1-score | Roc-Auc |")
        lines.append("|---|---|---|---|---|---|---|---|---|---|")
    else:
        lines.append("| Model | Acc | Precision | Recall | F1-score | Roc-Auc |")
        lines.append("|---|---|---|---|---|---|")
    out = ["model,split,accuracy,precision,recall,f1,roc_auc"]
    rows = [*report.members.items(), *((n, f["report"]) for n, f in report.fusions.items())]
    for name, rep in rows:
        scalars = [f"{rep.metrics[m]:.2f}" for m in ("accuracy", "precision", "recall", "f1")]
        counts = []
        if binary:
            (tn, fp), (fn, tp) = rep.confusion
            counts = [tp, fp, fn, tn]
        cells = [name, *counts, *scalars, f"{rep.roc_auc * 100:.2f}"]
        lines.append("| " + " | ".join(map(str, cells)) + " |")
        out.append(",".join([name, str(frac), *scalars, f"{rep.roc_auc:.4f}"]))
        for cls, points in rep.roc_points.items():
            body = ["fpr,tpr,threshold"]
            body += [f"{fpr:.6f},{tpr:.6f},{thr:.6g}" for fpr, tpr, thr in points]
            safe = name.replace("+", "_")
            files[os.path.join("roc", f"{safe}_class{cls}.csv")] = "\n".join(body) + "\n"
    for name, f in report.fusions.items():
        w = f["weights"]
        lines.append("")
        lines.append(f"Fusion {name}: selected weights ({w.w1:g}, {w.w2:g}); sweep "
                     + ", ".join(f"{w1:g}/{w2:g}={acc:.4f}" for w1, w2, acc in f["sweep"]))
    files["summary.md"] = "\n".join(lines) + "\n"
    files["summary.csv"] = "\n".join(out) + "\n"

    report_dir = os.fspath(report_dir)
    parent, base = os.path.split(os.path.abspath(report_dir))
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f".{base}.", dir=parent)
    staging = os.path.join(tmp, "report")   # made by mkdir, so it has the usual mode
    try:
        os.makedirs(os.path.join(staging, "roc"))
        for rel, content in files.items():
            with open(os.path.join(staging, rel), "w", encoding="utf-8") as fh:
                fh.write(content)
        if not os.path.isdir(report_dir):
            os.replace(staging, report_dir)
        else:
            # swap in the report's own entries; anything else there stays
            for name in sorted(os.listdir(staging)):
                dest = os.path.join(report_dir, name)
                if os.path.isdir(dest):
                    os.replace(dest, os.path.join(tmp, name))
                os.replace(os.path.join(staging, name), dest)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return [os.path.join(report_dir, rel) for rel in sorted(files)]


def validate_against_paper(report_doc: dict) -> list[dict]:
    """Compare fusion accuracies in a report document against the paper values.

    Returns one check per configured fusion with its margin; misses are
    reported, never raised, and a fused accuracy below the best member gets a
    no-improvement note. A missing field raises KeyError, a malformed one ConfigError.
    """
    for key in ("config", "members", "fusions"):
        if not isinstance(report_doc[key], dict):
            raise ConfigError(f"{key} is not a JSON object")
    task, frac = report_doc["config"]["task"], report_doc["config"]["test_fraction"]
    RunConfig(task=task, test_fraction=frac)   # a known task and a number in (0, 1)
    for key in ("members", "fusions"):
        for name, entry in report_doc[key].items():
            if not isinstance(entry, dict) or not isinstance(entry["accuracy"], (int, float)):
                raise ConfigError(f"{key} entry {name!r} is not an object with a numeric accuracy")
    frac, tol = round(frac, 2), VALIDATE_TOLERANCE[task]
    members = report_doc["members"]
    checks = []
    for name, f in report_doc["fusions"].items():
        target = PAPER_FUSION_ACCURACY.get((task, frac, name))
        acc = f["accuracy"]
        check = {"fusion": name, "accuracy": acc, "paper": target, "tolerance": tol}
        if target is None:
            check["status"] = "skip"
            check["margin"] = None
        else:
            check["margin"] = round(acc - (target - tol), 2)
            check["status"] = "pass" if acc >= target - tol else "fail"
        own_best = max((members[k]["accuracy"] for k in name.split("+")
                        if k in members), default=0.0)
        check["note"] = ("no-improvement" if acc < own_best else "")
        checks.append(check)
    return checks
