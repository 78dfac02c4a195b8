"""Confusion matrices, accuracy/precision/recall/F1 and ROC-AUC."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


class MetricError(Exception):
    pass


@dataclass
class ConfusionMatrix:
    """k x k counts; entry (i, j) = samples with true class i predicted class j."""

    counts: np.ndarray

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @classmethod
    def from_binary_cells(cls, tp: int, fp: int, fn: int, tn: int) -> "ConfusionMatrix":
        """The binary matrix of the conventional cells. The positive class is 1
        (presence of disease), so tp=counts[1,1], fp=counts[0,1],
        fn=counts[1,0] and tn=counts[0,0]."""
        return cls(np.array([[tn, fp], [fn, tp]], dtype=np.int64))


def confusion(truth, pred, k: int) -> ConfusionMatrix:
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if truth.shape != pred.shape:
        raise MetricError("truth and prediction lengths differ")
    if truth.size == 0:
        raise MetricError("no samples")
    for name, arr in (("truth", truth), ("prediction", pred)):
        if arr.min() < 0 or arr.max() >= k:
            raise MetricError(f"{name} labels outside [0, {k})")
    counts = np.bincount(truth * k + pred, minlength=k * k).astype(np.int64, copy=False)
    return ConfusionMatrix(counts.reshape(k, k))


def scalar_metrics(cm: ConfusionMatrix, mode: str = "macro") -> dict[str, float]:
    """Accuracy plus averaged precision/recall/F1, all as percentages.

    Per-class metrics treat each class in turn as positive; zero
    denominators yield 0 for that class so averages stay defined.
    ``mode`` is "macro" (unweighted) or "weighted" (by true-class support).
    """
    if mode not in ("macro", "weighted"):
        raise MetricError(f"unknown averaging mode {mode!r}")
    c = cm.counts.astype(np.float64)
    total = c.sum()
    if total == 0:
        raise MetricError("empty confusion matrix")
    accuracy = np.trace(c) / total * 100.0

    diag = np.diag(c)
    pred_per_class = c.sum(axis=0)
    support = c.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_per_class > 0, diag / pred_per_class, 0.0)
        recall = np.where(support > 0, diag / support, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2 * precision * recall / pr, 0.0)

    if mode == "macro":
        w = np.full(cm.k, 1.0 / cm.k)
    else:
        w = support / total
    return {
        "accuracy": float(accuracy),
        "precision": float((precision * w).sum() * 100.0),
        "recall": float((recall * w).sum() * 100.0),
        "f1": float((f1 * w).sum() * 100.0),
    }


def _binary_roc(truth: np.ndarray, score: np.ndarray):
    """Exact ROC step curve and trapezoidal AUC for one positive class."""
    n_pos = int(truth.sum())
    n_neg = len(truth) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None, None
    # tied scores step together: tps and the thresholds are read only at the
    # end of each tie group, so the order inside a group reaches no output
    order = np.argsort(-score)
    s = score[order]
    t = truth[order]
    distinct = np.flatnonzero(np.diff(s)) + 1
    bounds = np.concatenate([distinct, [len(s)]])
    tps = np.cumsum(t)[bounds - 1]
    fps = bounds - tps
    tpr = np.concatenate([[0.0], tps / n_pos, [1.0]])
    fpr = np.concatenate([[0.0], fps / n_neg, [1.0]])
    thresholds = np.concatenate([[np.inf], s[bounds - 1], [-np.inf]])
    # drop the duplicated terminal point if the curve already reached (1,1)
    if tpr[-2] == 1.0 and fpr[-2] == 1.0:
        tpr, fpr, thresholds = tpr[:-1], fpr[:-1], thresholds[:-1]
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    auc = float(trapezoid(tpr, fpr))
    points = list(zip(fpr.tolist(), tpr.tolist(), thresholds.tolist()))
    return auc, points


def roc_auc(truth, scores) -> tuple[float, dict[int, list[tuple[float, float, float]]]]:
    """ROC-AUC from probability scores, with the per-class curve points.

    Binary tasks use the class-1 score column. Multiclass tasks compute
    one-vs-rest AUC per class present in the truth and macro-average;
    classes absent from the truth are excluded with a warning.
    """
    truth = np.asarray(truth, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != truth.shape[0]:
        raise MetricError("scores must be (n_samples, n_classes) aligned with truth")
    if not np.isfinite(scores).all():
        raise MetricError("scores must be finite")
    k = scores.shape[1]

    if k == 2:
        auc, pts = _binary_roc((truth == 1).astype(np.float64), scores[:, 1])
        if auc is None:
            raise MetricError("ROC-AUC undefined: only one class present")
        return auc, {1: pts}

    aucs, curves = [], {}
    for c in range(k):
        mask = (truth == c).astype(np.float64)
        auc, pts = _binary_roc(mask, scores[:, c])
        if auc is None:
            warnings.warn(f"class {c} absent from truth; excluded from macro ROC-AUC")
            continue
        aucs.append(auc)
        curves[c] = pts
    if not aucs:
        raise MetricError("ROC-AUC undefined for every class")
    return float(np.mean(aucs)), curves
