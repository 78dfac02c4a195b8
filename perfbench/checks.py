"""Output checks computed apart from the program under test.

Each checker recomputes a result from first principles (counting, ranks,
exact fractions) and raises ``CheckFailed`` when the program's output
disagrees. None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# percentages and AUCs are recomputed in another order of operations
METRIC_TOL = 1e-9
ROW_SUM_TOL = 1e-9
COHORT_ROW_TOL = 1e-12


class CheckFailed(Exception):
    pass


def _fail(msg):
    raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# data

def table_labels(path) -> list[int]:
    """Labels of a Cleveland-format file, read straight from its last column."""
    with open(path, "r", encoding="utf-8") as fh:
        return [int(float(line.rsplit(",", 1)[1])) for line in fh if line.strip()]


def class_counts(labels, task: str) -> list[int]:
    if task == "binary":
        labels = [int(v > 0) for v in labels]
        k = 2
    else:
        k = 5
    return [sum(1 for v in labels if v == c) for c in range(k)]


# ---------------------------------------------------------------------------
# scores

def check_scores(scores, n: int, k: int, what: str = "scores"):
    """An (n, k) matrix of finite probabilities whose rows sum to 1."""
    s = np.asarray(scores)
    if s.shape != (n, k):
        _fail(f"{what}: shape {s.shape}, expected {(n, k)}")
    if not np.isfinite(s).all():
        _fail(f"{what}: non-finite entries")
    if (s < 0).any() or (s > 1).any():
        _fail(f"{what}: entries outside [0, 1]")
    worst = float(np.abs(s.sum(axis=1) - 1.0).max())
    if worst > ROW_SUM_TOL:
        _fail(f"{what}: a row sums to 1 {worst:+.3g}")


def check_cohort_rows(cohort_scores, table_scores, source, what: str = "cohort"):
    """Row i of a resampled cohort scores as table row source[i].

    Equal within COHORT_ROW_TOL: a matrix product over a batch of another
    size may round the last bit differently.
    """
    diff = np.abs(np.asarray(cohort_scores) - np.asarray(table_scores)[source])
    bad = np.flatnonzero((diff > COHORT_ROW_TOL).any(axis=1))
    if len(bad):
        i = int(bad[0])
        _fail(f"{what}: cohort row {i} (table row {int(source[i])}) scores "
              f"{cohort_scores[i].tolist()}, the table row {table_scores[source[i]].tolist()}")


# ---------------------------------------------------------------------------
# split and oversampling

def largest_remainder(counts, fraction: float) -> list[int]:
    """Per-class test counts: round(n * f) rows shared out by largest remainder.

    Quotas are exact rationals of the decimal fraction; ties go to the
    lower class index.
    """
    n = sum(counts)
    n_test = round(n * fraction)
    f = Fraction(str(fraction))
    quotas = [c * f for c in counts]
    alloc = [int(q) for q in quotas]
    order = sorted(range(len(counts)), key=lambda c: (-(quotas[c] - alloc[c]), c))
    for c in order[:n_test - sum(alloc)]:
        alloc[c] += 1
    return alloc


def check_split(counts, fraction: float, test_labels, train_rows: int,
                oversampled: bool):
    """Test size, per-class test counts and training size of one split."""
    n, k = sum(counts), len(counts)
    expected = largest_remainder(counts, fraction)
    test_labels = np.asarray(test_labels)
    if len(test_labels) != round(n * fraction):
        _fail(f"test split has {len(test_labels)} rows, expected round({n}*{fraction})")
    got = [int((test_labels == c).sum()) for c in range(k)]
    if got != expected:
        _fail(f"per-class test counts {got}, largest remainder gives {expected}")
    train_counts = [c - t for c, t in zip(counts, expected)]
    want = k * max(train_counts) if oversampled else sum(train_counts)
    if train_rows != want:
        _fail(f"training set has {train_rows} rows, expected {want}")


# ---------------------------------------------------------------------------
# metrics

def confusion_by_count(truth, pred, k: int) -> list[list[int]]:
    """Entry (i, j) counts rows of true class i predicted as class j."""
    pairs = np.asarray(truth, dtype=np.int64) * k + np.asarray(pred, dtype=np.int64)
    return np.bincount(pairs, minlength=k * k).reshape(k, k).tolist()


def first_argmax(scores) -> np.ndarray:
    """Predicted class per row; the lowest index wins a tie."""
    s = np.asarray(scores)
    return (s == s.max(axis=1, keepdims=True)).argmax(axis=1)


def metrics_by_count(cm, averaging: str) -> dict[str, float]:
    """Accuracy and averaged precision/recall/F1, in percent.

    A class with no predictions (or no support) scores 0 on that ratio.
    ``averaging`` is "macro" or "weighted" (by true-class support).
    """
    k = len(cm)
    total = sum(map(sum, cm))
    support = [sum(cm[c]) for c in range(k)]
    predicted = [sum(cm[r][c] for r in range(k)) for c in range(k)]
    prec, rec, f1 = [], [], []
    for c in range(k):
        p = cm[c][c] / predicted[c] if predicted[c] else 0.0
        r = cm[c][c] / support[c] if support[c] else 0.0
        prec.append(p)
        rec.append(r)
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
    w = [1 / k] * k if averaging == "macro" else [s / total for s in support]
    return {
        "accuracy": 100.0 * sum(cm[c][c] for c in range(k)) / total,
        "precision": 100.0 * sum(a * b for a, b in zip(prec, w)),
        "recall": 100.0 * sum(a * b for a, b in zip(rec, w)),
        "f1": 100.0 * sum(a * b for a, b in zip(f1, w)),
    }


def auc_rank_sum(positive, score) -> float:
    """Mann-Whitney AUC: the rank sum of the positives with mid-ranks for ties."""
    positive = np.asarray(positive, dtype=bool)
    _, inverse, counts = np.unique(score, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inverse]
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    return (float(ranks[positive].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_auc_by_ranks(truth, scores) -> float:
    """Binary: AUC of the class-1 column. Multiclass: macro one-vs-rest
    over the classes present in the truth."""
    truth = np.asarray(truth)
    scores = np.asarray(scores)
    if scores.shape[1] == 2:
        return auc_rank_sum(truth == 1, scores[:, 1])
    aucs = [auc_rank_sum(truth == c, scores[:, c])
            for c in range(scores.shape[1]) if 0 < (truth == c).sum() < len(truth)]
    return sum(aucs) / len(aucs)


def check_evaluation(truth, scores, confusion, metrics, roc_auc, averaging,
                     what: str = "evaluation"):
    """Confusion matrix, scalar metrics and ROC-AUC of one score matrix."""
    k = np.asarray(scores).shape[1]
    cm = confusion_by_count(truth, first_argmax(scores), k)
    if np.asarray(confusion).tolist() != cm:
        _fail(f"{what}: confusion {np.asarray(confusion).tolist()}, counted {cm}")
    want = metrics_by_count(cm, averaging)
    for name, value in want.items():
        if abs(metrics[name] - value) > METRIC_TOL:
            _fail(f"{what}: {name} {metrics[name]!r}, counted {value!r}")
    auc = roc_auc_by_ranks(truth, scores)
    if abs(roc_auc - auc) > METRIC_TOL:
        _fail(f"{what}: roc_auc {roc_auc!r}, rank sum gives {auc!r}")


# ---------------------------------------------------------------------------
# fusion

def weight_sweep(a, b, truth) -> list[tuple[float, float, float]]:
    """Accuracy of w1*a + w2*b at w1 = 0.95, 0.90, ..., 0.05 and w2 = 1 - w1."""
    truth = np.asarray(truth)
    out = []
    for i in range(19):
        w1 = (95 - 5 * i) / 100
        w2 = 1.0 - w1
        acc = int((first_argmax(w1 * a + w2 * b) == truth).sum()) / len(truth)
        out.append((w1, w2, acc))
    return out


def check_fusion(a, b, truth, weights, sweep, fused_eval, averaging,
                 what: str = "fusion"):
    """The sweep, the selected weights (first maximum) and the fused evaluation.

    ``weights`` is (w1, w2); ``sweep`` is [(w1, w2, accuracy)];
    ``fused_eval`` is (confusion, metrics, roc_auc) of the fused scores.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    want = weight_sweep(a, b, truth)
    got = [(float(w1), float(w2), float(acc)) for w1, w2, acc in sweep]
    if len(got) != len(want):
        _fail(f"{what}: sweep has {len(got)} points, expected {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            _fail(f"{what}: sweep point {i} is {g}, recomputed {w}")
    accs = [acc for _, _, acc in want]
    best = want[accs.index(max(accs))][:2]
    if tuple(map(float, weights)) != best:
        _fail(f"{what}: selected weights {tuple(weights)}, first maximum is {best}")
    fused = best[0] * a + best[1] * b
    check_scores(fused, len(truth), a.shape[1], f"{what} fused scores")
    check_evaluation(truth, fused, *fused_eval, averaging, what)


# ---------------------------------------------------------------------------
# a whole experiment

def check_run_report(report, counts):
    """Every member and fusion of a pipeline RunReport, plus its split."""
    cfg = report.config
    k = len(counts)
    averaging = "macro" if k == 2 else "weighted"
    truth = report.truth
    pre = report.preprocessing
    check_split(counts, cfg.test_fraction, truth, pre["train_rows"],
                oversampled=cfg.task == "multiclass")
    if pre["test_rows"] != len(truth):
        _fail(f"report says {pre['test_rows']} test rows, truth has {len(truth)}")
    for kind, scores in report.member_scores.items():
        check_scores(scores, len(truth), k, f"{kind} scores")
        m = report.members[kind]
        check_evaluation(truth, scores, m.confusion, m.metrics, m.roc_auc,
                         averaging, kind)
    for a, b in cfg.fusion_pairs:
        f = report.fusions[f"{a}+{b}"]
        r = f["report"]
        check_fusion(report.member_scores[a], report.member_scores[b], truth,
                     (f["weights"].w1, f["weights"].w2), f["sweep"],
                     (r.confusion, r.metrics, r.roc_auc), averaging, f"{a}+{b}")
