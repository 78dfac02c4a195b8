import numpy as np
import pytest

from cardiofuse.metrics import (ConfusionMatrix, MetricError, confusion,
                                roc_auc, scalar_metrics)

# every internally consistent binary confusion matrix printed in the source
# tables, as (tp, fp, fn, tn) -> accuracy
PRINTED_MATRICES = [
    ((48, 2, 11, 30), 85.71), ((47, 3, 5, 36), 91.21), ((48, 2, 4, 37), 93.41),
    ((35, 2, 3, 21), 91.80), ((34, 3, 1, 23), 93.44), ((35, 2, 1, 23), 95.08),
    ((50, 4, 7, 30), 87.91), ((48, 6, 7, 30), 85.71),
    ((34, 1, 4, 22), 91.80), ((32, 3, 3, 23), 90.16), ((33, 2, 2, 24), 93.44),
    ((51, 6, 3, 31), 90.11), ((56, 1, 8, 26), 90.11), ((53, 4, 3, 31), 92.31),
    ((36, 1, 5, 19), 90.16), ((33, 4, 2, 22), 90.16), ((36, 1, 2, 22), 95.08),
]


def brute_force_accuracy(truth, pred):
    hits = 0
    for t, p in zip(truth, pred):
        if t == p:
            hits += 1
    return 100.0 * hits / len(truth)


def pair_count_auc(truth, scores):
    """Mann-Whitney statistic: concordant pairs (ties count half)."""
    pos = [s for t, s in zip(truth, scores) if t == 1]
    neg = [s for t, s in zip(truth, scores) if t == 0]
    num = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                num += 1.0
            elif p == n:
                num += 0.5
    return num / (len(pos) * len(neg))


def test_confusion_hand_enumeration():
    cm = confusion([1, 1, 0], [1, 0, 0], k=2)
    # (tn, fp), (fn, tp): one true negative, one false negative, one true positive
    assert cm.counts.tolist() == [[1, 0], [1, 1]]


def test_confusion_perfect_is_diagonal():
    truth = [0, 1, 2, 3, 4, 2, 1]
    cm = confusion(truth, truth, k=5)
    assert (cm.counts == np.diag(np.diag(cm.counts))).all()
    assert cm.counts.sum() == len(truth)


def test_confusion_paper_cells_sum_to_61():
    cm = ConfusionMatrix.from_binary_cells(35, 2, 1, 23)
    assert cm.counts.sum() == 61
    assert cm.counts.tolist() == [[23, 2], [1, 35]]


def test_confusion_rejects_out_of_range():
    with pytest.raises(MetricError):
        confusion([0, 5], [0, 1], k=2)
    with pytest.raises(MetricError):
        confusion([0, 1], [0], k=2)


@pytest.mark.parametrize("cells,expected", PRINTED_MATRICES)
def test_printed_accuracies_reproduced(cells, expected):
    cm = ConfusionMatrix.from_binary_cells(*cells)
    acc = scalar_metrics(cm)["accuracy"]
    assert round(acc, 2) == expected


def test_accuracy_named_examples():
    assert round(scalar_metrics(ConfusionMatrix.from_binary_cells(35, 2, 1, 23))["accuracy"], 2) == 95.08
    assert round(scalar_metrics(ConfusionMatrix.from_binary_cells(48, 2, 4, 37))["accuracy"], 2) == 93.41


def test_perfect_matrix_all_100():
    cm = ConfusionMatrix(np.diag([10, 5, 3]))
    out = scalar_metrics(cm, "macro")
    assert out == {"accuracy": 100.0, "precision": 100.0, "recall": 100.0, "f1": 100.0}


def test_zero_denominator_yields_zero():
    # class 1 never predicted and never true -> precision/recall 0 for it
    cm = ConfusionMatrix(np.array([[4, 0], [0, 0]]))
    out = scalar_metrics(cm, "macro")
    assert out["accuracy"] == 100.0
    assert out["precision"] == 50.0  # (100 + 0) / 2


def test_macro_equals_weighted_for_equal_support():
    rng = np.random.default_rng(0)
    for _ in range(20):
        truth = np.repeat([0, 1, 2], 30)
        pred = rng.integers(0, 3, size=90)
        cm = confusion(truth, pred, 3)
        a = scalar_metrics(cm, "macro")
        b = scalar_metrics(cm, "weighted")
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=1e-9)


def test_accuracy_matches_brute_force_loop():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(2, 6))
        truth = rng.integers(0, k, n)
        pred = rng.integers(0, k, n)
        cm = confusion(truth, pred, k)
        assert scalar_metrics(cm)["accuracy"] == pytest.approx(
            brute_force_accuracy(truth, pred), abs=1e-9)


def test_auc_perfect_ranking():
    truth = [1, 1, 0, 0]
    scores = np.array([[0.1, 0.9], [0.2, 0.8], [0.8, 0.2], [0.9, 0.1]])
    auc, _ = roc_auc(truth, scores)
    assert auc == 1.0


def test_auc_constant_scores_is_half():
    truth = [1, 0, 1, 0, 1]
    scores = np.full((5, 2), 0.5)
    auc, _ = roc_auc(truth, scores)
    assert auc == pytest.approx(0.5)


def test_auc_hand_example_three_quarters():
    truth = [1, 0, 1, 0]
    s1 = [0.9, 0.8, 0.7, 0.1]
    scores = np.column_stack([1 - np.array(s1), s1])
    # oracle: concordant pairs / 4
    assert pair_count_auc(truth, s1) == 0.75
    auc, _ = roc_auc(truth, scores)
    assert auc == pytest.approx(0.75)


def test_auc_matches_pair_counting_with_ties():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(4, 80))
        truth = rng.integers(0, 2, n)
        if truth.min() == truth.max():
            truth[0] = 1 - truth[0]
        s1 = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)  # force ties
        scores = np.column_stack([1 - s1, s1])
        auc, _ = roc_auc(truth, scores)
        assert auc == pytest.approx(pair_count_auc(truth, s1), abs=1e-9)


def test_roc_points_monotone_and_complete():
    rng = np.random.default_rng(3)
    truth = rng.integers(0, 2, 50)
    truth[:2] = [0, 1]
    s1 = rng.random(50)
    auc, curves = roc_auc(truth, np.column_stack([1 - s1, s1]))
    pts = curves[1]
    fpr = [p[0] for p in pts]
    tpr = [p[1] for p in pts]
    assert (fpr[0], tpr[0]) == (0.0, 0.0)
    assert (fpr[-1], tpr[-1]) == (1.0, 1.0)
    assert all(a <= b + 1e-12 for a, b in zip(fpr, fpr[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(tpr, tpr[1:]))


def test_multiclass_auc_macro_over_present_classes():
    rng = np.random.default_rng(4)
    truth = rng.integers(0, 3, 60)
    scores = rng.dirichlet(np.ones(3), size=60)
    auc, curves = roc_auc(truth, scores)
    per_class = [pair_count_auc((truth == c).astype(int), scores[:, c]) for c in range(3)]
    assert auc == pytest.approx(np.mean(per_class), abs=1e-9)
    assert set(curves) == {0, 1, 2}


def test_multiclass_auc_warns_on_absent_class():
    truth = np.array([0, 0, 1, 1, 0, 1])  # class 2 absent
    rng = np.random.default_rng(5)
    scores = rng.dirichlet(np.ones(3), size=6)
    with pytest.warns(UserWarning, match="class 2"):
        auc, curves = roc_auc(truth, scores)
    assert 2 not in curves
    assert 0.0 <= auc <= 1.0


def test_roc_rejects_non_finite_scores():
    with pytest.raises(MetricError, match="finite"):
        roc_auc([0, 1, 1], np.array([[0.5, 0.5], [np.nan, 0.2], [0.1, 0.9]]))
