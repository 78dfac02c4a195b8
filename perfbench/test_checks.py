"""The benchmark's checkers accept the program's outputs and reject corrupted ones.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import numpy as np
import pytest

from cardiofuse import fusion, metrics, pipeline
from cardiofuse.dataset import DataTable
from cardiofuse.models import SVMClassifier
from cardiofuse.preprocess import SplitSpec

from perfbench import checks, counters
from perfbench.spans import Tracer


def _scores(n, k, seed):
    raw = np.random.default_rng(seed).random((n, k))
    return raw / raw.sum(axis=1, keepdims=True)


def _evaluation(truth, scores, averaging):
    cm = metrics.confusion(truth, fusion.decide(scores), scores.shape[1])
    auc, _ = metrics.roc_auc(truth, scores)
    return cm.counts, metrics.scalar_metrics(cm, averaging), auc


@pytest.fixture(params=[(2, "macro"), (5, "weighted")], ids=["binary", "five-class"])
def case(request):
    k, averaging = request.param
    truth = np.random.default_rng(1).integers(0, k, size=61)
    a, b = _scores(61, k, 2), _scores(61, k, 3)
    return truth, a, b, averaging


def test_scores_accepts_probabilities_and_rejects_an_unnormalised_row():
    s = _scores(10, 3, 0)
    checks.check_scores(s, 10, 3)
    bad = s.copy()
    bad[4] *= 1.01
    with pytest.raises(checks.CheckFailed, match="sums"):
        checks.check_scores(bad, 10, 3)
    with pytest.raises(checks.CheckFailed, match="shape"):
        checks.check_scores(s[:9], 10, 3)
    bad = s.copy()
    bad[0, 0] = np.nan
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_scores(bad, 10, 3)


def test_evaluation_accepts_the_program_and_rejects_a_flipped_prediction(case):
    truth, a, _, averaging = case
    counts, scalars, auc = _evaluation(truth, a, averaging)
    checks.check_evaluation(truth, a, counts, scalars, auc, averaging)

    pred = fusion.decide(a)
    pred[7] = (pred[7] + 1) % a.shape[1]
    flipped = metrics.confusion(truth, pred, a.shape[1])
    with pytest.raises(checks.CheckFailed, match="confusion"):
        checks.check_evaluation(truth, a, flipped.counts, scalars, auc, averaging)


@pytest.mark.parametrize("field", ["accuracy", "precision", "recall", "f1"])
def test_evaluation_rejects_a_wrong_scalar(case, field):
    truth, a, _, averaging = case
    counts, scalars, auc = _evaluation(truth, a, averaging)
    scalars[field] += 1e-6
    with pytest.raises(checks.CheckFailed, match=field):
        checks.check_evaluation(truth, a, counts, scalars, auc, averaging)


def test_rank_sum_auc_matches_the_program_with_ties_and_rejects_a_wrong_auc():
    truth = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    p1 = np.array([0.2, 0.7, 0.5, 0.5, 0.9, 0.1, 0.7, 0.3])
    scores = np.column_stack([1 - p1, p1])
    auc, _ = metrics.roc_auc(truth, scores)
    assert checks.roc_auc_by_ranks(truth, scores) == pytest.approx(auc, abs=1e-12)
    counts, scalars, _ = _evaluation(truth, scores, "macro")
    with pytest.raises(checks.CheckFailed, match="roc_auc"):
        checks.check_evaluation(truth, scores, counts, scalars, auc + 0.01, "macro")


def test_fusion_accepts_the_grid_search_and_rejects_a_wrong_selected_weight(case):
    truth, a, b, averaging = case
    sel = fusion.grid_search(a, b, truth)
    sweep = [(w.w1, w.w2, acc) for w, acc in sel.sweep]
    fused_eval = _evaluation(truth, sel.fused.scores, averaging)
    weights = (sel.weights.w1, sel.weights.w2)
    checks.check_fusion(a, b, truth, weights, sweep, fused_eval, averaging)

    other = next((w.w1, w.w2) for w, _ in sel.sweep if (w.w1, w.w2) != weights)
    with pytest.raises(checks.CheckFailed, match="selected weights"):
        checks.check_fusion(a, b, truth, other, sweep, fused_eval, averaging)

    sweep[3] = (sweep[3][0], sweep[3][1], sweep[3][2] + 1 / len(truth))
    with pytest.raises(checks.CheckFailed, match="sweep point 3"):
        checks.check_fusion(a, b, truth, weights, sweep, fused_eval, averaging)


def test_first_maximum_wins_a_tie():
    truth = np.array([0, 1])
    a = np.array([[0.9, 0.1], [0.1, 0.9]])   # every weight scores 100 %
    sweep = checks.weight_sweep(a, a, truth)
    assert {acc for _, _, acc in sweep} == {1.0}
    checks.check_fusion(a, a, truth, (0.95, 1.0 - 0.95), sweep,
                        _evaluation(truth, a, "macro"), "macro")
    with pytest.raises(checks.CheckFailed, match="selected weights"):
        checks.check_fusion(a, a, truth, (0.9, 1.0 - 0.9), sweep,
                            _evaluation(truth, a, "macro"), "macro")


def test_largest_remainder_on_the_cleveland_counts():
    binary, five = [164, 139], [164, 55, 36, 35, 13]
    assert checks.largest_remainder(binary, 0.2) == [33, 28]
    assert checks.largest_remainder(binary, 0.3) == [49, 42]
    assert checks.largest_remainder(five, 0.2) == [33, 11, 7, 7, 3]
    assert checks.largest_remainder(five, 0.3) == [49, 17, 11, 10, 4]


def test_split_accepts_the_program_and_rejects_wrong_sizes():
    counts = [164, 55, 36, 35, 13]
    labels = np.repeat(np.arange(5), counts)
    table = DataTable(np.zeros((303, 13)), labels)
    train, test = pipeline.split(table, SplitSpec(0.2, 7))
    over = pipeline.random_oversample(train, 7)
    checks.check_split(counts, 0.2, test.labels, over.n_rows, oversampled=True)
    checks.check_split(counts, 0.2, test.labels, train.n_rows, oversampled=False)

    with pytest.raises(checks.CheckFailed, match="training set"):
        checks.check_split(counts, 0.2, test.labels, over.n_rows - 1, oversampled=True)
    moved = test.labels.copy()
    moved[np.flatnonzero(moved == 4)[0]] = 0
    with pytest.raises(checks.CheckFailed, match="per-class"):
        checks.check_split(counts, 0.2, moved, over.n_rows, oversampled=True)
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_split(counts, 0.2, test.labels[1:], over.n_rows, oversampled=True)


def test_cohort_rows_must_score_as_their_source_rows():
    table = _scores(5, 2, 4)
    source = np.array([4, 0, 0, 3, 1, 4])
    checks.check_cohort_rows(table[source], table, source)
    bad = table[source].copy()
    bad[2] = bad[2, ::-1]
    with pytest.raises(checks.CheckFailed, match="cohort row 2"):
        checks.check_cohort_rows(bad, table, source)


def test_svm_optimality_from_outside():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(np.int64)
    X = np.vstack([X, X[:5]])            # duplicated rows, as oversampling makes
    y = np.concatenate([y, y[:5]])

    capped = SVMClassifier(C=1.0, kernel="linear", max_passes=1)
    with pytest.warns(UserWarning):
        capped.fit(X, y)
    rough = counters.svm_optimality(capped, X, y)
    model = SVMClassifier(C=1.0, kernel="linear").fit(X, y)
    tight = counters.svm_optimality(model, X, y)
    assert rough[0]["kkt_violators"] > tight[0]["kkt_violators"] == 0
    assert rough[0]["dual_gap"] > tight[0]["dual_gap"] >= 0
    assert tight[0]["dual_gap"] < 1e-2
    doc = model.to_dict()
    assert counters.model_counts(doc) == {
        "models.svm.support_vectors": len(doc["params"]["machines"][0]["coef"])}


def test_tracer_self_time_and_restore():
    tracer = Tracer()
    original = pipeline.split
    with tracer.installed():
        assert pipeline.split is not original
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.paused():
                with tracer.span("hidden"):
                    pass
    assert pipeline.split is original
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner"]
    own = tracer.self_times()
    outer, inner = tracer.spans
    assert own[0] == pytest.approx((outer[3] - outer[2]) - (inner[3] - inner[2]))
    assert tracer.spans[1][1] == 0


def test_benchmark_json_lists_what_the_runner_prints():
    import json
    from pathlib import Path

    from perfbench import run

    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
