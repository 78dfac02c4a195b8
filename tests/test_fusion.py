import numpy as np
import pytest

from cardiofuse.fusion import (FusionError, FusionWeights, _sweep, decide, fuse,
                               grid_search, weight_grid)


def random_scores(rng, n, k):
    return rng.dirichlet(np.ones(k), size=n)


def test_grid_has_19_exact_pairs():
    grid = weight_grid()
    assert len(grid) == 19
    assert [w.w1 for w in grid] == [round(0.95 - 0.05 * i, 2) for i in range(19)]
    for w in grid:
        assert w.w1 + w.w2 == 1.0  # exact, not approximate
        assert 0.0 < w.w1 < 1.0


def test_weights_must_sum_to_one():
    with pytest.raises(FusionError):
        FusionWeights(0.6, 0.5)


def test_fuse_identical_inputs_fixed_point():
    d = np.array([[0.6, 0.4]])
    for w in weight_grid():
        out = fuse(d, d, w)
        assert np.allclose(out.scores, d)


def test_fuse_hand_arithmetic():
    d1 = np.array([[0.9, 0.1]])
    d2 = np.array([[0.2, 0.8]])
    out = fuse(d1, d2, FusionWeights(0.7, 1.0 - 0.7))
    assert out.scores[0] == pytest.approx([0.69, 0.31])


def test_fuse_symmetry_half_half():
    out = fuse(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), FusionWeights(0.5, 0.5))
    assert out.scores[0].tolist() == [0.5, 0.5]


def test_fuse_shape_mismatch():
    with pytest.raises(FusionError):
        fuse(np.zeros((2, 2)), np.zeros((3, 2)), FusionWeights(0.5, 0.5))


def test_decide_argmax_and_ties():
    assert decide(np.array([[0.2, 0.5, 0.1, 0.1, 0.1]]))[0] == 1
    assert decide(np.array([[0.5, 0.5]]))[0] == 0  # tie -> lowest index
    assert decide(np.array([[0.3, 0.7]]))[0] == 1


def test_decide_invariant_under_positive_scaling():
    rng = np.random.default_rng(0)
    scores = random_scores(rng, 50, 5)
    scale = rng.uniform(0.1, 10.0, size=(50, 1))
    assert np.array_equal(decide(scores), decide(scores * scale))


def test_grid_search_prefers_correct_member():
    # d1 always right, d2 always wrong
    truth = np.array([0, 1, 0, 1])
    d1 = np.eye(2)[truth]
    d2 = np.eye(2)[1 - truth]
    res = grid_search(d1, d2, truth)
    # oracle: evaluate all 19 points by hand
    best = None
    for w in weight_grid():
        acc = np.mean(np.argmax(w.w1 * d1 + w.w2 * d2, axis=1) == truth)
        if best is None or acc > best[1]:
            best = (w, acc)
    assert res.weights.w1 == best[0].w1 == 0.95
    assert res.best_criterion == best[1] == 1.0


def test_grid_search_tie_takes_largest_w1():
    truth = np.array([0, 1])
    d = np.eye(2)[truth]
    res = grid_search(d, d, truth)
    assert res.weights.w1 == 0.95


def test_grid_search_returns_max_of_sweep():
    rng = np.random.default_rng(1)
    truth = rng.integers(0, 2, 30)
    d1 = random_scores(rng, 30, 2)
    d2 = random_scores(rng, 30, 2)
    res = grid_search(d1, d2, truth)
    assert res.best_criterion == max(acc for _, acc in res.sweep)
    assert len(res.sweep) == 19


def test_fused_rows_normalized_and_bounded():
    rng = np.random.default_rng(2)
    for k in (2, 5):
        d1 = random_scores(rng, 200, k)
        d2 = random_scores(rng, 200, k)
        for w in weight_grid():
            out = fuse(d1, d2, w).scores
            assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9
            lo = np.minimum(d1, d2) - 1e-12
            hi = np.maximum(d1, d2) + 1e-12
            assert ((out >= lo) & (out <= hi)).all()


def test_fusion_symmetric_in_members():
    rng = np.random.default_rng(3)
    d1 = random_scores(rng, 40, 3)
    d2 = random_scores(rng, 40, 3)
    a = fuse(d1, d2, FusionWeights(0.7, 1.0 - 0.7)).scores
    b = fuse(d2, d1, FusionWeights(1.0 - 0.7, 0.7)).scores
    assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_are_rejected(bad):
    d = np.array([[0.6, 0.4], [0.3, 0.7]])
    broken = d.copy()
    broken[1, 0] = bad
    with pytest.raises(FusionError, match="finite"):
        decide(broken)
    with pytest.raises(FusionError, match="finite"):
        grid_search(broken, d, [0, 1])
    with pytest.raises(FusionError, match="finite"):
        grid_search(d, broken, [0, 1])


def test_grid_search_needs_rows():
    with pytest.raises(FusionError, match="no rows"):
        grid_search(np.zeros((0, 2)), np.zeros((0, 2)), [])


@pytest.mark.parametrize("k", [2, 5])
def test_sweep_equals_fuse_and_decide_where_columns_tie(k):
    rng = np.random.default_rng(k)
    n = 400
    d1, d2 = rng.integers(0, 4, size=(2, n, k)) / 4.0   # a few values, so columns tie
    d1[:40], d2[:40] = d1[:40, :1], d2[:40, :1]   # every column of these rows ties at any weight
    d1[40:80, -1], d2[40:80, -1] = d1[40:80, 0], d2[40:80, 0]   # the first and last tie
    truth = rng.integers(0, k, n)
    want = []
    for w in weight_grid():
        fused = fuse(d1, d2, w).scores
        assert (fused[:80, -1] == fused[:80, 0]).all()
        want.append((w, np.count_nonzero(decide(fused) == truth) / n))
    assert _sweep(d1, d2, truth) == want
    assert grid_search(d1, d2, truth).sweep == want


@pytest.mark.parametrize("k, label", [(2, -1), (2, 2), (5, 5), (5, -3)])
def test_grid_search_refuses_a_label_outside_its_classes(k, label):
    d = np.full((3, k), 1.0 / k)
    with pytest.raises(FusionError, match=rf"truth labels outside \[0, {k}\)"):
        grid_search(d, d, [0, label, 1])
