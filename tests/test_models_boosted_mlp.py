import numpy as np
import pytest

from cardiofuse.models import (AdaBoostClassifier, MLPClassifier, ModelError,
                               ProbabilisticClassifier)
from cardiofuse.models.adaboost import _best_stump
from cardiofuse.models.base import one_hot


def finite_difference_grads(model, X, Y, step=1e-5):
    """Central-difference gradient of the batch loss, parameter by parameter."""
    grads = {}
    for name in ("W1", "b1", "W2", "b2"):
        theta = getattr(model, name)
        g = np.zeros_like(theta)
        it = np.nditer(theta, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = theta[idx]
            theta[idx] = orig + step
            up, _ = model.loss_and_grads(X, Y)
            theta[idx] = orig - step
            down, _ = model.loss_and_grads(X, Y)
            theta[idx] = orig
            g[idx] = (up - down) / (2 * step)
            it.iternext()
        grads[name] = g
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in ("W1", "b1", "W2", "b2"):
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def analytic_as_dict(grads):
    gW1, gb1, gW2, gb2 = grads
    return {"W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2}


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    for trial in range(5):
        k = 2 if trial % 2 == 0 else 5
        model = MLPClassifier(hidden_units=4, seed=trial)
        model.class_count_ = k
        model.init_params(n_features=6)
        X = rng.random((5, 6))
        Y = one_hot(rng.integers(0, k, 5), k)
        _, analytic = model.loss_and_grads(X, Y)
        numeric = finite_difference_grads(model, X, Y)
        assert max_relative_error(analytic_as_dict(analytic), numeric) < 1e-4


def test_mlp_outputs_are_normalized():
    rng = np.random.default_rng(1)
    X = rng.random((40, 13))
    y = rng.integers(0, 5, 40)
    m = MLPClassifier(epochs=3, batch_size=5, seed=2)
    m.class_count_ = 5
    m.fit(X, y)
    p = m.predict_proba(rng.random((20, 13)))
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9
    assert (p >= 0).all() and (p <= 1).all()


def test_mlp_zero_epochs_is_initial_network():
    rng = np.random.default_rng(3)
    X = rng.random((30, 8))
    y = rng.integers(0, 2, 30)
    m = MLPClassifier(epochs=0, seed=9)
    m.class_count_ = 2
    m.fit(X, y)
    fresh = MLPClassifier(epochs=0, seed=9)
    fresh.class_count_ = 2
    fresh.init_params(8, np.random.default_rng(9))
    assert np.array_equal(m.W1, fresh.W1)
    assert np.array_equal(m.W2, fresh.W2)
    assert (m.b1 == 0).all() and (m.b2 == 0).all()


def test_mlp_training_is_deterministic():
    rng = np.random.default_rng(4)
    X = rng.random((50, 6))
    y = rng.integers(0, 2, 50)
    runs = []
    for _ in range(2):
        m = MLPClassifier(epochs=5, batch_size=10, seed=13)
        m.class_count_ = 2
        m.fit(X, y)
        runs.append(m._params_to_dict())
    assert runs[0] == runs[1]


def test_mlp_learns_simple_structure():
    rng = np.random.default_rng(5)
    X = rng.random((200, 4))
    y = (X[:, 0] > 0.5).astype(int)
    m = MLPClassifier(epochs=15, batch_size=10, learning_rate=0.01, seed=2)
    m.class_count_ = 2
    m.fit(X, y)
    assert (m.predict(X) == y).mean() > 0.9


# adaboost --------------------------------------------------------------------

def one_dim_threshold_data():
    X = np.array([[0.1], [0.2], [0.3], [0.4], [0.6], [0.7], [0.8], [0.9]])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    return X, y


def test_adaboost_one_round_solves_threshold_data():
    X, y = one_dim_threshold_data()
    m = AdaBoostClassifier(n_estimators=1, learning_rate=0.01).fit(X, y)
    assert (m.predict(X) == y).all()
    assert len(m.stumps_) == 1


def test_adaboost_weights_renormalized_each_round():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
    m = AdaBoostClassifier(n_estimators=25, learning_rate=0.5).fit(X, y)
    assert len(m.weight_history_sum_) > 0
    for s in m.weight_history_sum_:
        assert abs(s - 1.0) < 1e-12


def test_adaboost_training_error_non_increasing_on_separable_data():
    X, y = one_dim_threshold_data()
    m = AdaBoostClassifier(n_estimators=10, learning_rate=0.3).fit(X, y)
    # staged prediction from the recorded stumps and alphas
    n = len(X)
    F = np.zeros((n, 2))
    errors = []
    for (f, thr, lc, rc), alpha in zip(m.stumps_, m.alphas_):
        pred = np.where(X[:, f] <= thr, lc, rc) if f >= 0 else np.full(n, rc)
        F[np.arange(n), pred] += alpha
        errors.append(np.mean(F.argmax(axis=1) != y))
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def test_adaboost_perfect_stump_caps_alpha():
    X, y = one_dim_threshold_data()
    m = AdaBoostClassifier(n_estimators=50, learning_rate=0.01).fit(X, y)
    # error 0 on the first stump: alpha capped, ensemble closed early
    assert len(m.alphas_) == 1
    assert m.alphas_[0] == pytest.approx(0.01 * 0.5 * np.log(1e10))


def _stump_oracle(X, y, w):
    """Brute force: features in order, orientation (0, 1) before (1, 0), midpoints ascending."""
    w1 = w[y == 1].sum()
    w0 = w.sum() - w1
    best = (-1, -np.inf, 1, 1, w0) if w1 >= w0 else (-1, -np.inf, 0, 0, w1)
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f]))
        for lc, rc in ((0, 1), (1, 0)):
            for a, b in zip(values, values[1:]):
                thr = (a + b) / 2.0
                err = w[np.where(X[:, f] <= thr, lc, rc) != y].sum()
                if err < best[4]:   # the first minimum wins a tie
                    best = (f, thr, lc, rc, err)
    return best


def test_best_stump_matches_brute_force_and_its_tie_order():
    rng = np.random.default_rng(13)
    for trial in range(60):
        n, d = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        X = rng.integers(0, 4, size=(n, d)).astype(float)   # many tied values and errors
        if trial % 3 == 0:
            X = np.hstack([X, X])   # every stump ties with its duplicate feature
        y = rng.integers(0, 2, n)
        w = rng.integers(1, 5, n) / 64.0   # dyadic weights: every sum is exact
        got, want = _best_stump(X, y, w), _stump_oracle(X, y, w)
        assert got == tuple(float(v) if i in (1, 4) else int(v) for i, v in enumerate(want))


def test_best_stump_near_brute_force_on_real_valued_weights():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        X = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, n)
        w = rng.random(n)
        w /= w.sum()
        f, thr, lc, rc, err = _best_stump(X, y, w)
        assert err == pytest.approx(_stump_oracle(X, y, w)[4], abs=1e-12)
        pred = np.where(X[:, f] <= thr, lc, rc) if f >= 0 else np.full(n, rc)
        assert err == pytest.approx(w[pred != y].sum(), abs=1e-12)


def test_adaboost_at_chance_keeps_the_uniform_weight_stump():
    # XOR: no stump beats 0.5 weighted error, so the first round stops the ensemble
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    m = AdaBoostClassifier(n_estimators=10).fit(X, y)
    assert m.stumps_ == [_best_stump(X, y, np.full(4, 0.25))[:4]]
    assert m.alphas_ == [0.0] and m.weight_history_sum_ == []
    assert (m.predict_proba(X) == 0.5).all()


def test_adaboost_rejects_multiclass():
    X = np.zeros((6, 2))
    y = np.array([0, 1, 2, 0, 1, 2])
    with pytest.raises(ModelError):
        AdaBoostClassifier().fit(X, y)


def test_adaboost_scores_are_softmax_votes():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 2))
    y = (X[:, 0] > 0).astype(int)
    m = AdaBoostClassifier(n_estimators=5, learning_rate=0.1).fit(X, y)
    F = m.vote_totals(X)
    expect = np.exp(F - F.max(axis=1, keepdims=True))
    expect /= expect.sum(axis=1, keepdims=True)
    assert np.allclose(m.predict_proba(X), expect)


def test_all_models_honor_probability_contract():
    rng = np.random.default_rng(8)
    X = rng.random((60, 5))
    y = rng.integers(0, 2, 60)
    y[:2] = [0, 1]
    from cardiofuse.models import make_model
    for kind, kwargs in [("LR", {}), ("SVM", {"gamma": 0.5}),
                         ("DT", {"max_features": 5, "seed": 0}),
                         ("RF", {"n_estimators": 8, "seed": 0}),
                         ("ANN", {"epochs": 2, "seed": 0}), ("ADA", {"n_estimators": 5})]:
        m = make_model(kind, **kwargs).fit(X, y)
        p = m.predict_proba(X)
        assert p.shape == (60, 2), kind
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9, kind
        assert (p >= 0).all() and (p <= 1).all(), kind


def test_every_trainer_is_deterministic():
    rng = np.random.default_rng(10)
    X = rng.random((50, 5))
    y = rng.integers(0, 2, 50)
    y[:2] = [0, 1]
    from cardiofuse.models import make_model
    for kind, kwargs in [("LR", {}), ("SVM", {"gamma": 0.2}),
                         ("DT", {"max_features": 5, "seed": 4}),
                         ("RF", {"n_estimators": 6, "seed": 4}),
                         ("ANN", {"epochs": 3, "seed": 4}), ("ADA", {"n_estimators": 8})]:
        fits = [make_model(kind, **kwargs).fit(X, y).to_dict() for _ in range(2)]
        assert fits[0] == fits[1], kind


def test_serialization_round_trip_each_kind():
    rng = np.random.default_rng(9)
    X = rng.random((40, 4))
    y = rng.integers(0, 2, 40)
    y[:2] = [0, 1]
    from cardiofuse.models import make_model
    for kind, kwargs in [("LR", {}), ("SVM", {}), ("DT", {"max_features": 4, "seed": 1}),
                         ("RF", {"n_estimators": 4, "seed": 1}),
                         ("ANN", {"epochs": 1, "seed": 1}), ("ADA", {"n_estimators": 3})]:
        m = make_model(kind, **kwargs).fit(X, y)
        clone = ProbabilisticClassifier.from_dict(m.to_dict())
        assert np.allclose(clone.predict_proba(X), m.predict_proba(X)), kind
