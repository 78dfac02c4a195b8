import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardiofuse.models import (AdaBoostClassifier, DivergenceError, MLPClassifier,
                               ModelError, ProbabilisticClassifier)
from cardiofuse.models import adaboost
from cardiofuse.models.adaboost import _best_stump, split_scan
from cardiofuse.models.base import one_blas_thread, one_hot


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
        runs.append(m.to_dict()["params"])
    assert runs[0] == runs[1]


def test_mlp_learns_simple_structure():
    rng = np.random.default_rng(5)
    X = rng.random((200, 4))
    y = (X[:, 0] > 0.5).astype(int)
    m = MLPClassifier(epochs=15, batch_size=10, learning_rate=0.01, seed=2)
    m.class_count_ = 2
    m.fit(X, y)
    assert (m.predict(X) == y).mean() > 0.9


def _reference_fit(model, X, y):
    """The training loop step by step: each batch is indexed out of X through
    the epoch's order, loss_and_grads gives its gradients, and the four weight
    arrays are updated one after another."""
    rng = np.random.default_rng(model.seed)
    model.init_params(X.shape[1], rng)
    Y = one_hot(y, model.class_count_)
    lr = model.learning_rate
    for _ in range(model.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), model.batch_size):
            batch = order[start:start + model.batch_size]
            loss, (gW1, gb1, gW2, gb2) = model.loss_and_grads(X[batch], Y[batch])
            assert np.isfinite(loss)
            model.W1 -= lr * gW1
            model.b1 -= lr * gb1
            model.W2 -= lr * gW2
            model.b2 -= lr * gb2


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("batch_size", [5, 10])
def test_mlp_fit_equals_the_reference_loop_bit_for_bit(k, batch_size):
    # n = 37 leaves a short last batch at either batch size
    rng = np.random.default_rng(k * 100 + batch_size)
    X = rng.normal(size=(37, 6))
    y = rng.integers(0, k, 37)
    fitted, reference = (MLPClassifier(batch_size=batch_size, epochs=4, learning_rate=0.05,
                                       seed=11) for _ in range(2))
    fitted.class_count_ = reference.class_count_ = k
    fitted.fit(X, y)
    with one_blas_thread:
        _reference_fit(reference, X, y)
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(fitted, name), getattr(reference, name)), name


def test_mlp_divergence_is_an_error():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 5)) * 100
    y = rng.integers(0, 2, 40)
    m = MLPClassifier(learning_rate=1e150, epochs=5, seed=1)
    m.class_count_ = 2
    # the diverging arithmetic overflows on the way, which the suite would turn into errors
    with np.errstate(all="ignore"), pytest.raises(DivergenceError,
                                                  match=r"at learning rate 1e\+150"):
        m.fit(X, y)


@pytest.mark.filterwarnings("error")
def test_mlp_divergence_raises_its_error_and_no_warning():
    # no numpy overflow or invalid-value warning comes first: under the suite's
    # filters it would be raised in place of the DivergenceError
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 5)) * 100
    y = rng.integers(0, 2, 40)
    m = MLPClassifier(learning_rate=1e150, epochs=5, seed=1)
    m.class_count_ = 2
    with pytest.raises(DivergenceError, match=r"at learning rate 1e\+150"):
        m.fit(X, y)


def test_mlp_refuses_loop_bounds_that_train_nothing():
    for setting, message in (({"batch_size": 0}, "batch_size must be at least 1, not 0"),
                             ({"batch_size": -1}, "batch_size must be at least 1, not -1"),
                             ({"hidden_units": 0}, "hidden_units must be at least 1, not 0"),
                             ({"epochs": -3}, "epochs must be at least 0, not -3")):
        with pytest.raises(ValueError, match=re.escape(message)):
            MLPClassifier(**setting)
    assert MLPClassifier(epochs=0, batch_size=1, hidden_units=1).epochs == 0


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


def test_adaboost_weights_renormalized_each_round(monkeypatch):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
    sums = []

    def recording_best_stump(scan, y, w):
        sums.append(float(w.sum()))
        return _best_stump(scan, y, w)

    monkeypatch.setattr(adaboost, "_best_stump", recording_best_stump)
    m = AdaBoostClassifier(n_estimators=25, learning_rate=0.5).fit(X, y)
    # one call per round; every round after the first runs on reweighted samples
    assert len(m.stumps_) > 1 and len(sums) >= len(m.stumps_)
    for s in sums:
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
        got, want = _best_stump(split_scan(X), y, w), _stump_oracle(X, y, w)
        assert got == tuple(float(v) if i in (1, 4) else int(v) for i, v in enumerate(want))


def test_best_stump_near_brute_force_on_real_valued_weights():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        X = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, n)
        w = rng.random(n)
        w /= w.sum()
        f, thr, lc, rc, err = _best_stump(split_scan(X), y, w)
        assert err == pytest.approx(_stump_oracle(X, y, w)[4], abs=1e-12)
        pred = np.where(X[:, f] <= thr, lc, rc) if f >= 0 else np.full(n, rc)
        assert err == pytest.approx(w[pred != y].sum(), abs=1e-12)


def test_adaboost_at_chance_keeps_the_uniform_weight_stump():
    # XOR: no stump beats 0.5 weighted error, so the first round stops the ensemble
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    m = AdaBoostClassifier(n_estimators=10).fit(X, y)
    assert m.stumps_ == [_best_stump(split_scan(X), y, np.full(4, 0.25))[:4]]
    assert m.alphas_ == [0.0]
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


def _vote_totals_loop(model, X):
    """The per-stump fancy-index add that vote_totals replaced, kept as its reference."""
    n = X.shape[0]
    F = np.zeros((n, 2))
    for (f, thr, lc, rc), alpha in zip(model.stumps_, model.alphas_):
        pred = np.where(X[:, f] <= thr, lc, rc) if f >= 0 else np.full(n, rc)
        F[np.arange(n), pred] += alpha
    return F


def test_vote_totals_equal_the_per_stump_loop_bit_for_bit():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(120, 4))
    y = (X[:, 0] + 0.8 * rng.normal(size=120) > 0).astype(int)
    models = [AdaBoostClassifier(n_estimators=150, learning_rate=0.05).fit(X, y),
              AdaBoostClassifier(n_estimators=3).fit(X, y),
              AdaBoostClassifier().fit(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0],
                                                 [1.0, 1.0]]), np.array([0, 1, 1, 0]))]
    assert models[0].alphas_ and models[2].stumps_[0][0] == -1   # a degenerate stump too
    Xq = rng.normal(size=(3000, 4))
    Xq[::7, 0] = np.nan   # NaN fails x <= threshold and votes right
    for m in models:
        d = 2 if m is models[2] else 4
        for rows in (Xq[:, :d], Xq[:1, :d], Xq[7:8, :d], Xq[:0, :d]):
            assert np.array_equal(m.vote_totals(rows), _vote_totals_loop(m, rows))
            assert m.vote_totals(rows).flags.c_contiguous


_GRID = np.arange(-16, 17) / 8   # thresholds and most cells share this grid, so x == thr occurs


def _random_stumps(rng, d, n_tests, n_stumps, degenerate):
    """``n_tests`` distinct (feature, grid threshold) tests, each used at least
    once, repeated up to ``n_stumps`` stumps in random order, with no-split
    stumps mixed in at the rate ``degenerate``."""
    pool = [(f, float(t)) for f in range(d) for t in _GRID]
    tests = [pool[i] for i in rng.choice(len(pool), size=n_tests, replace=False)]
    picks = list(range(n_tests))
    if n_tests:
        picks += list(rng.integers(0, n_tests, n_stumps - n_tests))
    stumps = []
    for i in rng.permutation(picks):
        lc = int(rng.integers(2))
        stumps.append((*tests[i], lc, int(rng.integers(2)) if rng.random() < 0.2 else 1 - lc))
    for at in np.flatnonzero(rng.random(len(stumps) + 1) < degenerate):
        c = int(rng.integers(2))
        stumps.insert(int(at), (-1, -np.inf, c, c))
    if not stumps:
        stumps = [(-1, -np.inf, 1, 1)]
    alphas = rng.random(len(stumps)) * 10.0 ** rng.integers(-4, 1, len(stumps))
    alphas[rng.random(len(stumps)) < 0.05] = 0.0
    return stumps, [float(a) for a in alphas]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), n_tests=st.integers(0, 12),
       extra=st.integers(0, 250), degenerate=st.sampled_from([0.0, 0.01, 0.3]),
       n=st.integers(0, 50))
@example(seed=0, d=2, n_tests=3, extra=197, degenerate=0.0, n=400)     # a few tests, many repeats
@example(seed=1, d=6, n_tests=150, extra=50, degenerate=0.01, n=300)   # keys of 19 bytes
@example(seed=2, d=3, n_tests=65, extra=0, degenerate=0.0, n=1)        # 65 tests: one bit past 8 key bytes
@example(seed=3, d=1, n_tests=0, extra=0, degenerate=0.0, n=5)         # only the no-split stump
@example(seed=4, d=3, n_tests=0, extra=0, degenerate=0.0, n=0)         # and no rows
@example(seed=5, d=2, n_tests=4, extra=30, degenerate=0.3, n=0)       # no rows, many no-split stumps
def test_vote_totals_equal_the_loop_on_random_stumps(seed, d, n_tests, extra, degenerate, n):
    rng = np.random.default_rng(seed)
    m = AdaBoostClassifier()
    m.stumps_, m.alphas_ = _random_stumps(rng, d, n_tests, n_tests + extra, degenerate)
    X = rng.choice(_GRID, size=(n, d)) + np.where(rng.random((n, d)) < 0.3,
                                                  rng.normal(scale=1e-3, size=(n, d)), 0.0)
    X[rng.random((n, d)) < 0.1] = np.nan   # NaN fails x <= threshold and votes right
    F = m.vote_totals(X)
    assert F.shape == (n, 2) and F.flags.c_contiguous
    assert np.array_equal(F, _vote_totals_loop(m, X))
    # batch independence: each row alone gets the bits it gets inside the batch
    alone = np.array([m.vote_totals(X[i:i + 1])[0] for i in range(n)]).reshape(n, 2)
    assert np.array_equal(alone, F)


def _vote_totals_by_row(model, X):
    """Each row's own running sum: every stump adds its alpha to the class it votes for."""
    F = np.zeros((len(X), 2))
    for i, x in enumerate(X):
        for (f, thr, lc, rc), alpha in zip(model.stumps_, model.alphas_):
            F[i, lc if f >= 0 and x[f] <= thr else rc] += alpha
    return F


def test_vote_totals_group_rows_by_keys_of_several_bytes():
    # 20 distinct tests: each row's outcomes pack into 3 bytes, and the rows
    # include ones that share a first byte but not the key, and the reverse
    rng = np.random.default_rng(12)
    m = AdaBoostClassifier()
    m.stumps_, m.alphas_ = _random_stumps(rng, 4, 20, 120, 0.05)
    X = rng.choice(_GRID, size=(600, 4))
    X[::9, 2] = np.nan   # NaN fails x <= threshold and votes right
    tests = list(dict.fromkeys(s[:2] for s in m.stumps_ if s[0] >= 0))
    keys = np.packbits(np.column_stack([X[:, f] <= t for f, t in tests]), axis=1)
    assert len(tests) == 20 and keys.shape[1] == 3
    whole, head, tail = (len(np.unique(a, axis=0)) for a in (keys, keys[:, :1], keys[:, 1:]))
    assert head < whole and tail < whole
    F = m.vote_totals(X)
    assert np.array_equal(F, _vote_totals_by_row(m, X))
    assert np.array_equal(F[5:6], m.vote_totals(X[5:6]))


def test_pipeline_ada_scores_a_cohort_as_the_loop(monkeypatch):
    """The master-seed-0 binary 80:20 ADA, its 200 stumps on a few distinct tests,
    scores a 20,000-row resample of the bundled table as the per-stump loop does."""
    from cardiofuse import pipeline
    from cardiofuse.dataset import bundled_data_path, load_csv
    from cardiofuse.models.base import softmax
    from cardiofuse.preprocess import apply_scaler, impute_most_frequent
    fits, scalers = {}, {}
    train_one, fit_scaler = pipeline._train_one, pipeline.fit_scaler

    def capture_fit(kind, hp, X, y, class_count):
        fits[kind] = train_one(kind, hp, X, y, class_count)
        return fits[kind]

    def capture_scaler(rows, kind):
        scalers[kind] = fit_scaler(rows, kind)
        return scalers[kind]

    monkeypatch.setattr(pipeline, "_train_one", capture_fit)
    monkeypatch.setattr(pipeline, "fit_scaler", capture_scaler)
    pipeline.run_experiment(pipeline.RunConfig(task="binary", test_fraction=0.2, master_seed=0,
                                               fusion_pairs=[("ADA", "DT")]))
    model = fits["ADA"]
    assert len(model.stumps_) == 200 and len({s[:2] for s in model.stumps_}) < 10
    table = impute_most_frequent(load_csv(bundled_data_path()))
    rows = table.rows[np.random.default_rng(0).integers(0, table.n_rows, 20000)]
    X = apply_scaler(scalers["zscore"], rows)
    loop = _vote_totals_loop(model, X)
    assert np.array_equal(model.vote_totals(X), loop)
    assert np.array_equal(model.predict_proba(X), softmax(loop))


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
