import inspect
import json
import re
import warnings

import numpy as np
import pytest

from cardiofuse.models import (MODEL_KINDS, AdaBoostClassifier, DivergenceError,
                               LogisticRegressionClassifier, MLPClassifier, ModelError,
                               NotFittedError, ProbabilisticClassifier, ShapeError,
                               SVMClassifier, make_model, model_class)
from cardiofuse.models.base import one_blas_thread
from cardiofuse.models.svm import (_solve_dual, fit_platt, kernel_factor,
                                   linear_kernel, platt_prob, rbf_kernel)


def separable_set(rng, n=20):
    """Points split by the line x0 + x1 = 0 with a wide margin."""
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    X[y == 1] += 1.5
    X[y == 0] -= 1.5
    return X, y


AND_X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
AND_Y = np.array([0, 0, 0, 1])
XOR_X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
XOR_Y = np.array([0, 1, 1, 0])


# logistic regression ---------------------------------------------------------

def test_lr_learns_and():
    m = LogisticRegressionClassifier(C=10.0).fit(AND_X, AND_Y)
    assert (m.predict(AND_X) == AND_Y).all()


def test_lr_degenerate_single_label():
    X = np.array([[0.0], [1.0], [2.0]])
    m = LogisticRegressionClassifier().fit(X, np.zeros(3, dtype=int))
    p = m.predict_proba(np.array([[5.0]]))
    assert p[0, 0] > 0.95


def test_lr_stronger_regularization_shrinks_weights():
    rng = np.random.default_rng(0)
    X, y = separable_set(rng, 40)
    loose = LogisticRegressionClassifier(C=1.0).fit(X, y)
    tight = LogisticRegressionClassifier(C=0.001).fit(X, y)
    assert np.linalg.norm(tight.w_) < np.linalg.norm(loose.w_)


def test_lr_decision_boundary_is_half_half():
    m = LogisticRegressionClassifier()
    m.n_features_ = 2
    m.class_count_ = 2
    m.w_ = np.array([1.0, -2.0])
    m.b_ = 0.5
    m.fitted = True
    x = np.array([[1.5, 1.0]])  # w.x + b = 1.5 - 2 + 0.5 = 0
    assert m.predict_proba(x)[0].tolist() == [0.5, 0.5]


def test_lr_multiclass_softmax_scores():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 3))
    y = rng.integers(0, 4, 60)
    m = LogisticRegressionClassifier(C=1.0).fit(X, y)
    p = m.predict_proba(X)
    assert p.shape == (60, 4)
    assert np.abs(p.sum(axis=1) - 1).max() < 1e-9


def test_lr_separable_perfect_training_accuracy():
    for seed in range(5):
        X, y = separable_set(np.random.default_rng(seed))
        m = LogisticRegressionClassifier(C=100.0).fit(X, y)
        assert (m.predict(X) == y).all()


# svm -------------------------------------------------------------------------

def test_svm_margins_on_separable_data():
    rng = np.random.default_rng(2)
    X, y = separable_set(rng, 12)
    # near-hard-margin setup, tightened KKT tolerance for exact margins
    m = SVMClassifier(C=1e6, kernel="linear", tol=1e-6, max_passes=2000).fit(X, y)
    f = m.decision_function(X)
    margins = np.where(y == 1, 1.0, -1.0) * f
    assert margins.min() >= 1.0 - 1e-6


def test_svm_separable_perfect_training_accuracy():
    for seed in range(5):
        X, y = separable_set(np.random.default_rng(seed))
        m = SVMClassifier(C=1e4, kernel="linear").fit(X, y)
        assert (m.predict(X) == y).all()


def test_svm_rbf_solves_xor():
    m = SVMClassifier(C=10.0, kernel="rbf", gamma=1.0).fit(XOR_X, XOR_Y)
    assert (m.predict(XOR_X) == XOR_Y).all()


def test_svm_single_class_degenerate():
    X = np.tile([[1.0, 2.0]], (5, 1))
    m = SVMClassifier().fit(X, np.zeros(5, dtype=int))
    p = m.predict_proba(X[:1])
    assert p[0].tolist() == [1.0, 0.0]


def test_svm_convergence_warning_on_tiny_cap():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 2, 60)
    with pytest.warns(UserWarning, match="KKT"):
        SVMClassifier(C=1.0, kernel="rbf", gamma=0.5, max_passes=1).fit(X, y)


def test_svm_multiclass_one_vs_rest_scores():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 3))
    y = rng.integers(0, 5, 80)
    m = SVMClassifier(C=1.0, kernel="linear").fit(X, y)
    p = m.predict_proba(X[:10])
    assert p.shape == (10, 5)
    assert np.abs(p.sum(axis=1) - 1).max() < 1e-9
    assert len(m.machines_) == 5


def test_a_nan_row_is_an_error_for_every_model():
    # refused before fitting or scoring: one-vs-rest normalisation must not turn
    # a NaN row into a uniform row, nor a tree send it right as if it were data
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 3))
    for y in (rng.integers(0, 2, 80), rng.integers(0, 5, 80)):
        k = int(y.max()) + 1
        # ADA's boosted stumps are binary only; SVM's default kernel is the RBF
        models = [make_model(kind) for kind in MODEL_KINDS if kind != "ADA" or k == 2]
        for m in models + [SVMClassifier(kernel="linear")]:
            for j, bad in ((0, np.nan), (2, np.inf), (1, -np.inf)):
                train = X.copy()
                train[1, j] = bad
                with pytest.raises(ModelError, match=re.escape(
                        f"{m.kind} model cannot fit on row 1: feature {j} is {bad}")):
                    m.fit(train, y)
            # a label outside 0..k-1 is refused too, not wrapped, clipped or read as
            # negative, and the refused fit leaves the class count as it was
            for count, label in ((None, -1), (k, k), (k, -1)):
                m.class_count_ = count
                labels = y.copy()
                labels[1] = label
                with pytest.raises(ModelError, match=re.escape(
                        f"{m.kind} model cannot fit on row 1: label {label} is not in 0..{k - 1}")):
                    m.fit(X, labels)
                assert m.class_count_ == count
            m.fit(X, y)
            for j, bad in ((0, np.nan), (2, np.inf), (1, -np.inf)):
                rows = np.zeros((2, 3))
                rows[1, j] = bad
                with pytest.raises(ModelError, match=re.escape(
                        f"{m.kind} model cannot score row 1: feature {j} is {bad}")):
                    m.predict_proba(rows)


def test_an_inferred_class_count_is_inferred_again_and_a_set_one_stays():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 3))
    five, two = rng.integers(0, 5, 60), rng.integers(0, 2, 60)
    five[:5], two[:2] = np.arange(5), np.arange(2)
    for kind in MODEL_KINDS:
        if kind == "ADA":   # boosted stumps are binary only
            continue
        m = make_model(kind)
        for labels, k in ((five, 5), (two, 2), (five, 5)):   # each fit infers its own count
            m.fit(X, labels)
            assert m.class_count_ == k and m.predict_proba(X[:1]).shape == (1, k), kind
        with pytest.raises(ModelError, match="label -1 is not in 0..1"):
            m.fit(X, np.where(two == 1, -1, two))
        assert m.class_count_ == 5   # a refused fit leaves the count as it was
        m.class_count_ = 5   # a count set before fit stays for every later fit
        for labels in (two, two):
            m.fit(X, labels)
            assert m.class_count_ == 5 and m.predict_proba(X[:1]).shape == (1, 5), kind
        with pytest.raises(ModelError, match="label 5 is not in 0..4"):
            m.fit(X, five + 1)
        assert m.class_count_ == 5


# model lifecycle: settings pass the constructor, fitted state comes from fit or from_dict

def test_a_refused_fit_leaves_a_fitted_model_as_it_was():
    rng = np.random.default_rng(10)
    X, y = rng.normal(size=(60, 4)), rng.integers(0, 2, 60)
    labels = y.copy()
    labels[1] = 7
    for kind in MODEL_KINDS:
        m = make_model(kind)
        m.class_count_ = 2   # as the pipeline sets it
        m.fit(X, y)
        scores, doc = m.predict_proba(X), m.to_dict()
        # refused on its labels, after the width of the rows was read
        with pytest.raises(ModelError, match=re.escape(
                f"{kind} model cannot fit on row 1: label 7 is not in 0..1")):
            m.fit(X[:, :3], labels)
        assert m.predict_proba(X).tobytes() == scores.tobytes(), kind
        assert m.to_dict() == doc, kind


def _assert_unfitted(m, X):
    with pytest.raises(NotFittedError):
        m.predict_proba(X)
    with pytest.raises(NotFittedError):
        m.to_dict()


def test_a_diverging_ann_refit_leaves_the_model_unfitted():
    rng = np.random.default_rng(6)
    X, y = rng.normal(size=(40, 5)) * 100, rng.integers(0, 2, 40)
    m = MLPClassifier(epochs=5, seed=1).fit(X, y)
    m.learning_rate = 1e150
    with pytest.raises(DivergenceError, match=r"at learning rate 1e\+150"):
        m.fit(X, y)
    _assert_unfitted(m, X)


def test_a_three_label_refit_of_binary_boosting_leaves_it_unfitted():
    rng = np.random.default_rng(6)
    X, y = rng.normal(size=(40, 5)), rng.integers(0, 2, 40)
    m = AdaBoostClassifier().fit(X, y)
    with pytest.raises(ModelError, match="binary tasks only"):
        m.fit(X, np.arange(40) % 3)
    _assert_unfitted(m, X)   # it was fitted, and a document would say class_count 3


def test_an_svm_refit_on_one_class_keeps_no_machine_of_the_last_fit():
    X, y = separable_set(np.random.default_rng(6))
    m = SVMClassifier().fit(X, y)
    assert len(m.machines_) == len(m.solver_) == 1
    m.fit(X, np.zeros(len(X), dtype=int))
    params = m.to_dict()["params"]
    assert params["single_class"] == 0 and params["machines"] == [] and m.solver_ == []
    assert m.predict_proba(X[:1]).tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize("kind,setting,value,message", [
    ("SVM", "kernel", "poly", "unsupported kernel 'poly'"),
    ("SVM", "C", -1, "C must be positive"),
    ("SVM", "gamma", -1.0, "gamma must be positive"),
    ("SVM", "gamma", 0.0, "gamma must be positive"),
    ("SVM", "tol", 0.0, "tol must be positive"),
    ("SVM", "max_passes", 0, "max_passes must be >= 1"),
    ("LR", "tol", -1e-6, "tol must be positive"),
    ("LR", "max_iter", 0, "max_iter must be >= 1"),
    ("ANN", "l2", -0.01, "l2 must be at least 0, not -0.01"),
    ("DT", "min_samples_leaf", -1, "min_samples_leaf must be >= 0"),
    ("RF", "min_samples_leaf", -1, "min_samples_leaf must be >= 0"),
    ("RF", "n_estimators", 0, "n_estimators must be >= 1"),
])
def test_a_setting_no_fit_can_use_is_refused_by_the_constructor_and_by_from_dict(
        kind, setting, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_model(kind, **{setting: value})
    if setting not in model_class(kind)._PARAMS:   # a setting documents do not carry
        return
    rng = np.random.default_rng(11)
    model = make_model(kind, **({"n_estimators": 3} if kind == "RF" else {}))
    doc = json.loads(json.dumps(model.fit(rng.normal(size=(40, 3)),
                                          rng.integers(0, 2, 40)).to_dict()))
    doc["params"][setting] = value
    with pytest.raises(ModelError, match=re.escape(f"{kind} model document: {message}")):
        ProbabilisticClassifier.from_dict(doc)


def test_tree_settings_of_zero_stay_legal():
    for kind in ("DT", "RF"):
        assert make_model(kind, min_samples_leaf=0, max_features=0).min_samples_leaf == 0


def test_every_document_setting_is_a_constructor_argument():
    # from_dict builds a model through its constructor from these names
    for kind in MODEL_KINDS:
        cls = model_class(kind)
        assert set(cls._PARAMS) <= set(inspect.signature(cls).parameters), kind


def test_svm_decision_function_refuses_what_it_cannot_score():
    X, y = separable_set(np.random.default_rng(6))
    m = SVMClassifier()
    with pytest.raises(NotFittedError, match="SVM model is not fitted"):
        m.decision_function(X)
    m.fit(X, y)
    assert m.decision_function(X, 0).shape == (len(X),)
    for machine in (1, -1):
        with pytest.raises(ModelError, match=f"SVM model has no machine {machine}; it has 1"):
            m.decision_function(X, machine)
    m.fit(X, np.zeros(len(X), dtype=int))   # a single-class model has no machine
    with pytest.raises(ModelError, match="SVM model has no machine 0; it has 0"):
        m.decision_function(X)


def test_platt_fit_is_monotone_and_calibrated():
    rng = np.random.default_rng(5)
    f = rng.normal(size=200) * 2
    y = (rng.random(200) < 1 / (1 + np.exp(-2 * f))).astype(float)
    A, B = fit_platt(f, y)
    grid = np.linspace(-3, 3, 50)
    p = platt_prob(A, B, grid)
    assert ((p > 0) & (p < 1)).all()
    assert (np.diff(p) >= -1e-12).all()  # increasing in the decision value
    # roughly recovers the generating slope
    assert A < 0  # positive decisions must map to p > 0.5


def test_svm_dual_feasibility_on_real_data():
    # box constraints and the equality constraint of the dual optimum
    from cardiofuse.dataset import bundled_data_path, load_csv
    from cardiofuse.preprocess import (SplitSpec, TaskKind, apply_scaler,
                                       derive_task, encode_labels, fit_scaler,
                                       impute_most_frequent, split)
    t = load_csv(bundled_data_path())
    t = impute_most_frequent(t)
    t, _ = encode_labels(t)
    t = derive_task(t, TaskKind("binary"))
    train, _ = split(t, SplitSpec(0.2, seed=3))
    scaler = fit_scaler(train.rows, "zscore")
    m = SVMClassifier(C=1.0, kernel="rbf", gamma=0.1)
    m.fit(apply_scaler(scaler, train.rows), train.labels)
    coef = m.machines_[0]["coef"]  # alpha_i * y_i for the support vectors
    assert np.abs(coef).max() <= 1.0 + 1e-9
    assert abs(coef.sum()) < 1e-8
    assert len(coef) > 0


def test_contract_errors():
    m = SVMClassifier()
    with pytest.raises(NotFittedError):
        m.predict_proba(np.zeros((1, 2)))
    rng = np.random.default_rng(6)
    X, y = separable_set(rng)
    m.fit(X, y)
    with pytest.raises(ShapeError):
        m.predict_proba(np.zeros((1, 3)))


# interior-point dual solver ----------------------------------------------------

def _desk_svm_fit(task, test_fraction, seed=0):
    """The SVM training set and hyperparameters of one desk experiment."""
    from cardiofuse.dataset import bundled_data_path, load_csv
    from cardiofuse.hyperparams import defaults_for
    from cardiofuse.pipeline import child_seed
    from cardiofuse.preprocess import (SplitSpec, TaskKind, apply_scaler,
                                       derive_task, encode_labels, fit_scaler,
                                       impute_most_frequent, random_oversample,
                                       split)
    t = load_csv(bundled_data_path())
    t = impute_most_frequent(t)
    t, _ = encode_labels(t)
    t = derive_task(t, TaskKind(task))
    train, _ = split(t, SplitSpec(test_fraction, child_seed(seed, "split")))
    if task == "multiclass":
        train = random_oversample(train, child_seed(seed, "oversample"))
    X = apply_scaler(fit_scaler(train.rows, "zscore"), train.rows)
    return X, train.labels, defaults_for(task, test_fraction)["SVM"]


def _assert_kkt(model, X, y):
    """Every machine converged, and its margins meet the KKT conditions at tol.

    The oracle solves again in the one-thread scope the fit runs in, so its
    products sum in the same order and array_equal can hold."""
    with one_blas_thread:
        Z = kernel_factor(X, model.kernel, model.gamma)
    positives = [1] if model.class_count_ == 2 else range(model.class_count_)
    assert len(model.solver_) == len(model.machines_) == len(positives)
    for i, cls in enumerate(positives):
        stats = model.solver_[i]
        assert stats["converged"] and stats["gap"] <= model.tol
        assert 0 < stats["iterations"] <= model.max_passes
        ypm = np.where(y == cls, 1.0, -1.0)
        with one_blas_thread:
            alpha = _solve_dual(Z, ypm, model.C, model.tol, model.max_passes)[0]
        assert np.array_equal((alpha * ypm)[alpha > 1e-10], model.machines_[i]["coef"])
        margin = ypm * model.decision_function(X, i) - 1.0
        slack = model.tol + 1e-9
        assert (margin[alpha < model.C] >= -slack).all()
        assert (margin[alpha > 0] <= slack).all()


@pytest.mark.parametrize("task", ["binary", "multiclass"])
@pytest.mark.parametrize("test_fraction", [0.3, 0.2])
def test_svm_desk_machines_converge(task, test_fraction):
    X, y, hp = _desk_svm_fit(task, test_fraction)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = SVMClassifier(**hp).fit(X, y)
    _assert_kkt(model, X, y)


@pytest.mark.parametrize("kernel", ["rbf", "linear"])
def test_svm_converges_on_duplicated_rows(kernel):
    # oversampling repeats rows, which gives identical kernel rows
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 4))
    y = (X[:, 0] - X[:, 1] + 0.5 * rng.normal(size=40) > 0).astype(np.int64)
    repeat = rng.integers(0, 40, 80)
    X, y = np.vstack([X, X[repeat]]), np.concatenate([y, y[repeat]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = SVMClassifier(C=10.0, kernel=kernel, gamma=0.5).fit(X, y)
    _assert_kkt(model, X, y)


def test_svm_converges_at_large_c_on_overlapping_classes():
    # random labels put most rows on the bound C; there the Newton systems
    # are the worst conditioned the solver meets
    rng = np.random.default_rng(10)
    X = rng.normal(size=(40, 8))
    y = (rng.random(40) < 0.5).astype(np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = SVMClassifier(C=1e5, kernel="linear", tol=1e-6).fit(X, y)
    _assert_kkt(model, X, y)


def test_kernel_factor_reproduces_the_kernel():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 6))
    X = np.vstack([X, X[:10]])
    Z = kernel_factor(X, "rbf", 0.3)
    assert np.abs(Z @ Z.T - rbf_kernel(X, X, 0.3)).max() <= 1e-10
    assert Z.shape[1] <= 50             # duplicates add no rank
    K = linear_kernel(X, X)
    Z = kernel_factor(X, "linear")
    assert np.abs(Z @ Z.T - K).max() <= 1e-10 * np.diag(K).max()
    assert Z.shape[1] <= X.shape[1]


@pytest.mark.parametrize("kernel,k", [("rbf", 2), ("linear", 5)])
def test_svm_document_round_trips_scores(kernel, k):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(90, 5))
    y = rng.integers(0, k, 90)
    model = SVMClassifier(C=1.0, kernel=kernel, gamma=0.2).fit(X, y)
    doc = json.loads(json.dumps(model.to_dict()))
    assert "solver" not in json.dumps(doc)
    again = ProbabilisticClassifier.from_dict(doc)
    Xq = rng.normal(size=(30, 5))
    assert np.array_equal(again.predict_proba(Xq), model.predict_proba(Xq))
