import hashlib
import json

import numpy as np
import pytest

from cardiofuse.models import DecisionTreeClassifier, RandomForestClassifier
from cardiofuse.models.tree import Tree, _impurity_rows, _TreeBuilder, split_scan

def blob_data(rng, n=120, d=5, k=2):
    X = rng.normal(size=(n, d))
    centers = rng.normal(scale=2.0, size=(k, d))
    y = rng.integers(0, k, n)
    X += centers[y]
    return X, y


def test_gini_values():
    # direct substitution: 1 - (0.5^2 + 0.5^2)
    imp = _impurity_rows(np.array([[5.0, 5.0], [10.0, 0.0]]), "gini")
    assert imp[0] == pytest.approx(0.5)
    assert imp[1] == 0.0


def test_entropy_values():
    imp = _impurity_rows(np.array([[5.0, 5.0], [7.0, 0.0]]), "entropy")
    assert imp[0] == pytest.approx(1.0)
    assert imp[1] == 0.0
    assert _impurity_rows(np.array([[1.0, 1.0, 1.0, 1.0]]), "entropy")[0] == pytest.approx(2.0)


def test_tree_learns_axis_split():
    X = np.linspace(0, 1, 40).reshape(-1, 1)
    y = (X[:, 0] > 0.5).astype(int)
    m = DecisionTreeClassifier(max_depth=3, max_features=1, min_samples_leaf=1,
                               splitter="best", seed=0).fit(X, y)
    assert (m.predict(X) == y).all()


def test_leaf_scores_are_class_frequencies():
    X = np.zeros((10, 2))  # no split possible
    y = np.array([0] * 6 + [1] * 4)
    m = DecisionTreeClassifier(splitter="best", seed=0).fit(X, y)
    p = m.predict_proba(np.zeros((1, 2)))
    assert p[0].tolist() == [0.6, 0.4]


def _leaf_sizes(tree, node, X, idx, out):
    if tree.feature[node] < 0:
        out.append(len(idx))
        return
    left = X[idx, tree.feature[node]] <= tree.threshold[node]
    _leaf_sizes(tree, tree.left[node], X, idx[left], out)
    _leaf_sizes(tree, tree.right[node], X, idx[~left], out)


def _depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(_depth(tree, tree.left[node]), _depth(tree, tree.right[node]))


@pytest.mark.parametrize("splitter", ["random", "best"])
def test_stopping_rules_respected(splitter):
    rng = np.random.default_rng(0)
    X, y = blob_data(rng, n=200, d=6)
    m = DecisionTreeClassifier(max_depth=4, max_features=6, min_samples_leaf=9,
                               splitter=splitter, seed=1).fit(X, y)
    sizes = []
    _leaf_sizes(m.tree_, 0, X, np.arange(len(X)), sizes)
    assert min(sizes) >= 9
    assert sum(sizes) == len(X)
    assert _depth(m.tree_) <= 4


def test_random_splitter_deterministic_per_seed():
    rng = np.random.default_rng(2)
    X, y = blob_data(rng)
    a = DecisionTreeClassifier(seed=7).fit(X, y)
    b = DecisionTreeClassifier(seed=7).fit(X, y)
    assert a._params_to_dict() == b._params_to_dict()
    c = DecisionTreeClassifier(seed=8).fit(X, y)
    assert (a.predict_proba(X) == b.predict_proba(X)).all()
    assert c._params_to_dict()["root"] != a._params_to_dict()["root"]


def test_best_split_invariant_under_monotone_transform():
    # threshold splits depend only on the ordering of feature values
    rng = np.random.default_rng(3)
    X, y = blob_data(rng, n=150, d=4, k=3)
    Xt = np.exp(X)  # strictly monotone per feature
    kw = dict(criterion="gini", max_depth=6, max_features=4, min_samples_leaf=3,
              splitter="best", seed=5)
    a = DecisionTreeClassifier(**kw).fit(X, y)
    b = DecisionTreeClassifier(**kw).fit(Xt, y)
    Xq = rng.normal(size=(60, 4))
    assert np.array_equal(a.predict(Xq), b.predict(np.exp(Xq)))


def test_forest_invariant_under_monotone_transform():
    rng = np.random.default_rng(9)
    X, y = blob_data(rng, n=120, d=4, k=2)
    kw = dict(n_estimators=7, seed=13, min_samples_leaf=2)
    a = RandomForestClassifier(**kw).fit(X, y)
    b = RandomForestClassifier(**kw).fit(np.exp(X), y)
    Xq = rng.normal(size=(40, 4))
    assert np.array_equal(a.predict(Xq), b.predict(np.exp(Xq)))


def test_forest_of_one_without_bootstrap_equals_tree():
    rng = np.random.default_rng(4)
    X, y = blob_data(rng)
    forest = RandomForestClassifier(n_estimators=1, seed=11, bootstrap=False,
                                    max_features=3, min_samples_leaf=2,
                                    max_depth=6).fit(X, y)
    tree = DecisionTreeClassifier(criterion="gini", max_depth=6, max_features=3,
                                  min_samples_leaf=2, splitter="best",
                                  seed=int(forest.tree_seeds_[0])).fit(X, y)
    assert np.array_equal(forest.predict_proba(X), tree.predict_proba(X))


def test_forest_score_equals_vote_fraction_under_hard_leaves():
    rng = np.random.default_rng(5)
    X, y = blob_data(rng, n=80, d=4)
    forest = RandomForestClassifier(n_estimators=25, seed=6).fit(X, y)
    scores = forest.predict_proba(X)
    # oracle: count the per-tree votes; fully grown leaves are pure
    votes = np.zeros_like(scores)
    for tree in forest.trees_:
        buf = tree.predict(X)
        assert np.isin(buf, (0.0, 1.0)).all()  # hard leaves
        votes[np.arange(len(X)), buf.argmax(axis=1)] += 1
    assert np.allclose(scores, votes / 25)


def test_forest_unanimous_vote_scores_one():
    X = np.array([[0.0], [1.0]] * 10)
    y = np.array([0, 1] * 10)
    forest = RandomForestClassifier(n_estimators=12, seed=1).fit(X, y)
    p = forest.predict_proba(np.array([[1.0]]))
    assert p[0, 1] == 1.0


def test_forest_deterministic_given_seed():
    rng = np.random.default_rng(7)
    X, y = blob_data(rng)
    a = RandomForestClassifier(n_estimators=10, seed=3).fit(X, y)
    b = RandomForestClassifier(n_estimators=10, seed=3).fit(X, y)
    assert a._params_to_dict() == b._params_to_dict()


def test_serialization_round_trip():
    from cardiofuse.models import ProbabilisticClassifier
    rng = np.random.default_rng(8)
    X, y = blob_data(rng)
    m = RandomForestClassifier(n_estimators=5, seed=2).fit(X, y)
    clone = ProbabilisticClassifier.from_dict(m.to_dict())
    assert np.array_equal(clone.predict_proba(X), m.predict_proba(X))


def test_tree_document_round_trips_unchanged():
    # pins the nested v1 node format: {"dist"} leaves, {"feature",
    # "threshold", "left", "right"} splits
    rng = np.random.default_rng(10)
    X, y = blob_data(rng, n=100, d=4, k=3)
    dt = DecisionTreeClassifier(min_samples_leaf=2, seed=1).fit(X, y)
    rf = RandomForestClassifier(n_estimators=4, seed=2).fit(X, y)
    docs = [dt.to_dict()["params"]["root"]] + rf.to_dict()["params"]["trees"]
    for doc in docs:
        assert Tree.from_dict(doc).to_dict() == doc
    leaf = docs[0]
    while "dist" not in leaf:
        assert list(leaf) == ["feature", "threshold", "left", "right"]
        leaf = leaf["left"]
    assert list(leaf) == ["dist"] and len(leaf["dist"]) == 3


def _scan_oracle(x, Y):
    """(left size, midpoint, Y summed by loop) for each cut between distinct sorted values."""
    order = sorted(range(len(x)), key=lambda r: x[r])
    cuts = []
    for i in range(1, len(x)):
        a, b = x[order[i - 1]], x[order[i]]
        if a < b:
            total = np.zeros(Y.shape[1])
            for r in order[:i]:
                total += Y[r]
            cuts.append((i, (a + b) / 2.0, total))
    return cuts


@pytest.mark.parametrize("case", ["ties", "constant", "distinct", "n2", "n2-tied", "n1"])
def test_split_scan_matches_a_per_column_oracle(case):
    rng = np.random.default_rng(11)
    n = {"n2": 2, "n2-tied": 2, "n1": 1}.get(case, 25)
    X = rng.normal(size=(n, 4))
    if case == "ties":
        X = np.round(X)
    if case in ("constant", "n2-tied"):
        X[:, 1] = X[0, 1]
    Y = rng.integers(0, 4, size=(n, 3)).astype(float)   # integer sums are exact in any order
    xs, left, ok = split_scan(X, Y)
    assert xs.shape == X.shape and left.shape == (n - 1, 4, 3) and ok.shape == (n - 1, 4)
    for j in range(X.shape[1]):
        assert xs[:, j].tolist() == sorted(X[:, j])
        got = [(i + 1, (xs[i, j] + xs[i + 1, j]) / 2.0, left[i, j])
               for i in np.flatnonzero(ok[:, j])]
        want = _scan_oracle(X[:, j], Y)
        assert [g[:2] for g in got] == [w[:2] for w in want]
        assert all(np.array_equal(g[2], w[2]) for g, w in zip(got, want))
    if case in ("constant", "n2-tied"):
        assert not ok[:, 1].any()


def _best_split_oracle(X, y, k, criterion, max_features, min_leaf, seed):
    """The per-feature loop: candidates in draw order, cuts ascending, strict < across all."""
    n, d = X.shape
    candidates = np.random.default_rng(seed).choice(d, size=min(max_features, d), replace=False)
    counts = np.bincount(y, minlength=k).astype(float)
    best = None
    for f in candidates:
        for size, thr, left in _scan_oracle(X[:, f], np.eye(k)[y]):
            if size < min_leaf or n - size < min_leaf:
                continue
            imp = _impurity_rows(np.array([left, counts - left]), criterion)
            score = (size * imp[0] + (n - size) * imp[1]) / n
            if best is None or score < best[0]:
                best = (score, int(f), float(thr))
    return None if best is None else best[1:]


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_best_split_matches_the_per_feature_loop(criterion):
    rng = np.random.default_rng(12)
    for trial in range(40):
        n, k = int(rng.integers(2, 40)), int(rng.integers(2, 4))
        X = rng.integers(0, 4, size=(n, 3)).astype(float)
        X = np.hstack([X, X[:, :1]])   # a duplicated column ties with its original
        y = rng.integers(0, k, n)
        max_features, min_leaf = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        builder = _TreeBuilder(k, criterion, None, max_features, min_leaf, "best",
                               np.random.default_rng(trial))
        counts = np.bincount(y, minlength=k)
        want = _best_split_oracle(X, y, k, criterion, max_features, min_leaf, trial)
        assert builder._best_split(X, y, counts) == want


def _pipeline_fits(monkeypatch, task, test_fraction, pairs):
    """kind -> (model, hyperparameters, X, y) as run_experiment fits them at master seed 0."""
    from cardiofuse import pipeline
    fits = {}
    train_one = pipeline._train_one

    def capture(kind, hp, X, y, class_count):
        fits[kind] = (train_one(kind, hp, X, y, class_count), hp, X, y)
        return fits[kind][0]

    monkeypatch.setattr(pipeline, "_train_one", capture)
    pipeline.run_experiment(pipeline.RunConfig(task=task, test_fraction=test_fraction,
                                               master_seed=0, fusion_pairs=pairs))
    return fits


# sha256 of json.dumps(model.to_dict()) for the pipeline's seed-0 fits, recorded
# before the split search scanned all candidate features in one pass; "DT-best" is
# the pipeline's DT refitted on the same rows with splitter="best"
_DOC_DIGESTS = {
    ("binary", 0.2, "RF"): "904cb72e526265a2a975c69fdd1edd9efeaf06f595f45cfb5ae844a0ed987685",
    ("binary", 0.2, "DT"): "06ad75c3bdc294433717a0613893703077b454cc0e2a26639cff8f6db345aeeb",
    ("binary", 0.2, "DT-best"): "84ceb98c98466067c28d566660b131a9987d5f9a35bb37ff2075282e217a4289",
    ("binary", 0.2, "ADA"): "ab2f73d249ca75260bdcaa8876c86423100facb356a425e27aec03df302f6d5e",
    ("binary", 0.3, "RF"): "a4585b990804d9c3ef7c3f3c28995d3309b1c6509bff1a4acf5a24212c24609c",
    ("binary", 0.3, "DT"): "a70bbee41dda2044691187152e087e000df11ed983005a44bebbc2fc3d97bb91",
    ("binary", 0.3, "DT-best"): "37c536c4f30669078b23e770c00d3e293df714e9f408e8c795590b4c1524f626",
    ("binary", 0.3, "ADA"): "5c58f5ce3b026c49cdfaa87cafb9344ef805b38157aa089243bb97469f6c9683",
    ("multiclass", 0.2, "RF"): "d065125522a2bf64b31b84719dd12cd3d41b1f1d698b46cb59281b70772e710f",
    ("multiclass", 0.3, "RF"): "b25a0d71ee2eb28af426d488ea9a8c51f8436e107348f094b07289e53705e60f",
}


@pytest.mark.parametrize("task,test_fraction", [("binary", 0.2), ("binary", 0.3),
                                                ("multiclass", 0.2), ("multiclass", 0.3)])
def test_pipeline_tree_documents_are_byte_identical(monkeypatch, task, test_fraction):
    pairs = [("RF", "DT"), ("ADA", "DT")] if task == "binary" else [("RF", "LR")]
    fits = _pipeline_fits(monkeypatch, task, test_fraction, pairs)
    docs = {kind: fit[0].to_dict() for kind, fit in fits.items()}
    if "DT" in fits:
        _, hp, X, y = fits["DT"]
        docs["DT-best"] = DecisionTreeClassifier(**{**hp, "splitter": "best"}).fit(X, y).to_dict()
    for (t, frac, kind), digest in _DOC_DIGESTS.items():
        if (t, frac) == (task, test_fraction):
            blob = json.dumps(docs[kind]).encode()
            assert hashlib.sha256(blob).hexdigest() == digest, kind
