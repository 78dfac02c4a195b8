import numpy as np
import pytest

from cardiofuse.models import DecisionTreeClassifier, RandomForestClassifier
from cardiofuse.models.tree import Tree, _impurity_rows

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
