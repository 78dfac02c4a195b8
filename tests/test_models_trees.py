import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardiofuse.models import DecisionTreeClassifier, ModelError, RandomForestClassifier
from cardiofuse.models import tree as tree_mod
from cardiofuse.models.adaboost import split_scan
from cardiofuse.models.tree import (Tree, _choice_draws, _floyd, _impurity_rows, _split_segments,
                                    grow_forest, score_forest)


def blob_data(rng, n=120, d=5, k=2):
    X = rng.normal(size=(n, d))
    centers = rng.normal(scale=2.0, size=(k, d))
    y = rng.integers(0, k, n)
    X += centers[y]
    return X, y


def test_gini_values():
    # direct substitution: 1 - (0.5^2 + 0.5^2)
    imp = _impurity_rows(np.array([[5.0, 5.0], [10.0, 0.0]]), np.array([10, 10]), "gini")
    assert imp[0] == pytest.approx(0.5)
    assert imp[1] == 0.0


def test_entropy_values():
    imp = _impurity_rows(np.array([[5.0, 5.0], [7.0, 0.0]]), np.array([10, 7]), "entropy")
    assert imp[0] == pytest.approx(1.0)
    assert imp[1] == 0.0
    imp = _impurity_rows(np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([4]), "entropy")
    assert imp[0] == pytest.approx(2.0)


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


@pytest.mark.parametrize("splitter", ["random", "best"])
def test_no_candidate_features_grows_one_leaf(splitter):
    rng = np.random.default_rng(1)
    X, y = blob_data(rng, n=30, d=3)
    m = DecisionTreeClassifier(max_features=0, splitter=splitter).fit(X, y)
    assert m.to_dict()["params"]["root"] == {"dist": (np.bincount(y) / len(y)).tolist()}


@pytest.mark.parametrize("cls", [DecisionTreeClassifier, RandomForestClassifier])
def test_tree_settings_are_checked_alike(cls):
    for bad in ({"criterion": "foo"}, {"max_depth": 0}, {"max_features": -1}):
        with pytest.raises(ValueError):
            cls(**bad)
    rng = np.random.default_rng(3)
    X, y = blob_data(rng, n=40, d=5)
    small = {"n_estimators": 3} if cls is RandomForestClassifier else {}
    # no candidate feature: every tree is one leaf
    state = cls(max_features=0, **small).fit(X, y)._state_to_dict()
    roots = state["trees"] if "trees" in state else [state["root"]]
    assert all(set(root) == {"dist"} for root in roots)
    # only None means round(sqrt(d)) candidates
    assert (cls(max_features=None, **small).fit(X, y)._state_to_dict()
            == cls(max_features=2, **small).fit(X, y)._state_to_dict())


def _leaf_sizes(tree, node, X, idx, out):
    if tree.feature[node] < 0:
        out.append(len(idx))
        return
    left = X[idx, tree.feature[node]] <= tree.threshold[node]
    _leaf_sizes(tree, node + 1, X, idx[left], out)
    _leaf_sizes(tree, tree.right[node], X, idx[~left], out)


def _depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(_depth(tree, node + 1), _depth(tree, tree.right[node]))


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


def _walk(tree, x):
    """Leaf vector of one row, node by node; NaN fails x <= threshold and goes right."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = node + 1 if go_left else tree.right[node]
    return tree.value[node]


def test_forest_score_equals_vote_fraction_under_hard_leaves():
    rng = np.random.default_rng(5)
    X, y = blob_data(rng, n=80, d=4)
    forest = RandomForestClassifier(n_estimators=25, seed=6).fit(X, y)
    scores = forest.predict_proba(X)
    # oracle: count the per-tree votes; fully grown leaves are pure
    votes = np.zeros_like(scores)
    for tree in forest.trees_:
        buf = np.array([_walk(tree, x) for x in X])
        assert np.isin(buf, (0.0, 1.0)).all()  # hard leaves
        votes[np.arange(len(X)), buf.argmax(axis=1)] += 1
    assert np.allclose(scores, votes / 25)


@pytest.mark.parametrize("batch_rows", [1, 7, 8192])
def test_flat_scoring_equals_a_walk_of_each_tree(monkeypatch, batch_rows):
    rng = np.random.default_rng(16)
    X, y = blob_data(rng, n=90, d=4, k=3)
    models = [RandomForestClassifier(n_estimators=9, seed=3, min_samples_leaf=2).fit(X, y),
              RandomForestClassifier(n_estimators=1, seed=4).fit(X, y),
              DecisionTreeClassifier(seed=5).fit(X, y)]
    Xq = np.vstack([X[:20], rng.normal(size=(20, 4))])
    Xq[::3, 1] = np.nan   # NaN goes right at every split on that feature
    Xq[5] = np.nan
    monkeypatch.setattr(tree_mod, "_BATCH_ROWS", batch_rows)
    for model in models:
        trees = getattr(model, "trees_", None) or [model.tree_]
        for rows in (Xq, Xq[7:8], Xq[:0]):
            want = np.zeros((len(rows), 3))
            for tree in trees:   # summed tree after tree, as a running total
                want += np.array([_walk(tree, x) for x in rows]).reshape(-1, 3)
            got = score_forest(trees, rows)
            assert got.shape == (len(rows), 3)
            assert np.array_equal(got, want / len(trees))
            # the model refuses a NaN row, and scores the finite ones alike
            finite = ~np.isnan(rows).any(axis=1)
            assert np.array_equal(model.predict_proba(rows[finite]), got[finite])
            if not finite.all():
                with pytest.raises(ModelError, match="cannot score row"):
                    model.predict_proba(rows)


_PATHS = ("_exit_leaves_by_descent", "_exit_leaves_by_bitvectors")


def _score_by(path, trees, X, batch_words=None):
    """``score_forest`` with every batch sent down one path."""
    with pytest.MonkeyPatch.context() as mp:
        chosen = getattr(tree_mod, path)
        for name in _PATHS:
            mp.setattr(tree_mod, name, chosen)
        if batch_words is not None:
            mp.setattr(tree_mod, "_BATCH_WORDS", batch_words)
        return score_forest(trees, X)


def _random_tree(rng, leaves, d, k):
    """A tree of ``leaves`` leaves in preorder, its splits on thresholds of a coarse grid."""
    nodes = []   # [feature, threshold, right, value]

    def grow(n):
        node = [-1, 0.0, -1, rng.random(k)]
        nodes.append(node)
        at = len(nodes) - 1
        if n > 1:
            cut = int(rng.integers(1, n))
            node[:2] = int(rng.integers(d)), float(rng.integers(-4, 5)) / 2
            grow(cut)   # the left subtree, laid out right after its split
            node[2:] = grow(n - cut), np.zeros(k)
        return at

    grow(leaves)
    return Tree(*zip(*nodes))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       leaves=st.lists(st.integers(1, 64), min_size=1, max_size=4),
       n=st.integers(0, 30), d=st.integers(1, 4), k=st.integers(1, 3),
       chunk=st.sampled_from([1, 7, None]))
@example(seed=0, leaves=[64, 1, 33], n=30, d=3, k=2, chunk=7)   # a full word, a one-leaf tree
@example(seed=1, leaves=[1, 1], n=1, d=2, k=2, chunk=1)   # no split at all
@example(seed=2, leaves=[64, 64], n=0, d=2, k=3, chunk=None)
def test_bitvectors_equal_a_walk_of_each_tree_bit_for_bit(seed, leaves, n, d, k, chunk):
    rng = np.random.default_rng(seed)
    trees = [_random_tree(rng, m, d, k) for m in leaves]
    # values on the threshold grid, so rows land on thresholds that trees share
    X = rng.integers(-5, 6, (n, d)) / 2 + rng.choice([0.0, 0.1], (n, d))
    X[rng.random((n, d)) < 0.15] = np.nan
    want = np.zeros((n, k))
    for tree in trees:   # summed tree after tree, as a running total
        want += np.array([_walk(tree, x) for x in X]).reshape(n, k)
    got = _score_by("_exit_leaves_by_bitvectors", trees, X,   # chunks of ``chunk`` rows
                    chunk and chunk * len(trees))
    assert np.array_equal(got, want / len(trees))
    assert np.array_equal(score_forest(trees, X), got)


@pytest.mark.parametrize("wide", [False, True])
def test_a_batch_takes_bitvectors_past_its_splits(monkeypatch, wide):
    rng = np.random.default_rng(19)
    trees = RandomForestClassifier(n_estimators=6, seed=2).fit(*blob_data(rng, 300, 4)).trees_
    trees.append(_random_tree(rng, 65 if wide else 64, 4, 2))   # the largest tree
    splits = sum(int((t.feature >= 0).sum()) for t in trees)
    calls = []
    for name in _PATHS:
        path = getattr(tree_mod, name)
        monkeypatch.setattr(tree_mod, name,
                            lambda *a, path=path, name=name: calls.append(name) or path(*a))
    rows = rng.normal(size=(splits + 1, 4))
    at, past = score_forest(trees, rows[:-1]), score_forest(trees, rows)
    score_forest(trees[:1], rows)   # a lone tree descends at any batch size
    # a tree past 64 leaves has no one-word bitvector: its forest descends at any batch size
    assert calls == [_PATHS[0], _PATHS[0] if wide else _PATHS[1], _PATHS[0]]
    assert np.array_equal(at, past[:-1])
    monkeypatch.undo()
    want = np.zeros((len(rows), 2))
    for tree in trees:   # summed tree after tree, as a running total
        want += np.array([_walk(tree, x) for x in rows])
    assert np.array_equal(past, want / len(trees))


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
    # and the arrays of random trees survive JSON text bit for bit
    for leaves in (1, 2, 64, 100):
        tree = _random_tree(rng, leaves, 4, 3)
        back = Tree.from_dict(json.loads(json.dumps(tree.to_dict())))
        for a, b in zip(_tree_arrays(back), _tree_arrays(tree)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
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
    order, xs, ok = split_scan(X)
    left = np.cumsum(Y[order], axis=0)[:-1]
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


def _best_split_oracle(X, y, k, criterion, candidates, min_leaf):
    """The per-feature loop: candidates in draw order, cuts ascending, strict < across all."""
    n = len(X)
    counts = np.bincount(y, minlength=k).astype(float)
    best = None
    for f in candidates:
        for size, thr, left in _scan_oracle(X[:, f], np.eye(k)[y]):
            if size < min_leaf or n - size < min_leaf:
                continue
            imp = _impurity_rows(np.array([left, counts - left]), np.array([size, n - size]),
                                 criterion)
            score = (size * imp[0] + (n - size) * imp[1]) / n
            if best is None or score < best[0]:
                best = (score, int(f), float(thr))
    return None if best is None else best[1:]


def _segments(Xs, ys, ws, cand, criterion, min_leaf, rng, seeds=None):
    """``_split_segments`` on trial nodes given as (rows, labels, weights) each."""
    k = 3
    X, y, w = np.vstack(Xs), np.concatenate(ys), np.concatenate(ws).astype(np.int32)
    nseg = np.array([len(v) for v in ys])
    counts = np.array([np.bincount(v, weights=u, minlength=k) for v, u in zip(ys, ws)],
                      dtype=np.int64)
    # the rows of each node, shuffled, so that segments are not in table order
    rows = np.concatenate([rng.permutation(np.arange(a - len(v), a))
                           for v, a in zip(ys, np.cumsum(nseg))]).astype(np.int32)
    R = np.column_stack([np.unique(c, return_inverse=True)[1] for c in X.T])
    rngs = None if seeds is None else [np.random.default_rng(s) for s in seeds]
    feature, threshold = _split_segments(X, y, R, rows, w[rows], nseg, counts, np.array(cand),
                                         criterion, min_leaf, rngs)
    return [None if f < 0 else (int(f), float(t)) for f, t in zip(feature, threshold)]


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_best_split_matches_the_per_feature_loop(criterion):
    # all 41 trial nodes go through one segmented scan, so the segment
    # boundaries, the duplicated-column tie and the leaf mask meet in one call;
    # each row stands for 1-3 copies, and the loop sees the copies themselves
    k = 3
    for max_features, min_leaf in [(1, 1), (2, 3), (3, 2), (4, 1), (4, 3), (2, 0), (3, 5)]:
        rng = np.random.default_rng(12)
        Xs, ys, ws, cand, want = [], [], [], [], []
        for trial in range(40):
            n = int(rng.integers(2, 40))
            X = rng.integers(0, 4, size=(n, 3)).astype(float)
            X = np.hstack([X, X[:, :1]])   # a duplicated column ties with its original
            y = rng.integers(0, int(rng.integers(2, k + 1)), n)
            w = rng.integers(1, 4, n) if trial % 4 else np.ones(n, dtype=np.int64)
            Xs.append(X)
            ys.append(y)
            ws.append(w)
            cand.append(np.random.default_rng(trial).choice(4, size=max_features, replace=False))
        # first, a node where no cut gains and a constant column comes first: with
        # min_leaf 0 only the segment's end could "cut" it, which is no cut
        Xs.insert(0, np.array([[1, 0, 2, 1], [1, 0, 2, 1], [1, 1, 2, 1], [1, 1, 2, 1]], float))
        ys.insert(0, np.array([0, 1, 0, 1]))
        ws.insert(0, np.ones(4, dtype=np.int64))
        cand.insert(0, np.arange(max_features))
        for X, y, w, c in zip(Xs, ys, ws, cand):
            want.append(_best_split_oracle(np.repeat(X, w, axis=0), np.repeat(y, w), k,
                                           criterion, c, min_leaf))
        got = _segments(Xs, ys, ws, cand, criterion, min_leaf, rng)
        assert got == want, (max_features, min_leaf)


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_random_split_of_weighted_rows_equals_the_split_of_their_copies(criterion):
    rng = np.random.default_rng(17)
    for min_leaf in (0, 1, 3, 6):
        Xs, ys, ws, cand = [], [], [], []
        for trial in range(30):
            n = int(rng.integers(2, 25))
            Xs.append(rng.integers(0, 5, size=(n, 4)).astype(float))
            ys.append(rng.integers(0, 3, n))
            ws.append(rng.integers(1, 4, n))
            cand.append(rng.choice(4, size=3, replace=False))
        copies = [np.repeat(v, w, axis=0) for v, w in zip(Xs, ws)]
        labels = [np.repeat(v, w) for v, w in zip(ys, ws)]
        ones = [np.ones(len(v), dtype=np.int64) for v in labels]
        seeds = range(100, 130)
        got = _segments(Xs, ys, ws, cand, criterion, min_leaf, rng, seeds)
        assert got == _segments(copies, labels, ones, cand, criterion, min_leaf, rng, seeds)
        assert any(g is not None for g in got)


@pytest.mark.parametrize("d,m", [(1, 0), (1, 1), (2, 1), (2, 2), (5, 0), (5, 1), (5, 3),
                                 (5, 5), (13, 4), (13, 13), (40, 7)])
def test_candidates_equal_successive_choice_calls(d, m):
    # one Floyd pass over the draws of several generators, end to end, equals
    # successive choice calls on each; this rests on how the installed numpy
    # draws choice(replace=False)
    counts = (0, 1, 9, 4)
    a = [np.random.default_rng(d * 100 + m + g) for g in range(len(counts))]
    b = [np.random.default_rng(d * 100 + m + g) for g in range(len(counts))]
    want = [a[g].choice(d, size=m, replace=False) for g, c in enumerate(counts) for _ in range(c)]
    draws = [_choice_draws(g, d, m, c).astype(np.min_scalar_type(d)) for g, c in zip(b, counts)]
    got = _floyd(np.concatenate(draws), d, m)
    assert got.shape == (sum(counts), m)
    assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(sum(counts), m))
    for x, z in zip(a, b):
        assert x.bit_generator.state == z.bit_generator.state
        assert x.random() == z.random()


def _random_split_oracle(X, y, k, criterion, candidates, min_leaf, rng):
    """Per candidate in draw order: a uniform threshold if the column is not constant; strict <."""
    n, counts = len(X), np.bincount(y, minlength=k)
    best = None
    for f in candidates:
        lo, hi = X[:, f].min(), X[:, f].max()
        if lo == hi:
            continue
        thr = rng.uniform(lo, hi)
        left = X[:, f] <= thr
        size = int(left.sum())
        if size < min_leaf or n - size < min_leaf:
            continue
        L = np.bincount(y[left], minlength=k)
        imp = _impurity_rows(np.array([L, counts - L]), np.array([size, n - size]), criterion)
        score = (size * imp[0] + (n - size) * imp[1]) / n
        if best is None or score < best[0]:
            best = (score, int(f), float(thr))
    return None if best is None else best[1:]


def _reference_tree(X, y, k, rows, rng, criterion, max_depth, m, min_leaf, splitter, depth=0):
    """The nested document of one tree, grown node by node on its rows, copies and all."""
    counts = np.bincount(y[rows], minlength=k)
    if ((max_depth is None or depth < max_depth) and len(rows) >= 2 * min_leaf
            and (counts > 0).sum() > 1):
        cand = rng.choice(X.shape[1], size=m, replace=False)
        split = (_best_split_oracle(X[rows], y[rows], k, criterion, cand, min_leaf)
                 if splitter == "best" else
                 _random_split_oracle(X[rows], y[rows], k, criterion, cand, min_leaf, rng))
        if split is not None:
            f, thr = split
            left = X[rows, f] <= thr   # a stable split of the rows
            args = (rng, criterion, max_depth, m, min_leaf, splitter, depth + 1)
            return {"feature": f, "threshold": thr,
                    "left": _reference_tree(X, y, k, rows[left], *args),
                    "right": _reference_tree(X, y, k, rows[~left], *args)}
    return {"dist": (counts / len(rows)).tolist()}


@pytest.mark.parametrize("batch_rows", [1, 8192])
def test_grow_forest_equals_a_recursive_reference_grower(monkeypatch, batch_rows):
    monkeypatch.setattr(tree_mod, "_BATCH_ROWS", batch_rows)
    rng = np.random.default_rng(18)
    uneven = 0
    for trial in range(80):
        n, d, k = int(rng.integers(1, 41)), int(rng.integers(1, 7)), int(rng.integers(2, 5))
        X = (rng.integers(0, 3, size=(n, d)).astype(float) if trial % 2
             else np.round(rng.normal(size=(n, d)), 1))   # ties
        y = rng.integers(0, k, n)
        dup = rng.integers(0, n, n)   # duplicated rows, some with other labels
        X[n // 2:], y[n // 3:] = X[dup[n // 2:]], y[dup[n // 3:]]
        splitter = ("best", "random")[trial % 4 // 2]
        criterion = ("gini", "entropy")[trial // 4 % 2]
        max_depth = (None, 1, 3)[trial % 3]
        min_leaf, m = int(rng.integers(0, 4)), int(rng.integers(1, d + 2))
        seeds = rng.integers(0, 2**31, int(rng.integers(1, 5)))
        roots = [rng.integers(0, n, n) if t % 2 else np.arange(n) for t in range(len(seeds))]
        trees = grow_forest(X, y, k, roots, [np.random.default_rng(s) for s in seeds],
                            criterion, max_depth, m, min_leaf, splitter)
        want = [_reference_tree(X, y, k, r, np.random.default_rng(s), criterion, max_depth,
                                min(m, d), min_leaf, splitter) for r, s in zip(roots, seeds)]
        assert [t.to_dict() for t in trees] == want, trial
        uneven += len({len(t.feature) for t in trees}) > 1
    assert uneven >= 10   # forests whose trees finish at different steps


def test_grow_forest_on_chains_as_deep_as_their_rows():
    # alternating labels on 0..39: the best split peels one row at a time, off
    # the left end; when row i comes i + 1 times it peels the right end. Each
    # peeled row is a leaf when its parent splits, so it never waits on the stack
    X, y = np.arange(40.0).reshape(-1, 1), np.arange(40) % 2
    roots = [np.arange(40), np.repeat(np.arange(40), np.arange(1, 41))]
    plain, weighted = grow_forest(X, y, 2, roots, [np.random.default_rng(s) for s in (0, 1)],
                                  "gini", None, 1, 1)
    for tree in (plain, weighted):
        assert _depth(tree) == 39 and len(tree.feature) == 79
    assert plain.to_dict() == _reference_tree(X, y, 2, roots[0], np.random.default_rng(0),
                                              "gini", None, 1, 1, "best")
    split = weighted.feature >= 0
    assert (weighted.feature[np.flatnonzero(split) + 1] >= 0).sum() == 38
    assert np.isin(weighted.value[~split], (0.0, 1.0)).all()


def _most_waiting(tree):
    """The most right children that can split (splits or mixed leaves) waiting at once
    while the tree is walked in preorder."""
    can = (tree.feature >= 0) | ((tree.value > 0).sum(axis=1) > 1)
    most, stack = 0, [(0, 0)]
    while stack:
        i, waiting = stack.pop()
        most = max(most, waiting)
        if tree.feature[i] >= 0:
            stack += [(tree.right[i], waiting), (i + 1, waiting + can[tree.right[i]])]
    return most


def test_grow_forest_stacks_every_node_that_waits_to_split():
    # value i of 0..39 holds i + 1 rows of label i % 2 and one of the other, so
    # every node has two classes; the best split peels the top value off the
    # right end, where it waits on the stack (it has no valid cut) while the rest
    # is split: 39 nodes wait at the deepest split, past the stack's first levels
    X = np.repeat(np.arange(40.0), np.arange(2, 42)).reshape(-1, 1)
    y = np.concatenate([[i % 2] * (i + 1) + [1 - i % 2] for i in range(40)])
    tree, = grow_forest(X, y, 2, [np.arange(len(y))], [np.random.default_rng(0)],
                        "gini", None, 1, 1)
    assert _most_waiting(tree) == 39 and len(tree.feature) == 79
    assert tree.to_dict() == _reference_tree(X, y, 2, np.arange(len(y)),
                                             np.random.default_rng(0), "gini", None, 1, 1, "best")


def test_a_step_pops_only_nodes_that_can_split(monkeypatch):
    # with one batch per step, a step is one _split_segments call over the next
    # node of every unfinished tree; a node that cannot split is a leaf when its
    # parent splits and takes no step, so the steps are the most nodes any tree
    # pops: its splits and its leaves with two classes (popped, no valid cut)
    monkeypatch.setattr(tree_mod, "_BATCH_ROWS", 10**9)
    calls = []
    split_segments = tree_mod._split_segments

    def counted(*args):
        calls.append(len(args[5]))
        return split_segments(*args)

    monkeypatch.setattr(tree_mod, "_split_segments", counted)
    rng = np.random.default_rng(24)
    for trial in range(5):
        X = rng.integers(0, 4, size=(150, 3)).astype(float)   # duplicates ...
        y = rng.integers(0, 3, 150)   # ... with conflicting labels
        calls.clear()
        forest = RandomForestClassifier(n_estimators=6, seed=trial, min_samples_leaf=1).fit(X, y)
        popped = [int((t.feature >= 0).sum() + ((t.value > 0).sum(axis=1) > 1).sum())
                  for t in forest.trees_]
        assert len(calls) == max(popped), trial
        assert calls[0] == 6 and sorted(calls, reverse=True) == calls


def _tree_arrays(tree):
    return [tree.feature, tree.threshold, tree.right, tree.value]


@pytest.mark.parametrize("batch_rows", [1, 10**9])
def test_tree_documents_do_not_depend_on_the_batch_size(monkeypatch, batch_rows):
    rng = np.random.default_rng(14)
    X, y = blob_data(rng, n=150, d=6, k=3)
    X = np.round(X, 1)   # ties
    fits = [lambda: RandomForestClassifier(n_estimators=12, seed=4, min_samples_leaf=2),
            lambda: RandomForestClassifier(n_estimators=5, seed=5, bootstrap=False,
                                           criterion="entropy", max_depth=4),
            lambda: DecisionTreeClassifier(seed=6),
            lambda: DecisionTreeClassifier(splitter="best", min_samples_leaf=1, seed=6)]
    want = [f().fit(X, y).to_dict() for f in fits]
    monkeypatch.setattr(tree_mod, "_BATCH_ROWS", batch_rows)
    assert [f().fit(X, y).to_dict() for f in fits] == want


def test_forest_tree_equals_the_tree_grown_alone():
    rng = np.random.default_rng(15)
    X, y = blob_data(rng, n=90, d=5, k=3)
    forest = RandomForestClassifier(n_estimators=8, seed=21, min_samples_leaf=2).fit(X, y)
    for t, seed in enumerate(forest.tree_seeds_):
        gen = np.random.default_rng(int(seed))
        root = gen.integers(0, len(X), size=len(X))
        alone, = grow_forest(X, y, 3, [root], [gen], "gini", None, 2, 2)
        for a, b in zip(_tree_arrays(alone), _tree_arrays(forest.trees_[t])):
            assert np.array_equal(a, b)
        # and the same as a tree grown on the bootstrap rows themselves
        gen = np.random.default_rng(int(seed))
        idx = gen.integers(0, len(X), size=len(X))
        alone, = grow_forest(X[idx], y[idx], 3, [np.arange(len(X))], [gen], "gini", None, 2, 2)
        assert alone.to_dict() == forest.trees_[t].to_dict()


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


# sha256 of json.dumps(model.to_dict()) for the pipeline's seed-0 fits; the tree
# documents were recorded before the split search scanned all candidate features
# in one pass; "DT-best" is the pipeline's DT refitted on the same rows with
# splitter="best"
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
    # recorded once fits ran on one BLAS thread: these hold under any thread count
    ("binary", 0.2, "LR"): "5b7fcc0b65d67d1b0202e116f908c301e19a48a7e9d5a3fc3489a9bbdb5ccfd8",
    ("binary", 0.2, "SVM"): "9caecb675eda1e7f218f627e4c38db88afc1b246202a23cfce068900e0290b38",
    ("binary", 0.2, "ANN"): "572c49f941a5ba42e1d46667fd260062d81df5da4727a2950397e84894cae3e7",
    ("binary", 0.3, "LR"): "3a8bb6ff903749922dc3123a06b8bc1874da4ed1adf96f6106531fbbbcb0bf42",
    ("binary", 0.3, "SVM"): "c84b43b70bd131e84751870f054ab085bfc20816cf17a890caaa0be7013e9b6b",
    ("binary", 0.3, "ANN"): "6172335ebd80c7c4e1245acc8b2da882230d7894b5d502c888d38a9a3c98bf84",
    ("multiclass", 0.2, "LR"): "d57e663f2c422db0e1c83b94006079fa4463b26db3b555ff1832de997fb56644",
    ("multiclass", 0.2, "SVM"): "e569344481e21df6b96ffd833f0b23cced84a14b9f646d3cd50ab3c614b1ece0",
    ("multiclass", 0.2, "ANN"): "7d8e25ebe7bc9a09ecff42654b28e1725077cab8d81fd0b58ebec41604fc220d",
    ("multiclass", 0.3, "LR"): "afa6b7cd2e4f84446cfe352d14fbb05bc4f6698426e0420fa6357cee031b99a8",
    ("multiclass", 0.3, "SVM"): "f28500eafdb8bec0da6010d2a18a1280b940e28707b801a9c59ca262428236ab",
    ("multiclass", 0.3, "ANN"): "859a82780b0073e833292a656e6c59bcc2ea7d0bd87f860ab6ab4e7eb6549e8d",
}


@pytest.mark.parametrize("task,test_fraction", [("binary", 0.2), ("binary", 0.3),
                                                ("multiclass", 0.2), ("multiclass", 0.3)])
def test_pipeline_tree_documents_are_byte_identical(monkeypatch, task, test_fraction):
    pairs = [("RF", "DT"), ("ADA", "DT")] if task == "binary" else [("RF", "LR")]
    pairs += [("LR", "SVM"), ("ANN", "LR")]
    fits = _pipeline_fits(monkeypatch, task, test_fraction, pairs)
    docs = {kind: fit[0].to_dict() for kind, fit in fits.items()}
    if "DT" in fits:
        _, hp, X, y = fits["DT"]
        docs["DT-best"] = DecisionTreeClassifier(**{**hp, "splitter": "best"}).fit(X, y).to_dict()
    for (t, frac, kind), digest in _DOC_DIGESTS.items():
        if (t, frac) == (task, test_fraction):
            blob = json.dumps(docs[kind]).encode()
            assert hashlib.sha256(blob).hexdigest() == digest, kind


@pytest.mark.parametrize("task", ["binary", "multiclass"])
def test_pipeline_forests_score_alike_on_both_paths(monkeypatch, task):
    from cardiofuse.dataset import bundled_data_path, load_csv
    from cardiofuse.preprocess import impute_most_frequent
    model = _pipeline_fits(monkeypatch, task, 0.2, [("RF", "LR")])["RF"][0]
    table = impute_most_frequent(load_csv(bundled_data_path()))   # RF reads unscaled rows
    X = table.rows[np.random.default_rng(0).integers(0, table.n_rows, 2000)]
    descent = _score_by("_exit_leaves_by_descent", model.trees_, X)
    if task == "multiclass":   # a tree past 64 leaves: every batch descends
        assert max(int((t.feature < 0).sum()) for t in model.trees_) > 64
    else:
        assert np.array_equal(_score_by("_exit_leaves_by_bitvectors", model.trees_, X), descent)
    assert np.array_equal(model.predict_proba(X), descent)
