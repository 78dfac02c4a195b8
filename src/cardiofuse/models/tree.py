"""Decision-tree induction with gini/entropy impurity and two splitters.

The "random" splitter draws one uniform threshold per candidate feature
between that feature's min and max at the node and keeps the impurity-
minimizing (feature, threshold). The "best" splitter scans every midpoint
of consecutive distinct values. Leaves store class-frequency vectors.
"""

from __future__ import annotations

import numpy as np

from .base import ProbabilisticClassifier, one_hot


def _impurity_rows(counts: np.ndarray, criterion: str) -> np.ndarray:
    # rows of class counts -> impurity per row
    n = counts.sum(axis=1, keepdims=True)
    n = np.where(n == 0, 1.0, n)
    p = counts / n
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -(p * logp).sum(axis=1)


def split_scan(x: np.ndarray, Y: np.ndarray):
    """Cuts between consecutive distinct values of ``x``, scanned in stable sort order.

    Returns each cut's midpoint threshold, its left-partition size and the
    column sums of the per-row matrix ``Y`` over the rows left of it.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cut = np.flatnonzero(xs[1:] > xs[:-1]) + 1
    left = np.cumsum(Y[order], axis=0)[cut - 1]
    return (xs[cut - 1] + xs[cut]) / 2.0, cut, left


class Tree:
    """A fitted binary tree as parallel arrays in preorder.

    Node i sends rows with x[feature[i]] <= threshold[i] to node left[i]
    and the rest to node right[i]; feature[i] == -1 marks a leaf, whose
    class-frequency vector is value[i].
    """

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)

    @classmethod
    def grow(cls, root, expand) -> "Tree":
        """Lay out the tree below ``root`` in preorder, expanding left before right.

        ``expand(item)`` returns a leaf's class-frequency vector, or
        (feature, threshold, left item, right item) for a split.
        """
        feature, threshold, right, value = [], [], [], {}   # value: leaf -> frequencies
        stack = [(root, -1)]   # (item, split whose right child it is, or -1)
        while stack:
            item, parent = stack.pop()
            i = len(feature)
            if parent >= 0:
                right[parent] = i
            node = expand(item)
            right.append(-1)
            if isinstance(node, tuple):
                f, thr, left_item, right_item = node
                feature.append(f)
                threshold.append(thr)
                stack += [(right_item, i), (left_item, -1)]
            else:
                feature.append(-1)
                threshold.append(0.0)
                value[i] = node
        # a split's left child is the node laid out right after it
        left = [i + 1 if f >= 0 else -1 for i, f in enumerate(feature)]
        k = len(next(iter(value.values())))
        value = [value.get(i, np.zeros(k)) for i in range(len(feature))]
        return cls(feature, threshold, left, right, value)

    @classmethod
    def from_dict(cls, doc: dict) -> "Tree":
        def expand(node):
            if "dist" in node:
                return node["dist"]
            return node["feature"], node["threshold"], node["left"], node["right"]
        return cls.grow(doc, expand)

    def to_dict(self) -> dict:
        """The nested v1 node document; children follow their parent, so build from the end."""
        docs = [None] * len(self.feature)
        for i in range(len(docs) - 1, -1, -1):
            if self.feature[i] < 0:
                docs[i] = {"dist": self.value[i].tolist()}
            else:
                docs[i] = {"feature": int(self.feature[i]),
                           "threshold": float(self.threshold[i]),
                           "left": docs[self.left[i]], "right": docs[self.right[i]]}
        return docs[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf class-frequency vector of every row of ``X``."""
        out = np.empty((X.shape[0], self.value.shape[1]))
        stack = [(0, np.arange(X.shape[0]))]   # (node, rows that reach it)
        while stack:
            node, idx = stack.pop()
            f = self.feature[node]
            if f < 0:
                out[idx] = self.value[node]
                continue
            go_left = X[idx, f] <= self.threshold[node]
            if not go_left.all():
                stack.append((self.right[node], idx[~go_left]))
            if go_left.any():
                stack.append((self.left[node], idx[go_left]))
        return out


class _TreeBuilder:
    def __init__(self, k, criterion, max_depth, max_features, min_leaf, splitter, rng):
        self.k = k
        self.criterion = criterion
        self.max_depth = np.inf if max_depth is None else max_depth
        self.max_features = max_features
        self.min_leaf = min_leaf
        self.splitter = splitter
        self.rng = rng

    def build(self, X, y) -> Tree:
        def expand(item):
            rows, depth = item
            counts = np.bincount(y[rows], minlength=self.k)
            split = None
            if (depth < self.max_depth and len(rows) >= 2 * self.min_leaf
                    and np.count_nonzero(counts) > 1):
                split = self._best_split(X[rows], y[rows], counts)
            if split is None:
                return counts / len(rows)
            f, thr = split
            go_left = X[rows, f] <= thr
            return f, thr, (rows[go_left], depth + 1), (rows[~go_left], depth + 1)
        return Tree.grow((np.arange(len(y)), 0), expand)

    def _best_split(self, X, y, counts):
        """(feature, threshold) minimizing the weighted child impurity, or None."""
        n, d = X.shape
        m = min(self.max_features, d)
        candidates = self.rng.choice(d, size=m, replace=False)
        onehot = one_hot(y, self.k)
        best = None  # (score, feature, threshold)
        for f in candidates:
            x = X[:, f]
            lo, hi = x.min(), x.max()
            if lo == hi:
                continue
            if self.splitter == "random":
                thr = float(self.rng.uniform(lo, hi))
                go_left = x <= thr
                thresholds, cut = np.array([thr]), np.array([go_left.sum()])
                left = onehot[go_left].sum(axis=0, keepdims=True)
            else:
                thresholds, cut, left = split_scan(x, onehot)
            valid = (cut >= self.min_leaf) & (n - cut >= self.min_leaf)
            if not valid.any():
                continue
            cut, left = cut[valid], left[valid]
            impL = _impurity_rows(left, self.criterion)
            impR = _impurity_rows(counts - left, self.criterion)
            scores = (cut * impL + (n - cut) * impR) / n
            i = int(np.argmin(scores))
            if best is None or scores[i] < best[0]:
                best = (scores[i], int(f), float(thresholds[valid][i]))
        return None if best is None else best[1:]


class DecisionTreeClassifier(ProbabilisticClassifier):
    kind = "DT"
    # hyperparameters in model-document order
    _PARAMS = ("criterion", "max_depth", "max_features", "min_samples_leaf", "splitter", "seed")

    def __init__(self, criterion: str = "gini", max_depth: int | None = 8,
                 max_features: int = 8, min_samples_leaf: int = 7,
                 splitter: str = "random", seed: int = 0):
        super().__init__()
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion {criterion!r}")
        if splitter not in ("random", "best"):
            raise ValueError(f"unknown splitter {splitter!r}")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.splitter = splitter
        self.seed = seed
        self.tree_ = None

    def _fit(self, X, y):
        builder = _TreeBuilder(self.class_count_, self.criterion, self.max_depth,
                               self.max_features, self.min_samples_leaf,
                               self.splitter, np.random.default_rng(self.seed))
        self.tree_ = builder.build(X, y)

    def _scores(self, X):
        return self.tree_.predict(X)

    def _params_to_dict(self):
        return {**{p: getattr(self, p) for p in self._PARAMS}, "root": self.tree_.to_dict()}

    def _params_from_dict(self, doc):
        for p in self._PARAMS:
            setattr(self, p, doc[p])
        self.tree_ = Tree.from_dict(doc["root"])
