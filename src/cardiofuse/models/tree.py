"""Decision trees with gini/entropy impurity and two splitters, grown in lockstep.

``grow_forest`` grows every tree of a forest at once (DT is a one-tree forest)
on weighted distinct rows: each step takes the next preorder node of every
tree, and one segmented scan serves a batch of them. The "best" splitter scans
every midpoint between distinct values of the candidate features; the "random"
splitter draws one uniform threshold per candidate feature. Leaves store class
frequencies. ``score_forest`` scores all trees at once from one stacked table.
"""

from __future__ import annotations

import numpy as np

from .base import ProbabilisticClassifier


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


def split_scan(X: np.ndarray, Y: np.ndarray):
    """Stable sort of every column of ``X`` with running sums of the per-row matrix ``Y``.

    Returns the sorted columns ``xs`` (n x m); the sums of ``Y`` over the rows
    left of each cut, ``left`` ((n-1) x m x k), where cut i keeps i + 1 rows
    on its left; and ``ok`` ((n-1) x m), which marks the cuts between
    distinct values. Cut i of column j thresholds at (xs[i, j] + xs[i+1, j]) / 2.
    """
    order = np.argsort(X, axis=0, kind="stable")
    xs = X[order, np.arange(X.shape[1])]
    left = np.cumsum(Y[order], axis=0)[:-1]
    return xs, left, xs[1:] > xs[:-1]


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
    def from_dict(cls, doc: dict) -> "Tree":
        """Lay out a nested node document in preorder, left before right."""
        nodes, right, stack = [], [], [(doc, -1)]   # (node, split whose right child it is)
        while stack:
            node, parent = stack.pop()
            if parent >= 0:
                right[parent] = len(nodes)
            nodes.append(node)
            right.append(-1)
            if "dist" not in node:
                stack += [(node["right"], len(nodes) - 1), (node["left"], -1)]
        feature = [node.get("feature", -1) for node in nodes]
        # a split's left child is the node laid out right after it
        left = [i + 1 if f >= 0 else -1 for i, f in enumerate(feature)]
        k = len(next(node["dist"] for node in nodes if "dist" in node))
        return cls(feature, [node.get("threshold", 0.0) for node in nodes], left, right,
                   [node.get("dist", np.zeros(k)) for node in nodes])

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


# rows that one batch of nodes brings to the split search, give or take one
# node: the scan's largest arrays hold rows x candidates x classes entries;
# also the most (tree, row) pairs that one chunk of scoring descends
_BATCH_ROWS = 8192


def _candidates(rng, d, m, count):
    """``count`` successive ``rng.choice(d, m, replace=False)`` draws from one ``integers`` call.

    ``choice`` takes Floyd's sample with one integer below j + 1 for each j in
    d-m .. d-1 (j itself where that draw was taken), then shuffles it with one
    below i + 1 for each i in m-1 .. 1. ``integers`` with those bounds reads the
    stream alike, so rows and generator state match; a test pins this on the
    installed numpy.
    """
    high = np.concatenate([np.arange(d - m + 1, d + 1), np.arange(m, 1, -1)])
    draw = rng.integers(0, np.tile(high, count)).reshape(count, max(2 * m - 1, 0))
    out = np.empty((count, m), dtype=np.int64)
    for t in range(m):
        taken = (out[:, :t] == draw[:, t:t + 1]).any(axis=1)
        out[:, t] = np.where(taken, d - m + t, draw[:, t])
    every = np.arange(count)
    for i, j in zip(range(m - 1, 0, -1), draw[:, m:].T):   # swap column i with column j
        out[every, j], out[:, i] = out[:, i].copy(), out[every, j]
    return out


def _split_segments(X, y, R, rows, wts, nseg, counts, cand, criterion, min_leaf, rngs=None):
    """(feature, threshold) of every node of a batch, feature -1 where no cut is valid.

    The nodes' ``rows`` come as consecutive segments of ``nseg`` rows, row i
    standing for ``wts[i]`` copies, with their class ``counts`` (of copies) and
    candidates ``cand`` in draw order; ``R`` ranks each column of ``X``. The best
    splitter (no ``rngs``) sorts every candidate column by (segment, value) and
    takes the class counts left of each cut as a segmented prefix sum: one
    ``cumsum`` less each segment's starting prefix, exact on integer counts. The
    random splitter draws one uniform threshold per non-constant candidate from
    each node's generator. Ties go to the earlier candidate, then the lower threshold.
    """
    S, N, starts = len(nseg), len(rows), np.cumsum(nseg) - nseg
    seg, size = np.repeat(np.arange(S), nseg), counts.sum(axis=1)
    onehot = np.eye(counts.shape[1], dtype=np.int32)[y[rows]] * wts[:, None]
    if rngs is None:
        key = seg[:, None] * len(X) + R[rows[:, None], cand[seg]]
        order = np.argsort(key, axis=0)   # tied values may come in any order
        key = np.take_along_axis(key, order, axis=0)
        left = onehot[order]
        np.cumsum(left, axis=0, out=left)
        ok = np.diff(key, axis=0, append=key[-1:]) > 0   # a larger value follows
        ok[starts + nseg - 1] = False   # ... in the same segment
        p, j = np.nonzero(ok)   # grouped by segment, then by cut
        s = seg[p]
        L = left[p, j] - np.where((starts[s] > 0)[:, None], left[starts[s] - 1, j], 0)
        nl = L.sum(axis=1)
        keep = (nl >= min_leaf) & (size[s] - nl >= min_leaf)
        s, L, nl, rank = s[keep], L[keep], nl[keep], (j * N + p)[keep]
    else:
        V = X[rows[:, None], cand[seg]]
        lo, hi = np.minimum.reduceat(V, starts), np.maximum.reduceat(V, starts)
        thr = np.full(lo.shape, np.nan)   # constant candidates send every row right
        for b, rng in enumerate(rngs):
            live = np.flatnonzero(lo[b] != hi[b])
            # one uniform draw per non-constant candidate, in candidate order
            thr[b, live] = rng.uniform(lo[b, live], hi[b, live])
        go = V <= thr[seg]
        cut = np.add.reduceat(go * wts[:, None], starts)
        ok = (lo != hi) & (cut >= min_leaf) & (size[:, None] - cut >= min_leaf)
        s, j = np.nonzero(ok)
        L = np.add.reduceat(go[:, :, None] * onehot[:, None, :], starts)[s, j]
        nl, rank = cut[s, j], j
    feature, threshold = np.full(S, -1), np.zeros(S)
    if len(s):
        n = size[s]
        cost = (nl * _impurity_rows(L, criterion)
                + (n - nl) * _impurity_rows(counts[s] - L, criterion)) / n
        # per segment: the least cost, then the least rank among its minima
        first = np.flatnonzero(np.diff(s, prepend=-1))
        best = np.repeat(np.minimum.reduceat(cost, first), np.diff(first, append=len(s)))
        win = np.minimum.reduceat(np.where(cost == best, rank, np.iinfo(np.int64).max), first)
        won = s[first]
        if rngs is None:
            j, p = np.divmod(win, N)
            pair = X[rows[order[[p, p + 1], j]], cand[won, j]]
            threshold[won] = (pair[0] + pair[1]) / 2.0
        else:
            j = win
            threshold[won] = thr[won, j]
        feature[won] = cand[won, j]
    return feature, threshold


def grow_forest(X, y, k, roots, rngs, criterion, max_depth, max_features, min_leaf,
                splitter="best") -> list[Tree]:
    """Grow one tree per (root rows, generator) pair, all trees in lockstep.

    Identical (row, label) pairs take the same branch, so a tree grows on the
    distinct pairs of its root rows, weighted by their counts there. Each step
    pops the next preorder node of every unfinished tree, in batches of about
    ``_BATCH_ROWS`` distinct rows with one weighted ``bincount`` each. A node
    splits if it is above ``max_depth``, has two classes, two ``min_leaf``s of
    weight and a valid cut. Its candidates are its tree's next ``rng.choice``,
    drawn for all the tree's nodes after its root rows (best splitter) or node
    by node before its thresholds (random), so each tree reads its stream as if
    grown alone. A batch shares one ``_split_segments`` call and one stable
    partition into children; node records are laid out once at the end.
    """
    d, m = X.shape[1], min(max_features, X.shape[1])
    max_depth = np.inf if max_depth is None else max_depth
    Xy, group = np.unique(np.column_stack([X, y]), axis=0, return_inverse=True)
    X, y = Xy[:, :-1], Xy[:, -1].astype(np.int64)
    R = np.column_stack([np.unique(c, return_inverse=True)[1] for c in X.T])   # dense ranks
    W, stacks, pools = [], [], []
    for r, rng in zip(roots, rngs):
        W.append(np.bincount(group[r], minlength=len(X)))
        rows = np.flatnonzero(W[-1]).astype(np.int32)
        stacks.append([(rows, 0, -1)])   # (rows, depth, parent)
        # best splitter: draw for all nodes now (a split leaves rows both sides: < 2 x rows nodes)
        count = 2 * len(rows) if splitter == "best" else 0
        pools.append(_candidates(rng, d, m, count).astype(np.min_scalar_type(d)))
    W = np.array(W, dtype=np.int32)   # each tree's weight of each distinct row
    nxt = np.cumsum([0] + [len(p) for p in pools])[:-1]   # each tree's next draw in the pool
    pools = np.concatenate(pools)
    size = np.zeros(len(stacks), dtype=np.int64)   # nodes laid out so far, per tree
    # records per batch: tree, node, parent if a right child, feature, leaf counts, threshold
    fields = [[] for _ in range(6)]
    live = np.arange(len(stacks))
    while len(live):
        items = [stacks[t].pop() for t in live]
        end = np.cumsum([len(rows) for rows, _, _ in items])
        # a batch: the nodes whose last rows fall in one window of _BATCH_ROWS rows
        cuts = [0, *(np.flatnonzero(np.diff((end - 1) // _BATCH_ROWS)) + 1), len(items)]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            batch, trees = items[lo:hi], live[lo:hi]
            nseg = np.array([len(r) for r, _, _ in batch])
            rows = np.concatenate([r for r, _, _ in batch])
            depth = np.array([dep for _, dep, _ in batch])
            seg = np.repeat(np.arange(len(batch)), nseg)
            wts = W[trees[seg], rows]
            counts = np.bincount(seg * k + y[rows], wts, len(batch) * k).reshape(-1, k)
            ready = ((depth < max_depth) & (counts.sum(axis=1) >= 2 * min_leaf)
                     & ((counts > 0).sum(axis=1) > 1))
            cand = pools[nxt[trees[ready]]] if splitter == "best" else np.array(
                [_candidates(rngs[t], d, m, 1)[0] for t in trees[ready]]).reshape(ready.sum(), m)
            nxt[trees[ready]] += 1
            feature, threshold = np.full(len(batch), -1), np.zeros(len(batch))
            if ready.any():
                feature[ready], threshold[ready] = _split_segments(
                    X, y, R, rows[ready[seg]], wts[ready[seg]], nseg[ready], counts[ready],
                    cand, criterion, min_leaf,
                    [rngs[t] for t in trees[ready]] if splitter == "random" else None)
            # one stable partition: each node's left rows, then its right rows
            go_right = ~(X[rows, feature[seg]] <= threshold[seg])
            part = rows[np.argsort(2 * seg + go_right, kind="stable")]
            start = np.cumsum(nseg) - nseg
            mid = start + np.bincount(seg[~go_right], minlength=len(batch))
            for s in np.flatnonzero(feature >= 0):   # copies, so that no child pins ``part``
                t, e = trees[s], start[s] + nseg[s]
                stacks[t] += [(part[mid[s]:e].copy(), depth[s] + 1, size[t]),
                              (part[start[s]:mid[s]].copy(), depth[s] + 1, -1)]
            parents = [par for _, _, par in batch]
            record = [np.asarray(f, dtype=np.int32)
                      for f in (trees, size[trees], parents, feature, counts[feature < 0])]
            for field, r in zip(fields, record + [threshold]):
                field.append(r)
        size[live] += 1
        live = live[[len(stacks[t]) > 0 for t in live]]
    del W, pools   # before the layout, which holds the most memory
    # lay the trees out in preorder; popping a field drops its records before it is permuted
    base = np.cumsum(size) - size
    tree, node, parent = (np.concatenate(fields.pop(0)) for _ in range(3))
    pos, r = base[tree] + node, parent >= 0
    right = np.full(len(pos), -1)
    right[base[tree[r]] + parent[r]] = node[r]
    feature, value = np.empty(len(pos), dtype=np.int64), np.zeros((len(pos), k))
    feature[pos] = np.concatenate(fields.pop(0))
    counts = np.concatenate(fields.pop(0))   # the leaves', which sum to their rows
    value[pos[feature[pos] < 0]] = counts / counts.sum(axis=1, keepdims=True)
    threshold = np.empty(len(pos))
    threshold[pos] = np.concatenate(fields.pop(0))
    left = np.where(feature >= 0, np.arange(len(pos)) - np.repeat(base, size) + 1, -1)
    return [Tree(*(a[i:i + n] for a in (feature, threshold, left, right, value)))
            for i, n in zip(base, size)]


def score_forest(trees: list[Tree], X: np.ndarray) -> np.ndarray:
    """Mean leaf class-frequency vector of every row of ``X`` over ``trees``.

    One preorder table stacks the trees, each leaf its own child with threshold
    +inf, so all (tree, row) pairs descend by the same array steps until none
    moves; ``~(x <= threshold)`` sends NaN right. Pairs go by whole rows, at most
    ``_BATCH_ROWS`` (or one row's) at a time; landed ones are dropped once they are
    half of those left. Each row adds its trees' leaves in tree order.
    """
    size = np.array([len(t.feature) for t in trees])
    base = np.cumsum(size) - size
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    leaf = feature < 0
    feature[leaf], threshold[leaf] = 0, np.inf
    # node i goes to child[2i] (left) or child[2i + 1] (right); a leaf to itself
    child = np.stack([np.concatenate([t.left for t in trees]),
                      np.concatenate([t.right for t in trees])], axis=1)
    child += np.repeat(base, size)[:, None]
    child[leaf] = np.flatnonzero(leaf)[:, None]
    child = child.ravel()
    value = np.concatenate([t.value[t.feature < 0] for t in trees])   # leaves' only
    row = np.cumsum(leaf, dtype=np.int32) - 1   # a leaf's row in ``value``
    n, d = X.shape
    Xf = np.ascontiguousarray(X, dtype=np.float64).ravel()
    out = np.empty((n, value.shape[1]))
    step = max(1, _BATCH_ROWS // len(trees))   # rows per chunk
    for r in range(0, n, step):
        b = min(step, n - r)
        at = np.repeat(base, b)   # tree-major pairs: tree t, row r + i at t * b + i
        live, cur, off = np.arange(len(at)), at, np.tile(np.arange(r, r + b) * d, len(trees))
        while True:
            nxt = child[2 * cur + ~(Xf[off + feature[cur]] <= threshold[cur])]
            moved = nxt != cur
            cur, moving = nxt, np.count_nonzero(moved)
            if 2 * moving <= len(cur):
                at[live] = cur
                if not moving:
                    break
                live, cur, off = live[moved], cur[moved], off[moved]
        # accumulate adds tree after tree; 0 + v is v exactly, as in a running total
        v = value[row[at]].reshape(len(trees), b, -1)
        out[r:r + b] = np.add.accumulate(v, axis=0, out=v)[-1]
    return out / len(trees)


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
        self.tree_, = grow_forest(X, y, self.class_count_, [np.arange(len(y))],
                                  [np.random.default_rng(self.seed)], self.criterion,
                                  self.max_depth, self.max_features, self.min_samples_leaf,
                                  self.splitter)

    def _scores(self, X):
        return score_forest([self.tree_], X)

    def _params_to_dict(self):
        return {**{p: getattr(self, p) for p in self._PARAMS}, "root": self.tree_.to_dict()}

    def _params_from_dict(self, doc):
        for p in self._PARAMS:
            setattr(self, p, doc[p])
        self.tree_ = Tree.from_dict(doc["root"])
