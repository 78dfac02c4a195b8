"""Decision trees with gini/entropy impurity and two splitters, grown in lockstep.

``grow_forest`` grows every tree of a forest at once (DT is a one-tree forest)
on weighted distinct rows held in one flat buffer: a node is a slice of it, a
split partitions that slice in place, and each tree's depth-first stack is a
column of one array that holds only nodes that can split (a tree of n distinct
rows has at most n - 1), so a step handles the next such node of every tree
with array operations and one segmented scan, and a leaf is settled when its
parent splits. The "best" splitter scans every midpoint between distinct values
of the candidate features; the "random" splitter draws one uniform threshold
per candidate feature. Leaves store class frequencies.

A tree is its preorder arrays, so a split's left child is the next node and
only the right child is stored. ``score_forest`` scores all trees at once from
one stacked table, by one of two paths chosen from shapes alone. When no tree
has more than 64 leaves, a batch of more rows than the forest has split nodes
goes by QuickScorer's bitvectors, one 64-bit word per tree: a per-feature table
lookup and an AND give each row the exit leaf of every tree at once, from
tables that cost no more than the batch. Any other batch, DT's one tree, or a
forest with a tree past 64 leaves, descends all (tree, row) pairs level by
level. Both paths give the same bits.
"""

from __future__ import annotations

import numpy as np

from .base import ProbabilisticClassifier


def _impurity_rows(counts: np.ndarray, n: np.ndarray, criterion: str) -> np.ndarray:
    # rows of class counts and their sums -> impurity per row
    p = counts / np.maximum(n, 1)[:, None]
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -(p * logp).sum(axis=1)


def check_tree_params(criterion, max_depth, max_features, min_samples_leaf):
    """Raise ValueError on a tree setting that DT and RF cannot grow with."""
    if criterion not in ("gini", "entropy"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if max_features is not None and max_features < 0:
        raise ValueError("max_features must be >= 0")
    if min_samples_leaf < 0:
        raise ValueError("min_samples_leaf must be >= 0")


class Tree:
    """A fitted binary tree as parallel arrays in preorder.

    Node i sends rows with x[feature[i]] <= threshold[i] to its left child,
    the next node in preorder, i + 1, and the rest to node right[i];
    feature[i] == -1 marks a leaf, whose class-frequency vector is value[i].
    """

    def __init__(self, feature, threshold, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
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
        k = len(next(node["dist"] for node in nodes if "dist" in node))
        return cls([node.get("feature", -1) for node in nodes],
                   [node.get("threshold", 0.0) for node in nodes], right,
                   [node.get("dist", np.zeros(k)) for node in nodes])

    def to_dict(self) -> dict:
        """The nested v1 node document; children follow their parent, so build from the end."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        right, value = self.right.tolist(), self.value.tolist()
        docs = [None] * len(feature)
        for i in range(len(docs) - 1, -1, -1):
            docs[i] = {"dist": value[i]} if feature[i] < 0 else {
                "feature": feature[i], "threshold": threshold[i],
                "left": docs[i + 1], "right": docs[right[i]]}
        return docs[0]


# rows that one batch of nodes brings to the split search, give or take one
# node: the scan's largest arrays hold rows x candidates x classes entries;
# also the most (tree, row) pairs that one chunk of the descent moves
_BATCH_ROWS = 8192

# the most (row, tree) bitvectors, one 64-bit word each, that one chunk of the
# bitvector path ANDs
_BATCH_WORDS = 32768

# 2**a - 1 at index a: the low a bits of a 64-bit word, for a in 0..64
_LOW_BITS = np.array([(1 << a) - 1 for a in range(65)], dtype=np.uint64)


def _choice_draws(rng, d, m, count):
    """The integers that ``count`` successive ``rng.choice(d, m, replace=False)`` calls read.

    ``choice`` takes Floyd's sample with one integer below j + 1 for each j in
    d-m .. d-1, then shuffles it with one below i + 1 for each i in m-1 .. 1.
    One ``integers`` call with those bounds reads the stream alike, so the
    generator state matches; a test pins this on the installed numpy.
    """
    high = np.concatenate([np.arange(d - m + 1, d + 1), np.arange(m, 1, -1)])
    return rng.integers(0, np.tile(high, count)).reshape(count, max(2 * m - 1, 0))


def _floyd(draw, d, m):
    """The ``choice(d, m, replace=False)`` sample of each row of ``_choice_draws``."""
    out = np.empty((len(draw), m), dtype=draw.dtype)
    for t in range(m):   # Floyd's sampler: a draw already taken becomes d - m + t
        taken = (out[:, :t] == draw[:, t:t + 1]).any(axis=1)
        out[:, t] = np.where(taken, d - m + t, draw[:, t])
    every = np.arange(len(draw))
    for i, j in zip(range(m - 1, 0, -1), draw[:, m:].T):   # swap column i with column j
        out[every, j], out[:, i] = out[:, i].copy(), out[every, j]
    return out


def _split_segments(X, y, R, rows, wts, nseg, counts, cand, criterion, min_leaf, rngs=None):
    """(feature, threshold) of every node of a batch, feature -1 where no cut is valid.

    The nodes' ``rows`` come as consecutive segments of ``nseg`` rows, row i
    standing for ``wts[i]`` copies, with their class ``counts`` (of copies) and
    candidates ``cand`` in draw order; ``R`` ranks each column of ``X``. The best
    splitter (no ``rngs``) sorts every candidate column by (segment, value) and
    takes the class counts left of each cut as a segmented prefix sum: each
    segment's first row less the previous segment's counts, then one ``cumsum``,
    exact on integer counts. The random splitter draws one uniform threshold per
    non-constant candidate from each node's generator. Ties go to the earlier
    candidate, then the lower threshold.
    """
    S, N, starts = len(nseg), len(rows), np.cumsum(nseg) - nseg
    seg, size = np.repeat(np.arange(S), nseg), counts.sum(axis=1)
    onehot = np.eye(counts.shape[1], dtype=np.int32)[y[rows]] * wts[:, None]
    if rngs is None:
        # keys in the smallest dtype that holds them, ranks read by flat index
        key = (seg * len(X)).astype(np.min_scalar_type(S * len(X)))[:, None] + np.take(
            R, rows[:, None] * X.shape[1] + cand[seg])
        order = np.argsort(key, axis=0, kind="stable")   # the order of ties reaches no output
        key = np.take_along_axis(key, order, axis=0)
        left = np.take(onehot, order, axis=0)
        left[starts[1:]] -= counts[:-1, None, :].astype(np.int32)
        np.cumsum(left, axis=0, out=left)
        ok = np.diff(key, axis=0, append=key[-1:]) > 0   # a larger value follows
        ok[starts + nseg - 1] = False   # ... in the same segment
        p, j = np.nonzero(ok)   # grouped by segment, then by cut
        s, L = seg[p], left[p, j]
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
        cost = (nl * _impurity_rows(L, nl, criterion)
                + (n - nl) * _impurity_rows(counts[s] - L, n - nl, criterion)) / n
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
    distinct pairs of its root rows, weighted by their counts there. These sit
    in one flat buffer, all trees' roots end to end with the weights beside
    them; a node is a slice of it. A node above ``max_depth`` with two classes
    and two ``min_leaf``s of weight can split; any other is a leaf when made.
    Each tree's depth-first stack, a column of one array, holds only nodes that
    can split, with their class counts. A step pops the next of them from every
    unfinished tree with one gather and takes them in batches of about
    ``_BATCH_ROWS`` rows: one ``_split_segments`` call, one stable partition of
    every split node's slice in place, left rows first, and one weighted
    ``bincount`` of the children's classes. A node with no valid cut is a leaf,
    and children that can split are pushed, right before left. A node's
    candidates are its tree's next ``rng.choice``: drawn after the root rows
    for the at most n - 1 nodes that can split in a tree of n pairs (best
    splitter), or node by node before its thresholds (random), so each tree
    reads its stream as if grown alone. Preorder positions are laid out at the
    end. ``max_features`` None draws round(sqrt(d)) candidates.
    """
    d = X.shape[1]
    m = min(int(round(np.sqrt(d))) if max_features is None else max_features, d)
    max_depth = np.inf if max_depth is None else max_depth
    Xy, group = np.unique(np.column_stack([X, y]), axis=0, return_inverse=True)
    X, y = Xy[:, :-1], Xy[:, -1].astype(np.int64)
    R = np.column_stack([np.unique(c, return_inverse=True)[1] for c in X.T]).astype(
        np.min_scalar_type(len(X)))   # dense ranks, in the split scan's smallest key dtype
    buf, wbuf, draws = [], [], []
    for r, rng in zip(roots, rngs):
        w = np.bincount(group[r], minlength=len(X))
        buf.append(np.flatnonzero(w).astype(np.int32))
        wbuf.append(w[buf[-1]].astype(np.int32))
        count = max(len(buf[-1]) - 1, 0) if splitter == "best" else 0
        draws.append(_choice_draws(rng, d, m, count).astype(np.min_scalar_type(d)))
    nxt = np.cumsum([0] + [len(p) for p in draws])[:-1]   # each tree's next draw in the pool
    pools, nroot = _floyd(np.concatenate(draws), d, m), np.array([len(b) for b in buf])
    del draws
    T, end, buf, wbuf = len(nroot), np.cumsum(nroot), np.concatenate(buf), np.concatenate(wbuf)
    # node t is tree t's root, split j's children are nodes T + 2j (right) and T + 2j + 1
    # (left). Records: each split's (node, feature, threshold), each leaf's (node, counts)
    splits, leaves, made = [np.zeros((0, 3))], [], 0
    stack = np.empty((16, T, 4 + k), dtype=np.int32)   # level x tree: lo, hi, depth, node, counts
    sp, owner = np.zeros(T, dtype=np.int64), np.arange(T)
    counts = np.bincount(np.repeat(owner * k, nroot) + y[buf], wbuf, T * k).reshape(T, k)
    new = np.column_stack([end - nroot, end, np.zeros(T), owner, counts])
    while True:
        # new nodes that cannot split are leaves, the others go on the stack, a tree's in order
        new = new.astype(np.int32)
        can = ((new[:, 2] < max_depth) & (new[:, 4:].sum(axis=1) >= 2 * min_leaf)
               & ((new[:, 4:] > 0).sum(axis=1) > 1))
        leaves.append(new[~can, 3:])
        new, owner = new[can], owner[can]
        if sp.max() + 2 > len(stack):   # a tree gets two at most: double the levels
            stack = np.concatenate([stack, np.empty_like(stack)])
        stack[sp[owner] + np.concatenate([[0], owner[1:] == owner[:-1]]), owner] = new
        sp += np.bincount(owner, minlength=T)
        live = np.flatnonzero(sp)
        if not len(live):
            break
        sp[live] -= 1
        top = stack[sp[live], live]
        last = np.cumsum(top[:, 1] - top[:, 0])
        # a batch: the nodes whose last rows fall in one window of _BATCH_ROWS rows
        cuts = [0, *(np.flatnonzero(np.diff((last - 1) // _BATCH_ROWS)) + 1), len(live)]
        kids, owners = [], []
        for a, b in zip(cuts, cuts[1:]):
            trees, (lo, hi, depth, node), counts = live[a:b], top[a:b, :4].T, top[a:b, 4:]
            nseg = hi - lo
            start = np.cumsum(nseg) - nseg
            seg = np.repeat(np.arange(len(trees), dtype=np.int32), nseg)
            places = np.arange(len(seg)) + (lo - start)[seg]   # in the buffer
            rows, wts = buf[places], wbuf[places]
            cand = pools[nxt[trees]] if splitter == "best" else np.array(
                [rngs[t].choice(d, m, replace=False) for t in trees])
            nxt[trees] += 1
            feature, threshold = _split_segments(
                X, y, R, rows, wts, nseg, counts, cand, criterion, min_leaf,
                [rngs[t] for t in trees] if splitter == "random" else None)
            # a stable partition of each split node's slice, left rows first, in place
            split = feature >= 0
            go = split[seg] & ~(X[rows, feature[seg]] <= threshold[seg])
            side = np.argsort((2 * seg + go).astype(np.min_scalar_type(2 * len(trees))),
                              kind="stable")
            buf[places], wbuf[places] = rows[side], wts[side]
            s, mid = np.flatnonzero(split), hi - np.bincount(seg[go], minlength=len(trees))
            splits.append(np.column_stack([node, feature, threshold])[s])
            leaves.append(top[a:b, 3:][~split])
            kid_counts = np.bincount((2 * seg + ~go) * k + y[rows], wts, 2 * len(trees) * k)
            kids.append(np.column_stack([   # each split node's right child, then its left
                np.column_stack([mid, hi, lo, mid])[s].reshape(-1, 2), np.repeat(depth[s] + 1, 2),
                T + 2 * made + np.arange(2 * len(s)),
                kid_counts.reshape(-1, 2 * k)[s].reshape(-1, k)]))
            owners.append(np.repeat(trees[s], 2))
            made += len(s)
        new, owner = np.concatenate(kids), np.concatenate(owners)
    del buf, wbuf, pools, stack   # before the layout, which holds the most memory
    # a batch's splits are distinct nodes made by earlier batches, so subtree sizes add
    # up over the batches backwards, and preorder positions follow forwards: a left
    # child comes next to its parent, a right child after its left sibling's subtree
    spans, splits = np.cumsum([0] + [len(j) for j in splits]), np.concatenate(splits)
    parent = splits[:, 0].astype(np.int64)
    size = np.ones(T + 2 * len(parent), dtype=np.int32)
    pos, kid = np.empty_like(size), size[T:].reshape(-1, 2)   # kid: (right, left) sizes
    for a, b in zip(spans[-2::-1], spans[:0:-1]):
        size[parent[a:b]] += kid[a:b, 0] + kid[a:b, 1]
    pos[:T], kpos = np.cumsum(size[:T]) - size[:T], pos[T:].reshape(-1, 2)
    for a, b in zip(spans, spans[1:]):
        p = parent[a:b]
        kpos[a:b, 0], kpos[a:b, 1] = pos[p] + size[p] - kid[a:b, 0], pos[p] + 1
    leaves, n = np.concatenate(leaves), int(size[:T].sum())   # leaves: node, class counts
    value = np.zeros((n, k))
    value[pos[leaves[:, 0]]] = leaves[:, 1:] / leaves[:, 1:].sum(axis=1, keepdims=True)
    del leaves
    at, feature, right, threshold = pos[parent], np.full(n, -1), np.full(n, -1), np.zeros(n)
    feature[at], threshold[at] = splits[:, 1], splits[:, 2]
    right[at] = kpos[:, 0] - np.repeat(pos[:T], size[:T])[at]
    return [Tree(*(a[i:i + s] for a in (feature, threshold, right, value)))
            for i, s in zip(pos[:T], size[:T])]


def score_forest(trees: list[Tree], X: np.ndarray) -> np.ndarray:
    """Mean leaf class-frequency vector of every row of ``X`` over ``trees``.

    The trees' node arrays are stacked end to end, a split's left child still
    the next node, and one of two paths finds the exit leaf of every (tree,
    row) pair; both send a row right where ``~(x <= threshold)``, so NaN goes
    right. A batch with more rows than split nodes, in a forest of trees of at
    most 64 leaves, goes by one-word bitvectors (``_exit_leaves_by_bitvectors``):
    their tables take at most 8 bytes per (row, tree) pair of the batch, and a
    row costs one lookup per feature. Any other batch descends level by level
    (``_exit_leaves_by_descent``), the reference the tests hold the bitvectors
    to; so does a one-tree forest, whose lone tree the descent walks faster,
    and a forest with a tree past 64 leaves. Each row adds its trees' leaves in
    tree order, so both paths give the same bits.
    """
    size = np.array([len(t.feature) for t in trees])
    base = np.cumsum(size) - size
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    leaf = feature < 0
    before = np.cumsum(leaf, dtype=np.int32) - leaf   # leaves ahead: a leaf's row in ``value``
    # node i goes to child[i, 0] = i + 1 (left) or child[i, 1] (right); a leaf to itself
    child = np.stack([np.arange(1, len(feature) + 1),
                      np.concatenate([t.right for t in trees]) + np.repeat(base, size)], axis=1)
    child[leaf] = np.flatnonzero(leaf)[:, None]
    value = np.concatenate([t.value[t.feature < 0] for t in trees])   # leaves' only
    X = np.ascontiguousarray(X, dtype=np.float64)
    bitvectors = (len(trees) > 1 and np.add.reduceat(leaf, base).max() <= 64
                  and len(X) > np.count_nonzero(~leaf))
    exits = _exit_leaves_by_bitvectors if bitvectors else _exit_leaves_by_descent
    out = np.empty((len(X), value.shape[1]))
    for r, at in exits(feature, threshold, child, before, base, X):
        # accumulate adds tree after tree; 0 + v is v exactly, as in a running total
        v = np.take(value, at, axis=0)
        out[r:r + at.shape[1]] = np.add.accumulate(v, axis=0, out=v)[-1]
    return out / len(trees)


def _exit_leaves_by_descent(feature, threshold, child, before, base, X):
    """(first row, tree-by-row exit leaves) of each chunk of ``X``, each leaf
    numbered as ``before`` counts it.

    Each leaf is its own child with threshold +inf (written over ``feature``
    and ``threshold`` in place), so all (tree, row) pairs of a chunk, at most
    ``_BATCH_ROWS`` pairs (or one row's), descend by the same array steps
    until none moves.
    """
    leaf = feature < 0
    feature[leaf], threshold[leaf] = 0, np.inf
    child = child.ravel()
    n, d = X.shape
    Xf = X.ravel()
    step = max(1, _BATCH_ROWS // len(base))   # rows per chunk
    for r in range(0, n, step):
        b = min(step, n - r)
        at = np.repeat(base, b)   # tree-major pairs: tree t, row r + i at t * b + i
        off = np.tile(np.arange(r, r + b) * d, len(base))
        while True:
            nxt = child[2 * at + ~(Xf[off + feature[at]] <= threshold[at])]
            if np.array_equal(nxt, at):
                break
            at = nxt
        yield r, before[at].reshape(len(base), b)


def _exit_leaves_by_bitvectors(feature, threshold, child, before, base, X):
    """(first row, tree-by-row exit leaves) of each chunk of ``X``, each leaf
    numbered as ``before`` counts it.

    QuickScorer (Lucchese et al., SIGIR 2015), for trees of at most 64 leaves.
    Bit j of a tree's 64-bit word stands for its j-th leaf in preorder. A
    split's mask clears the bits of its left subtree's leaves, from its own
    first leaf up to the first leaf of its right child. The AND of the masks of
    every split that sends a row right keeps the row's exit leaf as its lowest
    set bit. For each feature, that feature's splits sorted by threshold give a
    table whose row c is the AND of the first c masks; ``searchsorted`` counts
    the thresholds below x, the splits where ``~(x <= threshold)``, NaN past
    all of them. A chunk of at most ``_BATCH_WORDS`` words (or one row's) ANDs
    the table rows its rows pick, one per feature.
    """
    T, (n, d) = len(base), X.shape
    split = np.flatnonzero(feature >= 0)
    tree = np.searchsorted(base, split, side="right") - 1
    first = before[base]   # each tree's first leaf
    lo, hi = before[split] - first[tree], before[child[split, 1]] - first[tree]
    masks = ~(_LOW_BITS[hi] ^ _LOW_BITS[lo])
    order = np.lexsort((threshold[split], feature[split]))
    bounds = np.searchsorted(feature[split][order], np.arange(d + 1))
    ones = np.iinfo(np.uint64).max
    lookups = []   # (table, table row of every row of X) per feature with splits
    for j, (s, e) in enumerate(zip(bounds[:-1], bounds[1:])):
        if s == e:
            continue
        i = order[s:e]
        table = np.full((e - s + 1, T), ones, dtype=np.uint64)
        table[np.arange(1, e - s + 1), tree[i]] = masks[i]
        np.bitwise_and.accumulate(table, axis=0, out=table)
        lookups.append((table, np.searchsorted(threshold[split[i]], X[:, j])))
    step = max(1, _BATCH_WORDS // T)   # rows per chunk
    for r in range(0, n, step):
        b = min(step, n - r)
        bits = np.full((b, T), ones, dtype=np.uint64)
        for table, rows in lookups:
            bits &= table[rows[r:r + b]]
        # the lowest set bit, a power of two that float64 holds exactly:
        # frexp gives its exponent plus one
        leaf = np.frexp((bits & -bits).astype(np.float64))[1] - 1
        yield r, (leaf + first).T


class DecisionTreeClassifier(ProbabilisticClassifier):
    kind = "DT"
    _PARAMS = ("criterion", "max_depth", "max_features", "min_samples_leaf", "splitter", "seed")

    def __init__(self, criterion: str = "gini", max_depth: int | None = 8,
                 max_features: int | None = 8, min_samples_leaf: int = 7,
                 splitter: str = "random", seed: int = 0):
        check_tree_params(criterion, max_depth, max_features, min_samples_leaf)
        if splitter not in ("random", "best"):
            raise ValueError(f"unknown splitter {splitter!r}")
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.splitter = splitter
        self.seed = seed

    def _fit(self, X, y):
        self.tree_, = grow_forest(X, y, self.class_count_, [np.arange(len(y))],
                                  [np.random.default_rng(self.seed)], self.criterion,
                                  self.max_depth, self.max_features, self.min_samples_leaf,
                                  self.splitter)

    def _scores(self, X):
        return score_forest([self.tree_], X)

    def _state_to_dict(self):
        return {"root": self.tree_.to_dict()}

    def _state_from_dict(self, doc):
        self.tree_ = Tree.from_dict(doc["root"])
