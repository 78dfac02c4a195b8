"""Boosted depth-1 stumps for binary tasks (SAMME reweighting).

Each round picks the weighted-error-minimizing (feature, threshold,
orientation) over all midpoints of sorted feature values, then reweights
the samples. The features are sorted once per fit (``split_scan``); a round
only sums its weighted class columns in that order. Scores are a softmax
over the two classes' aggregated alpha-weighted votes. ``vote_totals``
evaluates each distinct split test once per row and sums the stumps, in
stump order, once per distinct pattern of test outcomes in the batch; at a
small learning rate a few tests win most rounds, so a large batch holds only
a handful of patterns.
"""

from __future__ import annotations

import numpy as np

from .base import ModelError, ProbabilisticClassifier, one_hot, shaped, softmax

ALPHA_CAP_LOG = 0.5 * np.log(1e10)


def split_scan(X: np.ndarray):
    """Stable ``order`` of every column of ``X``, the sorted columns ``xs`` and the cuts ``ok``.

    ``ok[i, j]`` marks a cut between distinct values: it keeps the rows
    ``order[:i + 1, j]`` left and thresholds at (xs[i, j] + xs[i + 1, j]) / 2.
    """
    order = np.argsort(X, axis=0, kind="stable")
    xs = X[order, np.arange(X.shape[1])]
    return order, xs, xs[1:] > xs[:-1]


def _best_stump(scan, y, w):
    """Minimize the weighted error over features, midpoints and orientations.

    ``scan`` is ``split_scan(X)``. Returns (feature, threshold, left_class,
    right_class, error). Left means x <= threshold. Also considers the
    degenerate no-split stump that predicts the weighted-majority class everywhere.
    """
    w1 = float(w[y == 1].sum())
    w0 = float(w.sum()) - w1
    # threshold below every value: everything goes right
    if w1 >= w0:
        best = (-1, -np.inf, 1, 1, w0)
    else:
        best = (-1, -np.inf, 0, 0, w1)
    # per-row weight in its class column, summed left of every cut of every feature
    order, xs, ok = scan
    left = np.cumsum((one_hot(y, 2) * w[:, None])[order], axis=0)[:-1]
    left0, left1 = left[..., 0], left[..., 1]   # class weights left of the threshold
    # orientation A: left -> 0, right -> 1; B: left -> 1, right -> 0;
    # errors are misweighted mass, searched feature-major, then A before B
    err = np.stack([left1 + (w0 - left0), left0 + (w1 - left1)])   # (orientation, cut, feature)
    err = np.where(ok, err, np.inf).transpose(2, 0, 1)
    if ok.any():   # some feature takes two distinct values
        f, o, i = np.unravel_index(int(np.argmin(err)), err.shape)
        if err[f, o, i] < best[4]:   # a tie keeps the degenerate stump
            best = (int(f), float((xs[i, f] + xs[i + 1, f]) / 2.0), int(o), 1 - int(o),
                    float(err[f, o, i]))
    return best


class AdaBoostClassifier(ProbabilisticClassifier):
    kind = "ADA"

    def __init__(self, n_estimators: int = 200, learning_rate: float = 0.01):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate

    def _fit(self, X, y):
        if self.class_count_ > 2:
            raise ModelError("boosted stumps support binary tasks only")
        n = X.shape[0]
        w = np.full(n, 1.0 / n)
        self.stumps_, self.alphas_ = [], []
        scan = split_scan(X)   # the weights change each round, the order never
        for _ in range(self.n_estimators):
            f, thr, lc, rc, eps = _best_stump(scan, y, w)
            if eps >= 0.5 and self.stumps_:
                break
            if eps >= 0.5:
                # the first stump, fitted on uniform weights, is already at
                # chance: keep it as a zero-weight majority vote
                alpha = 0.0
            elif eps <= 0:
                alpha = self.learning_rate * ALPHA_CAP_LOG
            else:
                alpha = self.learning_rate * 0.5 * np.log((1.0 - eps) / eps)
            self.stumps_.append((f, thr, lc, rc))
            self.alphas_.append(alpha)
            if not 0 < eps < 0.5:
                break  # a perfect stump, or the first at chance, ends the ensemble
            pred = np.where(X[:, f] <= thr, lc, rc) if f >= 0 else np.full(n, rc)
            w = w * np.exp(alpha * (pred != y))
            w = w / w.sum()

    def vote_totals(self, X):
        """Sum of alpha over the stumps that vote for each class, in stump order.

        Each distinct split test ``x[f] <= thr`` is evaluated once per row
        (NaN is not left), and the rows are grouped by their pattern of test
        outcomes, by integer ids built one byte of the packed pattern at a
        time. The stumps are then summed once per pattern present in the
        batch: each adds alpha or 0.0 to both class totals of every pattern,
        so every row gets the same additions in the same order as its own
        per-row running sum, and the same bits whatever batch it is in.
        """
        tests = {}   # (feature, threshold) -> its column of the outcome matrix
        for f, thr, _, _ in self.stumps_:
            if f >= 0:
                tests.setdefault((f, thr), len(tests))
        feats = np.array([f for f, _ in tests], dtype=np.intp)
        left = X[:, feats] <= np.array([thr for _, thr in tests], dtype=float)
        # a row's group is the rank of its outcomes packed 8 to a byte, folded
        # in one byte column at a time: an id below the row count, times 256,
        # plus the next byte, ranked again; no test leaves every row in group 0
        inverse, first = np.zeros(len(X), dtype=np.intp), np.arange(min(len(X), 1))
        for byte in np.packbits(left, axis=1).T:
            _, first, inverse = np.unique(inverse * 256 + byte, return_index=True,
                                          return_inverse=True)
        patterns = left[first]
        F = np.zeros((2, len(first)))
        for (f, thr, lc, rc), alpha in zip(self.stumps_, self.alphas_):
            goes_left = patterns[:, tests[f, thr]] if f >= 0 else False
            F[lc] += np.where(goes_left, alpha, 0.0)
            F[rc] += np.where(goes_left, 0.0, alpha)
        return F[:, inverse].T.copy()   # rows x classes in C order, as the scores always came

    def _scores(self, X):
        return softmax(self.vote_totals(X))

    def _state_to_dict(self):
        return {"stumps": [list(s) for s in self.stumps_], "alphas": list(self.alphas_)}

    def _state_from_dict(self, doc):
        stumps, alphas = doc["stumps"], doc["alphas"]
        if len(alphas) != len(stumps):
            raise ValueError(f"{len(alphas)} 'alphas' for {len(stumps)} 'stumps'")
        shaped(stumps, (len(stumps), 4), "stumps")   # four numbers each
        self.stumps_ = [tuple(s) for s in stumps]
        self.alphas_ = shaped(alphas, (len(alphas),), "alphas").tolist()
        for f, _, lc, rc in self.stumps_:   # a feature, or -1 for no split, and two classes
            if not (all(type(v) is int for v in (f, lc, rc))
                    and -1 <= f < self.n_features_ and {lc, rc} <= {0, 1}):
                raise ValueError(f"field 'stumps' holds ({f}, {lc}, {rc}), not a stump of "
                                 f"{self.n_features_} features and two classes")
