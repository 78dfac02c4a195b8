"""Boosted depth-1 stumps for binary tasks (SAMME reweighting).

Each round picks the weighted-error-minimizing (feature, threshold,
orientation) over all midpoints of sorted feature values, then reweights
the samples. Scores are a softmax over the two classes' aggregated
alpha-weighted votes.
"""

from __future__ import annotations

import numpy as np

from .base import ModelError, ProbabilisticClassifier, one_hot
from .tree import split_scan

ALPHA_CAP_LOG = 0.5 * np.log(1e10)


def _best_stump(X, y, w):
    """Minimize the weighted error over features, midpoints and orientations.

    Returns (feature, threshold, left_class, right_class, error). Left means
    x <= threshold. Also considers the degenerate no-split stump that
    predicts the weighted-majority class everywhere.
    """
    w1 = float(w[y == 1].sum())
    w0 = float(w.sum()) - w1
    # threshold below every value: everything goes right
    if w1 >= w0:
        best = (-1, -np.inf, 1, 1, w0)
    else:
        best = (-1, -np.inf, 0, 0, w1)
    # per-row weight in its class column, summed left of every cut of every feature
    xs, left, ok = split_scan(X, one_hot(y, 2) * w[:, None])
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
        super().__init__()
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.stumps_ = []   # (feature, threshold, left_class, right_class)
        self.alphas_ = []
        self.weight_history_sum_ = []

    def _fit(self, X, y):
        if self.class_count_ > 2:
            raise ModelError("boosted stumps support binary tasks only")
        self.class_count_ = 2
        n = X.shape[0]
        w = np.full(n, 1.0 / n)
        self.stumps_, self.alphas_ = [], []
        self.weight_history_sum_ = []
        for _ in range(self.n_estimators):
            f, thr, lc, rc, eps = _best_stump(X, y, w)
            if eps >= 0.5:
                if not self.stumps_:
                    # the first stump, fitted on uniform weights, is already at
                    # chance: keep it as a zero-weight majority vote
                    self.stumps_.append((f, thr, lc, rc))
                    self.alphas_.append(0.0)
                break
            pred = np.where(X[:, f] <= thr, lc, rc) if f >= 0 else np.full(n, rc)
            if eps <= 0:
                alpha = self.learning_rate * ALPHA_CAP_LOG
                self.stumps_.append((f, thr, lc, rc))
                self.alphas_.append(alpha)
                self.weight_history_sum_.append(float(w.sum()))
                break  # a perfect stump ends the ensemble
            alpha = self.learning_rate * 0.5 * np.log((1.0 - eps) / eps)
            self.stumps_.append((f, thr, lc, rc))
            self.alphas_.append(alpha)
            miss = pred != y
            w = w * np.exp(alpha * miss)
            w = w / w.sum()
            self.weight_history_sum_.append(float(w.sum()))

    def vote_totals(self, X):
        n = X.shape[0]
        F = np.zeros((n, 2))
        for (f, thr, lc, rc), alpha in zip(self.stumps_, self.alphas_):
            pred = np.where(X[:, f] <= thr, lc, rc) if f >= 0 else np.full(n, rc)
            F[np.arange(n), pred] += alpha
        return F

    def _scores(self, X):
        F = self.vote_totals(X)
        z = F - F.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def _params_to_dict(self):
        return {"n_estimators": self.n_estimators, "learning_rate": self.learning_rate,
                "stumps": [list(s) for s in self.stumps_], "alphas": list(self.alphas_)}

    def _params_from_dict(self, doc):
        self.n_estimators = doc["n_estimators"]
        self.learning_rate = doc["learning_rate"]
        self.stumps_ = [tuple(s) for s in doc["stumps"]]
        self.alphas_ = [float(a) for a in doc["alphas"]]
