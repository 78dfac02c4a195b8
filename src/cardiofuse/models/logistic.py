"""L2-regularized logistic regression trained by full-batch gradient ascent.

Binary tasks use a single sigmoid unit; multiclass uses one multinomial
softmax layer. The penalty is ||w||^2 / (2C) on the weights (never the
bias), so smaller C regularizes harder.
"""

from __future__ import annotations

import numpy as np

from .base import DivergenceError, ProbabilisticClassifier, one_hot, sigmoid, softmax


class LogisticRegressionClassifier(ProbabilisticClassifier):
    kind = "LR"
    _PARAMS = ("C",)

    def __init__(self, C: float = 1.0, max_iter: int = 5000, tol: float = 1e-6):
        for name, value in (("C", C), ("tol", tol)):
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.C = C
        self.max_iter = max_iter
        self.tol = tol

    def _fit(self, X, y):
        n, d = X.shape
        k = self.class_count_
        # Lipschitz bound on the mean-gradient: 0.25 * lambda_max(X^T X / n) + 1/(C n)
        lam = float(np.linalg.eigvalsh((X.T @ X) / n)[-1])
        lr = 1.0 / (0.25 * lam + 1.0 / (self.C * n) + 1e-12)
        # binary: one sigmoid unit, W (d,) and b 0-d; else softmax, W (d, k) and b (k,)
        link, Y = (sigmoid, y) if k == 2 else (softmax, one_hot(y, k))
        W, b = np.zeros((d, *Y.shape[1:])), np.zeros(Y.shape[1:])
        for _ in range(self.max_iter):
            p = link(X @ W + b)
            if not np.all(np.isfinite(p)):
                raise DivergenceError(f"non-finite loss at learning rate {lr:.3g}")
            r = Y - p
            gW = X.T @ r / n - W / (self.C * n)
            gb = r.mean(axis=0)
            W += lr * gW
            b = b + lr * gb   # not in place: a 0-d b then stays a cheap numpy scalar
            if np.sqrt((gW * gW).sum() + (gb * gb).sum()) < self.tol:
                break
        self.w_, self.b_ = W, b

    def _scores(self, X):
        z = X @ self.w_ + self.b_
        if self.class_count_ == 2:
            p1 = sigmoid(z)
            return np.column_stack([1.0 - p1, p1])
        return softmax(z)

    def _state_to_dict(self):
        # a binary model's 0-d b lists as a float
        return {"w": np.asarray(self.w_).tolist(), "b": np.asarray(self.b_).tolist()}

    def _state_from_dict(self, doc):
        self.w_ = np.asarray(doc["w"], dtype=np.float64)
        self.b_ = np.asarray(doc["b"], dtype=np.float64)
