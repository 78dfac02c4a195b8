"""Soft-margin SVM, calibrated to probabilities via Platt.

Binary mode solves the dual of  min 1/2||w||^2 + C sum(xi)  (RBF kernel by
default); multiclass mode trains one linear-kernel machine per class
(one-vs-rest) and normalizes the calibrated per-class probabilities. The
dual is solved by a Mehrotra predictor-corrector interior-point method that
sees the kernel only through a low-rank factor K = ZZ' (Fine & Scheinberg,
JMLR 2001; Ferris & Munson, SIAM J. Optim. 2002) and stops at LIBSVM's gap
m(alpha) - M(alpha) <= tol.

A batch is scored ``_BLOCK_ROWS`` rows at a time and b is added once, so a
large batch never holds its whole kernel; the blocks give the bits of one
product over the batch.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..blas import one_blas_thread
from .base import ModelError, NotFittedError, ProbabilisticClassifier, shaped, sigmoid

# rows per kernel block. OpenBLAS tiles GEMM rows by 8, and by 12 against the
# last few support vectors, and computes remainder rows with another kernel;
# blocks of 768 rows, a multiple of 24, kept the whole-batch bits on every
# random shape tried, where blocks of 256, 384, 512 and 1,024 rows moved the
# last bits of some rows once a machine had a few hundred support vectors
_BLOCK_ROWS = 768


def rbf_kernel(A, B, gamma):
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    return np.exp(-gamma * np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0))


def linear_kernel(A, B, gamma=None):
    return A @ B.T


KERNELS = {"rbf": rbf_kernel, "linear": linear_kernel}


def kernel_factor(X, kernel="rbf", gamma=0.1):
    """Pivoted incomplete Cholesky: Z (n x r) with kernel(X, X) = Z Z^T to
    within 1e-10 of the largest diagonal entry. Each pivot computes one
    kernel column, so the n x n kernel is never formed."""
    n = len(X)
    d = np.ones(n) if kernel == "rbf" else (X * X).sum(axis=1)
    stop = 1e-10 * d.max()
    Z = np.zeros((n, n), order="F")
    r = 0
    while r < n and d.max() > stop:
        p = int(np.argmax(d))
        column = KERNELS[kernel](X, X[p:p + 1], gamma)[:, 0] - Z[:, :r] @ Z[p, :r]
        Z[:, r] = column / np.sqrt(d[p])
        d -= Z[:, r] ** 2
        r += 1
    return np.ascontiguousarray(Z[:, :r])


def _snap(a, s, z, v, y, C, grad):
    """Round an interior iterate onto its bounds and rate the result.

    alpha -> 0 where alpha < z and alpha -> C where C - alpha < v, then the
    free rows absorb y'alpha. Where that leaves the box, or no row is free
    to absorb it, the interior iterate is rated as it is. Returns alpha, b
    and LIBSVM's gap m(alpha) - M(alpha) over -y * grad(alpha).
    """
    alpha = np.where(a < z, 0.0, np.where(s < v, C, a))
    free = (alpha > 0) & (alpha < C)
    if free.any():
        alpha[free] -= y[free] * (y @ alpha) / free.sum()
        feasible = ((alpha[free] > 0) & (alpha[free] < C)).all()
    else:
        feasible = y @ (alpha == C) == 0
    if not feasible:
        alpha = np.clip(a, 0.0, C)
        free = (alpha > 0) & (alpha < C)
    score = -y * grad(alpha)
    m = score[np.where(y > 0, alpha < C, alpha > 0)].max()
    M = score[np.where(y > 0, alpha > 0, alpha < C)].min()
    b = float(score[free].mean()) if free.any() else (m + M) / 2.0
    return alpha, b, float(m - M)


def _solve_dual(Z, y, C, tol, max_iter):
    """Mehrotra predictor-corrector interior-point method on the SVM dual.

    Minimises 1/2 a'Qa - e'a subject to y'a = 0 and 0 <= a <= C, where
    Q = diag(y) Z Z' diag(y); s = C - a is the slack and z, v, b are the
    multipliers of a >= 0, a <= C and y'a = 0. A Newton step solves with
    Q + D, D = z/a + v/s, by Woodbury: with Zs = D^-1/2 Z, (ZZ' + D)^-1 is
    D^-1/2 (I - Zs S^-1 Zs') D^-1/2 and S = I + Zs'Zs is the only system
    solved (r x r). D is raised by 1e-8: as D -> 0 on the free rows S grows
    too ill-conditioned to solve, and the iterates stall. Returns the best
    snapped iterate (_snap) and {iterations, converged, gap}.
    """
    n, r = Z.shape
    if abs(y.sum()) == n:   # one class only: alpha = 0 and y*f = 1 on every row
        return np.zeros(n), float(y[0]), {"iterations": 0, "converged": True, "gap": 0.0}
    grad = lambda x: y * (Z @ (Z.T @ (y * x))) - 1.0
    a = np.where(y > 0, (y < 0).sum(), (y > 0).sum()) * (C / n)   # y'a = 0
    s, z, v, b = C - a, np.ones(n), np.ones(n), 0.0
    best = (None, 0.0, np.inf)
    for it in range(max_iter + 1):
        best = min(best, _snap(a, s, z, v, y, C, grad), key=lambda snapped: snapped[2])
        if best[2] <= tol or it == max_iter:
            break
        rd = grad(a) + b * y - z + v          # dual residual
        ru = a + s - C                        # slack residual
        dh = 1.0 / np.sqrt(z / a + v / s + 1e-8)
        Zs = Z * dh[:, None]
        S = Zs.T @ Zs
        S.flat[::r + 1] += 1.0
        def solve(u):  # (Q + D)^-1 u
            w = dh * (y * u)
            return y * dh * (w - Zs @ np.linalg.solve(S, Zs.T @ w))
        h = solve(y)
        def newton(cz, cv):  # step that changes a*z by cz and s*v by cv, to first order
            g = solve(cz / a - (cv + v * ru) / s - rd)
            db = (y @ g + y @ a) / (y @ h)
            da = g - h * db
            return da, -ru - da, db, (cz - z * da) / a, (cv + v * (ru + da)) / s
        def reach(da, ds, dz, dv):  # longest step in (0, 1] keeping a, s, z, v >= 0
            ratios = [-x[dx < 0] / dx[dx < 0] for x, dx in ((a, da), (s, ds), (z, dz), (v, dv))]
            return min(1.0, float(np.concatenate(ratios).min(initial=np.inf)))

        mu = (a @ z + s @ v) / (2 * n)
        da, ds, db, dz, dv = newton(-a * z, -s * v)                      # predictor
        t = reach(da, ds, dz, dv)
        mu_aff = ((a + t * da) @ (z + t * dz) + (s + t * ds) @ (v + t * dv)) / (2 * n)
        sm = (mu_aff / mu) ** 3 * mu
        da, ds, db, dz, dv = newton(sm - a * z - da * dz, sm - s * v - ds * dv)  # corrector
        t = min(1.0, 0.99 * reach(da, ds, dz, dv))
        a, s, b, z, v = a + t * da, s + t * ds, b + t * db, z + t * dz, v + t * dv
    return best[0], best[1], {"iterations": it, "converged": best[2] <= tol, "gap": best[2]}


def fit_platt(decision: np.ndarray, target01: np.ndarray, max_iter=100):
    """Platt's sigmoid fit: P(y=1|f) = 1/(1+exp(A f + B)), Newton iterations."""
    f = np.asarray(decision, dtype=np.float64)
    t01 = np.asarray(target01, dtype=np.float64)
    n1 = t01.sum()
    n0 = len(t01) - n1
    t = np.where(t01 > 0, (n1 + 1.0) / (n1 + 2.0), 1.0 / (n0 + 2.0))
    A, B = 0.0, float(np.log((n0 + 1.0) / (n1 + 1.0)))
    for _ in range(max_iter):
        p = sigmoid(-(A * f + B))
        gA = float(((t - p) * f).sum())
        gB = float((t - p).sum())
        w = np.maximum(p * (1.0 - p), 1e-12)
        hAA = float((w * f * f).sum()) + 1e-12
        hAB = float((w * f).sum())
        hBB = float(w.sum()) + 1e-12
        det = hAA * hBB - hAB * hAB
        if abs(det) < 1e-18:
            break
        dA = -(hBB * gA - hAB * gB) / det
        dB = -(hAA * gB - hAB * gA) / det
        A += dA
        B += dB
        if abs(dA) < 1e-10 and abs(dB) < 1e-10:
            break
    return A, B


def platt_prob(A, B, f):
    return sigmoid(-(A * np.asarray(f) + B))


class SVMClassifier(ProbabilisticClassifier):
    kind = "SVM"

    def __init__(self, C: float = 1.0, kernel: str = "rbf", gamma: float = 0.1,
                 tol: float = 1e-3, max_passes: int = 200):
        for name, value in (("C", C), ("gamma", gamma), ("tol", tol)):
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if max_passes < 1:
            raise ValueError("max_passes must be >= 1")
        if kernel not in KERNELS:
            raise ValueError(f"unsupported kernel {kernel!r}")
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.tol = tol
        self.max_passes = max_passes

    def _kernel(self, A, B):
        return KERNELS[self.kernel](A, B, self.gamma)

    def _fit(self, X, y):
        k = self.class_count_
        # solver_ holds {iterations, converged, gap} per machine and is not in documents
        self.single_class_, self.machines_, self.solver_ = None, [], []
        present = np.unique(y)
        if len(present) == 1:
            self.single_class_ = int(present[0])
            return
        Z = kernel_factor(X, self.kernel, self.gamma)
        positive_sets = [1] if k == 2 else list(range(k))
        for cls in positive_sets:
            ypm = np.where(y == cls, 1.0, -1.0)
            alpha, b, stats = _solve_dual(Z, ypm, self.C, self.tol, self.max_passes)
            if not stats["converged"]:
                warnings.warn(f"SVM dual solver hit its cap of {self.max_passes} Newton steps "
                              "before meeting the KKT tolerance; returning the best iterate")
            self.solver_.append(stats)
            A, B = fit_platt(Z @ (Z.T @ (alpha * ypm)) + b, (ypm > 0).astype(float))
            sv = alpha > 1e-10
            self.machines_.append({"sv_X": X[sv].copy(), "coef": (alpha * ypm)[sv].copy(),
                                   "b": b, "A": A, "B": B})

    def decision_function(self, X, machine: int = 0):
        if not self.fitted:
            raise NotFittedError(f"{self.kind} model is not fitted")
        if not 0 <= machine < len(self.machines_):   # a single-class model has none
            raise ModelError(f"{self.kind} model has no machine {machine}; "
                             f"it has {len(self.machines_)}")
        m = self.machines_[machine]
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X))
        with one_blas_thread:
            for r in range(0, len(X), _BLOCK_ROWS):
                np.matmul(self._kernel(X[r:r + _BLOCK_ROWS], m["sv_X"]), m["coef"],
                          out=out[r:r + _BLOCK_ROWS])
        out += m["b"]
        return out

    def _scores(self, X):
        k = self.class_count_
        if self.single_class_ is not None:
            p = np.zeros((len(X), k))
            p[:, self.single_class_] = 1.0
            return p
        probs = np.column_stack([
            platt_prob(mach["A"], mach["B"], self.decision_function(X, i))
            for i, mach in enumerate(self.machines_)])
        if k == 2:  # one machine, class 1 against class 0
            return np.column_stack([1.0 - probs[:, 0], probs[:, 0]])
        # every Platt probability is at least 1/(1+e^500) > 0, so no row sums to 0
        return probs / probs.sum(axis=1, keepdims=True)

    def _state_to_dict(self):
        return {
            "single_class": self.single_class_,
            "machines": [{
                "sv_X": m["sv_X"].tolist(), "coef": m["coef"].tolist(),
                "b": m["b"], "A": m["A"], "B": m["B"],
            } for m in self.machines_],
        }

    def _state_from_dict(self, doc):
        self.single_class_, k, machines = doc["single_class"], self.class_count_, doc["machines"]
        if self.single_class_ is not None and (type(self.single_class_) is not int
                                               or not 0 <= self.single_class_ < k):
            raise ValueError(f"field 'single_class' is {self.single_class_!r}, "
                             f"not a class in 0..{k - 1}")
        count = 0 if self.single_class_ is not None else 1 if k == 2 else k   # as _fit makes
        if len(machines) != count:
            raise ValueError(f"field 'machines' holds {len(machines)} machines, not {count}")
        self.machines_ = []
        for m in machines:
            coef = shaped(m["coef"], (len(m["coef"]),), "coef")
            # (0, d) when a machine keeps no support vector, e.g. its class had no rows
            sv_X = shaped(m["sv_X"], (len(coef), self.n_features_), "sv_X")
            self.machines_.append({"sv_X": sv_X, "coef": coef, **{
                name: float(shaped(m[name], (), name)) for name in ("b", "A", "B")}})
