"""Work counts and solver optimality measured from outside the models.

Everything here reads a fitted model through its public surface (the
serialised document, ``decision_function`` and hyperparameters) plus the
rows it was trained on; nothing reaches into a solver's private state.
"""

from __future__ import annotations

import numpy as np


def tree_nodes(node: dict) -> int:
    """Nodes of one serialised tree (splits and leaves)."""
    if "dist" in node:
        return 1
    return 1 + tree_nodes(node["left"]) + tree_nodes(node["right"])


def model_counts(doc: dict) -> dict[str, int]:
    """Work counts of one model document, keyed on the per-layer metric name."""
    kind, params = doc["kind"], doc["params"]
    if kind == "RF":
        return {"models.forest.nodes": sum(tree_nodes(t) for t in params["trees"])}
    if kind == "DT":
        return {"models.tree.nodes": tree_nodes(params["root"])}
    if kind == "ADA":
        return {"models.adaboost.stumps": len(params["stumps"])}
    if kind == "SVM":
        return {"models.svm.support_vectors":
                sum(len(m["coef"]) for m in params["machines"])}
    return {}


def _row_alphas(X, ypm, sv_X, coef) -> np.ndarray:
    """Dual variable of every training row.

    Support vectors are stored in training order, so they are matched to
    rows as a subsequence on (row, label). Rows that are exact duplicates
    share one decision value, so which duplicate takes which alpha does not
    change any count below.
    """
    alpha = np.zeros(len(X))
    p = 0
    for i in range(len(X)):
        if p < len(coef) and ypm[i] == np.sign(coef[p]) and np.array_equal(X[i], sv_X[p]):
            alpha[i] = abs(coef[p])
            p += 1
    if p != len(coef):
        raise ValueError("support vectors are not a subsequence of the training rows")
    return alpha


def svm_optimality(model, X, y) -> list[dict]:
    """KKT violators and relative duality gap of each machine of a fitted SVM.

    A row violates when y*f(x) < 1 - tol with alpha < C, or y*f(x) > 1 + tol
    with alpha > 0, at the tolerance the model states for its solver. The
    gap is (P - D) / P with P = |w|^2/2 + C*sum(hinge) and
    D = sum(alpha) - |w|^2/2.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if model.single_class_ is not None:
        return []
    positives = [1] if model.class_count_ == 2 else range(model.class_count_)
    out = []
    for i, cls in enumerate(positives):
        machine = model.machines_[i]
        ypm = np.where(y == cls, 1.0, -1.0)
        alpha = _row_alphas(X, ypm, machine["sv_X"], machine["coef"])
        margin = ypm * model.decision_function(X, i) - 1.0
        violators = ((margin < -model.tol) & (alpha < model.C)) | \
                    ((margin > model.tol) & (alpha > 0))
        w2 = float(machine["coef"] @ (model.decision_function(machine["sv_X"], i)
                                      - machine["b"]))
        primal = 0.5 * w2 + model.C * float(np.maximum(-margin, 0.0).sum())
        dual = float(alpha.sum()) - 0.5 * w2
        out.append({"kkt_violators": int(violators.sum()),
                    "dual_gap": (primal - dual) / primal})
    return out
