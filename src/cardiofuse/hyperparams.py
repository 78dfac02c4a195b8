"""Per-algorithm hyperparameter defaults, keyed on (task, test fraction).

These are the tuned settings the experiments use; any field can be
overridden through RunConfig. Fractions other than 0.30/0.20 fall back to
the 0.20 column. Each 0.30 column is its task's 0.20 column with five
settings changed: binary SVM ``gamma`` 0.1 and ADA ``n_estimators`` 250;
multiclass LR ``C`` 0.1, SVM ``C`` 0.01 and RF ``n_estimators`` 100. These
five are all that the split changes, and whether it should is ROADMAP item
5's question. DT and ADA have no multiclass settings and are excluded from
multiclass fusion menus, for two different reasons:

- ADA is binary-only by construction: each boosted stump sends a row to one
  of two classes, and a fit on three or more classes is refused.
- DT is excluded by measurement. With the binary table's DT settings, the
  five-class DT scored 45.5-48.2 % accuracy against 51.5-59.5 % for the
  other members over master seeds 100-119, and every pair with DT ranked
  below ANN+LR in every selection mode and split.
"""

from __future__ import annotations

import copy

SCALER_FOR = {
    "LR": "zscore",
    "SVM": "zscore",
    "ADA": "zscore",
    "ANN": "minmax",
    "DT": "none",
    "RF": "none",
}

_BINARY = {
    "LR": {"C": 1.0},
    "SVM": {"C": 1.0, "gamma": 0.01, "kernel": "rbf"},
    "DT": {"criterion": "gini", "max_depth": 8, "max_features": 8,
           "min_samples_leaf": 7, "splitter": "random"},
    "RF": {"n_estimators": 100},
    "ANN": {"learning_rate": 0.01, "batch_size": 10, "epochs": 15,
            "hidden_units": 8, "l2": 0.01},
    "ADA": {"n_estimators": 200, "learning_rate": 0.01},
}
_MULTICLASS = {
    "LR": {"C": 0.001},
    "SVM": {"C": 100.0, "kernel": "linear"},
    "RF": {"n_estimators": 200},
    "ANN": {"learning_rate": 0.01, "batch_size": 5, "epochs": 20,
            "hidden_units": 8, "l2": 0.01},
}


def _changed(column, **changes):
    """``column`` with the settings in ``changes`` (kind -> settings) replaced."""
    return {kind: {**hp, **changes.get(kind, {})} for kind, hp in column.items()}


_DEFAULTS = {
    ("binary", 0.20): _BINARY,
    ("binary", 0.30): _changed(_BINARY, SVM={"gamma": 0.1}, ADA={"n_estimators": 250}),
    ("multiclass", 0.20): _MULTICLASS,
    ("multiclass", 0.30): _changed(_MULTICLASS, LR={"C": 0.1}, SVM={"C": 0.01},
                                   RF={"n_estimators": 100}),
}

MULTICLASS_KINDS = tuple(_DEFAULTS[("multiclass", 0.20)])


def defaults_for(task: str, test_fraction: float) -> dict[str, dict]:
    frac = round(test_fraction, 2)
    if (task, frac) not in _DEFAULTS:
        frac = 0.20
    return copy.deepcopy(_DEFAULTS[(task, frac)])
