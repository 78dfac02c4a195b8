"""Per-algorithm hyperparameter defaults, keyed on (task, test fraction).

These are the tuned settings the experiments use; any field can be
overridden through RunConfig. Fractions other than 0.30/0.20 fall back to
the 0.20 column. DT and ADA have no multiclass settings and are excluded
from multiclass fusion menus.
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

_DEFAULTS = {
    ("binary", 0.30): {
        "LR": {"C": 1.0},
        "SVM": {"C": 1.0, "gamma": 0.1, "kernel": "rbf"},
        "DT": {"criterion": "gini", "max_depth": 8, "max_features": 8,
               "min_samples_leaf": 7, "splitter": "random"},
        "RF": {"n_estimators": 100},
        "ANN": {"learning_rate": 0.01, "batch_size": 10, "epochs": 15,
                "hidden_units": 8, "l2": 0.01},
        "ADA": {"n_estimators": 250, "learning_rate": 0.01},
    },
    ("binary", 0.20): {
        "LR": {"C": 1.0},
        "SVM": {"C": 1.0, "gamma": 0.01, "kernel": "rbf"},
        "DT": {"criterion": "gini", "max_depth": 8, "max_features": 8,
               "min_samples_leaf": 7, "splitter": "random"},
        "RF": {"n_estimators": 100},
        "ANN": {"learning_rate": 0.01, "batch_size": 10, "epochs": 15,
                "hidden_units": 8, "l2": 0.01},
        "ADA": {"n_estimators": 200, "learning_rate": 0.01},
    },
    ("multiclass", 0.30): {
        "LR": {"C": 0.1},
        "SVM": {"C": 0.01, "kernel": "linear"},
        "RF": {"n_estimators": 100},
        "ANN": {"learning_rate": 0.01, "batch_size": 5, "epochs": 20,
                "hidden_units": 8, "l2": 0.01},
    },
    ("multiclass", 0.20): {
        "LR": {"C": 0.001},
        "SVM": {"C": 100.0, "kernel": "linear"},
        "RF": {"n_estimators": 200},
        "ANN": {"learning_rate": 0.01, "batch_size": 5, "epochs": 20,
                "hidden_units": 8, "l2": 0.01},
    },
}

MULTICLASS_KINDS = tuple(_DEFAULTS[("multiclass", 0.20)])


def defaults_for(task: str, test_fraction: float) -> dict[str, dict]:
    frac = round(test_fraction, 2)
    if (task, frac) not in _DEFAULTS:
        frac = 0.20
    return copy.deepcopy(_DEFAULTS[(task, frac)])
