"""The six probabilistic classifiers behind one scoring contract."""

from .base import (DivergenceError, ModelError, NotFittedError,
                   ProbabilisticClassifier, ShapeError)
from .logistic import LogisticRegressionClassifier
from .svm import SVMClassifier
from .tree import DecisionTreeClassifier
from .forest import RandomForestClassifier
from .mlp import MLPClassifier
from .adaboost import AdaBoostClassifier

_REGISTRY = {cls.kind: cls for cls in (
    LogisticRegressionClassifier, SVMClassifier, DecisionTreeClassifier,
    RandomForestClassifier, MLPClassifier, AdaBoostClassifier)}

MODEL_KINDS = tuple(_REGISTRY)   # LR, SVM, DT, RF, ANN, ADA: the benchmark pairs them in this order


def model_class(kind: str) -> type[ProbabilisticClassifier]:
    try:
        return _REGISTRY[kind.upper()]
    except KeyError:
        raise ModelError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}") from None


def make_model(kind: str, **kwargs) -> ProbabilisticClassifier:
    return model_class(kind)(**kwargs)


__all__ = [
    "AdaBoostClassifier", "DecisionTreeClassifier", "DivergenceError",
    "LogisticRegressionClassifier", "MLPClassifier", "MODEL_KINDS", "ModelError",
    "NotFittedError", "ProbabilisticClassifier", "RandomForestClassifier",
    "SVMClassifier", "ShapeError", "make_model", "model_class",
]
