"""Common contract for the probabilistic classifiers.

Every learner fits on a feature matrix with labels 0..k-1 and scores rows
into an (n, k) matrix of probabilities whose rows sum to 1. A label outside
0..k-1, a non-finite feature value or a non-finite score is a ``ModelError``.
"""

from __future__ import annotations

import inspect

import numpy as np

from ..blas import one_blas_thread


class ModelError(Exception):
    pass


class NotFittedError(ModelError):
    pass


class ShapeError(ModelError):
    pass


class DivergenceError(ModelError):
    pass


SERIAL_VERSION = 1


class ProbabilisticClassifier:
    """Base class: fit(X, y) then predict_proba(X) -> row-normalized scores."""

    kind = "?"
    # a subclass's settings are its constructor arguments in signature order;
    # documents carry them ahead of the fitted state for from_dict to pass back
    settings: tuple[str, ...] = ()
    # a subclass constructor takes and checks settings only; fit and from_dict
    # alone write fitted, n_features_, the fitted count and the fitted state
    fitted = False
    _class_count = _preset_count = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.settings = tuple(inspect.signature(cls).parameters)

    @property
    def class_count_(self):
        """The count of the last fit or load, else the one set before fit."""
        return self._preset_count if self._class_count is None else self._class_count

    @class_count_.setter
    def class_count_(self, k):
        self._preset_count = k

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ShapeError("X must be (n, d) with one label per row")
        if X.shape[0] == 0:
            raise ModelError("cannot fit on an empty table")
        self._require_finite(X, "fit on")
        # a count set before fit stays; one fit inferred is inferred again. A
        # degenerate single-class target still yields a binary scorer
        k = self._preset_count or max(int(y.max()) + 1, 2)
        outside = np.flatnonzero((y < 0) | (y >= k))
        if outside.size:
            raise ModelError(f"{self.kind} model cannot fit on row {outside[0]}: "
                             f"label {y[outside[0]]} is not in 0..{k - 1}")
        # every check passed: a fit that raises from here leaves the model unfitted
        self.fitted, self.n_features_, self._class_count = False, X.shape[1], k
        with one_blas_thread:
            self._fit(X, y)
        self.fitted = True
        return self

    def predict_proba(self, X) -> np.ndarray:
        if not self.fitted:
            raise NotFittedError(f"{self.kind} model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features_:
            raise ShapeError(
                f"row width {X.shape[1]} does not match training width {self.n_features_}")
        self._require_finite(X, "score")
        with one_blas_thread:
            p = np.asarray(self._scores(X), dtype=np.float64)
        if not np.isfinite(p).all():
            raise ModelError(f"{self.kind} model produced non-finite scores")
        return p

    def _require_finite(self, X, verb):
        """Raise a ModelError naming the first row and feature of X that is not finite."""
        finite = np.isfinite(X)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise ModelError(f"{self.kind} model cannot {verb} row {i}: feature {j} is {X[i, j]}")

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)

    # subclass hooks -----------------------------------------------------
    def _fit(self, X, y):
        raise NotImplementedError

    def _scores(self, X):
        raise NotImplementedError

    def _state_to_dict(self) -> dict:
        raise NotImplementedError

    def _state_from_dict(self, doc: dict):
        raise NotImplementedError

    # serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        if not self.fitted:
            raise NotFittedError("cannot serialize an unfitted model")
        return {
            "version": SERIAL_VERSION,
            "kind": self.kind,
            "n_features": self.n_features_,
            "class_count": self.class_count_,
            "params": {**{s: getattr(self, s) for s in self.settings}, **self._state_to_dict()},
        }

    @staticmethod
    def from_dict(doc: dict) -> "ProbabilisticClassifier":
        from . import model_class  # registry lives in the package init
        if doc.get("version") != SERIAL_VERSION:
            raise ModelError(f"unsupported model document version {doc.get('version')}")
        if "kind" not in doc:
            raise ModelError("model document: no field 'kind'")
        if not isinstance(doc["kind"], str):
            raise ModelError(f"model document: field 'kind' is {doc['kind']!r}, not a string")
        cls = model_class(doc["kind"])
        try:
            params = doc["params"]
            model = cls(**{s: params[s] for s in cls.settings})
            # a loaded count stays for a refit, as one set before fit does
            model.class_count_ = model._class_count = doc["class_count"]
            model.n_features_ = doc["n_features"]
            model._state_from_dict(params)
        except KeyError as e:
            raise ModelError(f"{cls.kind} model document: no field {e}") from None
        except (TypeError, ValueError) as e:
            raise ModelError(f"{cls.kind} model document: {e}") from None
        model.fitted = True
        return model


def shaped(values, shape: tuple, field: str) -> np.ndarray:
    """``values`` as a float64 array of ``shape``, an empty list as an empty
    one; a ValueError names ``field`` when its shape is another or an entry
    is not a number (float64 alone would read "0.5" and true as numbers)."""
    a = np.asarray(values, dtype=np.float64)
    if a.shape != shape and not (a.size == 0 and 0 in shape):
        raise ValueError(f"field '{field}' has shape {a.shape}, not {shape}")
    rows = values if a.ndim == 2 else [values if a.ndim else [values]]
    for t in {type(x) for row in rows for x in row}:
        if t is bool or not issubclass(t, (int, float)):
            raise ValueError(f"field '{field}' holds a {t.__name__}, not a number")
    return a.reshape(shape)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function; z is clipped to +-500 so exp cannot overflow."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(y: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((len(y), k))
    out[np.arange(len(y)), y] = 1.0
    return out
