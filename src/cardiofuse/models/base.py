"""Common contract for the probabilistic classifiers.

Every learner fits on a feature matrix with labels 0..k-1 and scores rows
into an (n, k) matrix of probabilities whose rows sum to 1. A label outside
0..k-1, a non-finite feature value or a non-finite score is a ``ModelError``.
Fits and scores run on one BLAS thread (``one_blas_thread``).
"""

from __future__ import annotations

import functools
import inspect
import threading

import numpy as np


class ModelError(Exception):
    pass


class NotFittedError(ModelError):
    pass


class ShapeError(ModelError):
    pass


class DivergenceError(ModelError):
    pass


SERIAL_VERSION = 1

# thread-count entry points of the OpenBLAS builds numpy ships or links:
# numpy 2 wheels (64-bit integers), scipy-openblas with 32-bit integers,
# numpy 1.22-1.26 wheels (64-bit integers), plain OpenBLAS
_OPENBLAS_THREAD_CALLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                          "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@functools.cache
def _find_openblas():
    """(get, set) thread-count functions of the OpenBLAS mapped into this
    process, or None where there is none (not Linux, MKL, Accelerate)."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return None
    paths = dict.fromkeys(f[5].rstrip("\n") for f in fields
                          if len(f) == 6 and "openblas" in f[5])
    for path in paths:
        try:
            calls = _thread_calls(ctypes.CDLL(path))
        except OSError:
            continue
        if calls is not None:
            return calls
    return None


def _thread_calls(lib):
    """(get, set) thread-count functions that the loaded library ``lib``
    exports under one of the OpenBLAS names, or None."""
    import ctypes
    for name in _OPENBLAS_THREAD_CALLS:
        try:
            get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class _OneBlasThread:
    """Context manager that runs its body on one OpenBLAS thread.

    The outermost entry saves the process's BLAS thread count and sets it to
    1; the outermost exit restores it, also when the body raises. Entries
    nest and may overlap across Python threads: a depth counter under a
    lock decides which entry is the outermost. One thread fixes the order of
    every product's partial sums, so fits and scores give the same bytes
    whatever the caller's thread count, and no idle OpenBLAS worker
    busy-waits beside the numpy-only fits that follow a threaded call.
    OpenBLAS is looked up at the first entry, not at import. Without it the
    scope does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    def __enter__(self):
        with self._lock:
            blas = _find_openblas()
            if self._depth == 0 and blas is not None:
                get, put = blas
                self._saved = get()
                put(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            blas = _find_openblas()
            if self._depth == 0 and blas is not None:
                blas[1](self._saved)


# the BLAS thread count belongs to the process, so there is one scope for it
one_blas_thread = _OneBlasThread()


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
