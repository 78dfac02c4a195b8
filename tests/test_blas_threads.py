"""Fits and scores run on one OpenBLAS thread and hand the caller's count back."""

import ctypes
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import cardiofuse
from cardiofuse.models import LogisticRegressionClassifier, SVMClassifier
from cardiofuse.models import base
from cardiofuse.models.base import one_blas_thread


@pytest.fixture
def blas_threads():
    """The process's BLAS thread count, set to 2 for the test and restored after it."""
    found = base._find_openblas()
    if found is None:
        pytest.skip("no OpenBLAS is loaded in this process")
    get, put = found
    before = get()
    put(2)
    yield get
    put(before)


def _toy(rng, n=40):
    X = rng.normal(size=(n, 3))
    return X, (X[:, 0] > 0).astype(np.int64)


@pytest.mark.parametrize("name", ["scipy_openblas_{}_num_threads64_",
                                  "openblas_{}_num_threads64_", "openblas_{}_num_threads"])
def test_thread_calls_are_found_under_each_openblas_name(name):
    # numpy 1.22-1.26 wheels export only the 64_ pair without the scipy_ prefix
    def get():
        return 1

    def put(n):
        pass

    lib = types.SimpleNamespace(**{name.format("get"): get, name.format("set"): put})
    assert base._thread_calls(lib) == (get, put)
    assert (get.argtypes, get.restype, put.argtypes) == ([], ctypes.c_int, [ctypes.c_int])
    assert base._thread_calls(types.SimpleNamespace()) is None


def test_fit_runs_on_one_thread_and_restores_the_count(monkeypatch, blas_threads):
    seen = []
    fit = LogisticRegressionClassifier._fit

    def recording_fit(self, X, y):
        seen.append(blas_threads())
        return fit(self, X, y)

    monkeypatch.setattr(LogisticRegressionClassifier, "_fit", recording_fit)
    X, y = _toy(np.random.default_rng(0))
    model = LogisticRegressionClassifier().fit(X, y)
    assert seen == [1]
    assert blas_threads() == 2
    model.predict_proba(X)
    assert blas_threads() == 2


def test_scores_run_on_one_thread(monkeypatch, blas_threads):
    X, y = _toy(np.random.default_rng(1))
    model = SVMClassifier(kernel="rbf", gamma=0.5).fit(X, y)
    seen = []
    kernel = SVMClassifier._kernel

    def recording_kernel(self, A, B):
        seen.append(blas_threads())
        return kernel(self, A, B)

    monkeypatch.setattr(SVMClassifier, "_kernel", recording_kernel)
    model.predict_proba(X)
    model.decision_function(X)
    assert seen == [1, 1]
    assert blas_threads() == 2


def test_a_fit_that_raises_restores_the_count(monkeypatch, blas_threads):
    def failing_fit(self, X, y):
        assert blas_threads() == 1
        raise RuntimeError("fit failed")

    monkeypatch.setattr(LogisticRegressionClassifier, "_fit", failing_fit)
    X, y = _toy(np.random.default_rng(2))
    with pytest.raises(RuntimeError, match="fit failed"):
        LogisticRegressionClassifier().fit(X, y)
    assert blas_threads() == 2


def test_nested_scopes_restore_on_the_outermost_exit(blas_threads):
    with one_blas_thread:
        with one_blas_thread:
            assert blas_threads() == 1
        assert blas_threads() == 1
    assert blas_threads() == 2


def test_overlapping_fits_on_two_threads_restore_the_count(monkeypatch, blas_threads):
    # the first thread leaves its fit while the second is still inside its own
    first_in, first_out = threading.Event(), threading.Event()
    seen = {}

    def staged_fit(self, X, y):
        name = threading.current_thread().name
        if name == "first":
            first_in.set()
            assert first_out.wait(10)
        else:
            assert first_in.wait(10)
            first_out.set()
            first.join(10)
        seen[name] = blas_threads()

    monkeypatch.setattr(LogisticRegressionClassifier, "_fit", staged_fit)
    X, y = _toy(np.random.default_rng(3))
    fit = lambda: LogisticRegressionClassifier().fit(X, y)
    first = threading.Thread(target=fit, name="first")
    second = threading.Thread(target=fit, name="second")
    first.start()
    second.start()
    second.join(20)
    assert not first.is_alive() and not second.is_alive()
    assert seen == {"first": 1, "second": 1}
    assert blas_threads() == 2


def test_many_threads_entering_and_leaving_keep_the_count(blas_threads):
    errors = []

    def churn():
        for _ in range(200):
            with one_blas_thread:
                if blas_threads() != 1:
                    errors.append(blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert blas_threads() == 2


_REPORT_SCRIPT = """
import sys
from cardiofuse import pipeline
config = pipeline.RunConfig(task="multiclass", test_fraction=0.3, master_seed=2,
                            hyperparams={"RF": {"n_estimators": 5}, "ANN": {"epochs": 1}})
pipeline.emit_report(pipeline.run_experiment(config), sys.argv[1])
"""


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # multiclass 70:30 at master seed 2 is the desk report whose SVM scores
    # moved with the thread count before fits ran on one thread
    src = str(Path(cardiofuse.__file__).resolve().parent.parent)
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", _REPORT_SCRIPT, str(out)], env=env,
                       check=True, timeout=300)
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
