"""Fits and scores run on one OpenBLAS thread and hand the caller's count back;
a process that imports cardiofuse before numpy starts OpenBLAS on one thread."""

import ctypes
import json
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import cardiofuse
from cardiofuse import blas
from cardiofuse.blas import one_blas_thread
from cardiofuse.models import LogisticRegressionClassifier, SVMClassifier


# the OpenBLAS kernel the report, directory and document digests were recorded on
PINNED_KERNEL = "SkylakeX"


def kernel_note():
    """The line a digest test adds to its failure: a digest can move with the kernel."""
    return f"OpenBLAS kernel of this run: {blas.corename()}; pins recorded on {PINNED_KERNEL}"


@pytest.fixture
def blas_threads():
    """The process's BLAS thread count, set to 2 for the test and restored after it."""
    found = blas._openblas()
    if found is None:
        pytest.skip("no OpenBLAS is loaded in this process")
    get, put, _ = found
    before = get()
    put(2)
    yield get
    put(before)


def _toy(rng, n=40):
    X = rng.normal(size=(n, 3))
    return X, (X[:, 0] > 0).astype(np.int64)


# the four OpenBLAS name families, as blas._FAMILIES lists them
_FAMILIES = ["scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"]


def _library(family, corename=True):
    """A stand-in for a loaded OpenBLAS that exports one family's calls,
    with or without get_corename."""
    calls = {"get_num_threads": lambda: 1, "set_num_threads": lambda n: None}
    if corename:
        calls["get_corename"] = lambda: b"Haswell"
    return types.SimpleNamespace(**{family.format(name): f for name, f in calls.items()})


@pytest.mark.parametrize("family", _FAMILIES)
def test_thread_calls_are_found_under_each_openblas_name(family):
    # numpy 1.22-1.26 wheels export only the 64_ family without the scipy_ prefix
    lib = _library(family, corename=False)
    get, put = lib.__dict__.values()
    assert blas._calls(lib) == (get, put, None)
    assert (get.argtypes, get.restype, put.argtypes) == ([], ctypes.c_int, [ctypes.c_int])
    assert blas._calls(types.SimpleNamespace()) is None
    # a family's corename alone is no OpenBLAS to scope
    assert blas._calls(types.SimpleNamespace(**{family.format("get_corename"): get})) is None


def test_a_library_without_corename_still_gets_the_thread_scope(monkeypatch):
    counts = [4]
    lib = types.SimpleNamespace(openblas_get_num_threads=lambda: counts[-1],
                                openblas_set_num_threads=lambda n: counts.append(n))
    monkeypatch.setattr(blas, "_openblas", lambda: blas._calls(lib))
    assert blas.corename() is None
    with one_blas_thread:
        assert counts[-1] == 1
    assert counts == [4, 1, 4]


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


# the variables OpenBLAS reads its start-up thread count from, in its order
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_SRC = str(Path(cardiofuse.__file__).resolve().parent.parent)


def _child_env(**variables):
    """This process's environment without the thread variables, with
    cardiofuse's sources on the path and ``variables`` set."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return {**env, **variables}


_START_SCRIPT = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
import cardiofuse
from cardiofuse import blas
print(json.dumps({"tasks": len(os.listdir("/proc/self/task")),
                  "count": blas._openblas()[0](),
                  "env": [os.environ.get(v) for v in %r]}))
""" % (_THREAD_VARIABLES,)


def _start(first="cardiofuse", **variables):
    """Threads, OpenBLAS thread count and thread variables of a fresh
    interpreter that imports ``first`` first, then cardiofuse."""
    if not sys.platform.startswith("linux"):
        pytest.skip("threads are counted in /proc/self/task")
    if blas._openblas() is None:
        pytest.skip("no OpenBLAS is loaded in this process")
    out = subprocess.run([sys.executable, "-c", _START_SCRIPT, first], env=_child_env(**variables),
                         check=True, timeout=120, capture_output=True, text=True).stdout
    return json.loads(out)


def test_importing_cardiofuse_first_starts_openblas_on_one_thread():
    # no worker pool: the main thread is the process's only thread
    assert _start() == {"tasks": 1, "count": 1, "env": ["1", None, None]}


@pytest.mark.parametrize("variable", _THREAD_VARIABLES)
def test_a_thread_variable_of_the_user_is_kept(variable):
    seen = _start(**{variable: "2"})
    assert seen["env"] == [("2" if v == variable else None) for v in _THREAD_VARIABLES]
    # OpenBLAS starts no more threads than the process may run on
    assert seen["count"] == min(2, len(os.sched_getaffinity(0)))


def test_importing_numpy_first_leaves_the_environment_alone():
    seen = _start("numpy-first")
    assert seen["env"] == [None, None, None]
    assert seen["count"] == seen["tasks"]   # the main thread and count - 1 OpenBLAS workers


@pytest.mark.parametrize("family", _FAMILIES)
def test_corename_is_found_under_each_openblas_name(monkeypatch, family):
    lib = _library(family)
    monkeypatch.setattr(blas, "_openblas", lambda: blas._calls(lib))
    assert blas.corename() == "Haswell"
    corename = getattr(lib, family.format("get_corename"))
    assert (corename.argtypes, corename.restype) == ([], ctypes.c_char_p)
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    assert blas.corename() is None


# kernels of CPUs with AVX, each of which can run the Sandybridge kernel
_AVX_KERNELS = {"Sandybridge", "Haswell", "Zen", "SkylakeX", "Cooperlake", "SapphireRapids"}


def test_corename_names_the_kernel_openblas_runs():
    if blas._openblas() is None:
        pytest.skip("no OpenBLAS is loaded in this process")
    native = blas.corename()
    assert isinstance(native, str) and native
    if native not in _AVX_KERNELS:
        pytest.skip(f"OpenBLAS runs {native}, which may not run the Sandybridge kernel")
    script = "from cardiofuse import blas; print(blas.corename())"
    out = subprocess.run([sys.executable, "-c", script],
                         env=_child_env(OPENBLAS_CORETYPE="Sandybridge"),
                         check=True, timeout=120, capture_output=True, text=True).stdout
    assert out.split() == ["Sandybridge"]


_REPORT_SCRIPT = """
import sys
from cardiofuse import pipeline
config = pipeline.RunConfig(task="multiclass", test_fraction=0.3, master_seed=2,
                            hyperparams={"RF": {"n_estimators": 5}, "ANN": {"epochs": 1}})
pipeline.emit_report(pipeline.run_experiment(config), sys.argv[1])
"""


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # multiclass 70:30 at master seed 2 is the desk report whose SVM scores
    # moved with the thread count before fits ran on one thread; the child
    # with no thread variable starts OpenBLAS on one thread
    blobs = []
    for threads in ("1", "2", None):
        out = tmp_path / f"threads-{threads}"
        env = _child_env(**({} if threads is None else {"OPENBLAS_NUM_THREADS": threads}))
        subprocess.run([sys.executable, "-c", _REPORT_SCRIPT, str(out)], env=env,
                       check=True, timeout=300)
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
