"""The BLAS thread policy: fits and scores run on one OpenBLAS thread.

Imported before numpy, this module starts OpenBLAS on one thread, unless
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is
set. It uses the standard library only: OpenBLAS is looked up through ctypes
at the first ``one_blas_thread`` entry or ``corename()`` call.
"""

import functools
import os
import sys
import threading

# OpenBLAS reads its thread count once, when numpy loads it, from the first
# of these variables that is set; a user's setting is left as it is
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# name families of the OpenBLAS builds numpy ships or links: numpy 2 wheels
# (64-bit integers), scipy-openblas with 32-bit integers, numpy 1.22-1.26
# wheels (64-bit integers), plain OpenBLAS
_FAMILIES = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")


@functools.cache
def _openblas():
    """(get_num_threads, set_num_threads, get_corename) of the OpenBLAS mapped
    into this process, or None where there is none (not Linux, MKL,
    Accelerate)."""
    import ctypes
    try:   # a mapped file's path is the sixth field of its lines
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = dict.fromkeys(line.split(maxsplit=5)[-1].rstrip("\n")
                                  for line in maps if "openblas" in line)
    except OSError:
        return None
    for path in paths:
        try:
            calls = _calls(ctypes.CDLL(path))
        except OSError:
            continue
        if calls is not None:
            return calls
    return None


def _calls(lib):
    """The three calls of the first name family whose thread calls the loaded
    library ``lib`` exports, or None; get_corename is None where that family
    lacks it."""
    import ctypes
    for family in _FAMILIES:
        get, put, core = (getattr(lib, family.format(name), None)
                          for name in ("get_num_threads", "set_num_threads", "get_corename"))
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            if core is not None:
                core.argtypes, core.restype = [], ctypes.c_char_p
            return get, put, core
    return None


def corename():
    """The name of the kernel the OpenBLAS in this process runs, such as
    ``"SkylakeX"``, or None where there is no OpenBLAS or it cannot say. A
    ``DYNAMIC_ARCH`` build picks the kernel from the CPU when it loads, and
    ``OPENBLAS_CORETYPE`` overrides the pick; the last bits of a product
    can differ from kernel to kernel."""
    calls = _openblas()
    return None if calls is None or calls[2] is None else calls[2]().decode()


class _OneBlasThread:
    """Context manager that runs its body on one OpenBLAS thread.

    The outermost entry saves the process's BLAS thread count and sets it to
    1; the outermost exit restores it, also when the body raises. Entries
    nest and may overlap across Python threads: a depth counter under a
    lock decides which entry is the outermost. One thread fixes the order of
    every product's partial sums, so fits and scores give the same bytes
    whatever the caller's thread count, and no idle OpenBLAS worker
    busy-waits beside the numpy-only fits that follow a threaded call.
    Where this module started OpenBLAS on one thread, the scope finds 1 and
    keeps it; it matters where numpy loaded first with more threads (a
    notebook, a test run) or the caller raised the count. OpenBLAS is looked
    up at the first entry, not at import. Without it the scope does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    def __enter__(self):
        with self._lock:
            calls = _openblas()
            if self._depth == 0 and calls is not None:
                self._saved = calls[0]()
                calls[1](1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            calls = _openblas()
            if self._depth == 0 and calls is not None:
                calls[1](self._saved)


# the BLAS thread count belongs to the process, so there is one scope for it
one_blas_thread = _OneBlasThread()
