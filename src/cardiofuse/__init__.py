"""Weighted score-level fusion of classical classifiers for heart-disease data.

The library ingests the 303-row processed Cleveland table (bundled),
trains six from-scratch probabilistic classifiers, fuses pairs of their
decision-score matrices through a 19-point weight grid search and emits
evaluation reports for the binary and five-class tasks.

Fits and scores run on one BLAS thread. Imported before numpy, the package
also starts OpenBLAS on one thread, so the process makes no idle worker
pool, unless ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set.
"""

import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it, from the first
# of these variables that is set; a user's setting is left as it is
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .dataset import (AttributeSpec, DataTable, bundled_data_path,
                      cleveland_schema, load_csv, summarize)
from .fusion import FusionWeights, decide, fuse, grid_search, weight_grid
from .metrics import ConfusionMatrix, confusion, roc_auc, scalar_metrics
from .pipeline import RunConfig, emit_report, run_experiment, validate_against_paper

__version__ = "0.1.0"

__all__ = [
    "AttributeSpec", "ConfusionMatrix", "DataTable", "FusionWeights", "RunConfig",
    "bundled_data_path", "cleveland_schema", "confusion", "decide", "emit_report",
    "fuse", "grid_search", "load_csv", "roc_auc", "run_experiment", "scalar_metrics",
    "summarize", "validate_against_paper", "weight_grid", "__version__",
]
