"""Weighted score-level fusion of classical classifiers for heart-disease data.

The library ingests the 303-row processed Cleveland table (bundled),
trains six from-scratch probabilistic classifiers, fuses pairs of their
decision-score matrices through a 19-point weight grid search and emits
evaluation reports for the binary and five-class tasks.

Fits and scores run on one BLAS thread: see ``blas``, imported before numpy.
"""

from . import blas  # noqa: F401  (before numpy)
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
