"""Imputation, encoding, scaling, task derivation, splitting and oversampling.

All operations are pure: they return new tables/arrays and never mutate
their inputs, so concurrent use on disjoint data is safe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import DataTable


class PreprocessError(Exception):
    pass


class ImputationError(PreprocessError):
    pass


class ResampleError(PreprocessError):
    pass


def impute_most_frequent(table: DataTable) -> DataTable:
    """Replace every missing cell with its column's modal non-missing value.

    Ties between equally frequent values are broken toward the smallest
    value so the result is deterministic.
    """
    rows = table.rows.copy()
    for j in range(table.n_cols):
        miss = np.isnan(rows[:, j])
        if not miss.any():
            continue
        ok = ~miss
        if not ok.any():
            raise ImputationError(f"column {table.schema[j].name} is entirely missing")
        vals, counts = np.unique(rows[ok, j], return_counts=True)
        mode = vals[counts == counts.max()].min()
        rows[miss, j] = mode
    return table.replace(rows=rows)


def encode_labels(table: DataTable) -> tuple[DataTable, dict[str, dict[float, int]]]:
    """Map each categorical column's codes to 0..k-1 in ascending order.

    Returns the encoded table and the per-column code map for round-trips.
    Must run after imputation (missing cells would corrupt the mapping).
    """
    if np.isnan(table.rows).any():
        raise PreprocessError("encode_labels requires an imputed table")
    rows = table.rows.copy()
    code_maps: dict[str, dict[float, int]] = {}
    for j, attr in enumerate(table.schema):
        if attr.kind != "categorical":
            continue
        present = np.unique(rows[:, j])
        mapping = {float(v): i for i, v in enumerate(sorted(present))}
        code_maps[attr.name] = mapping
        rows[:, j] = [mapping[float(v)] for v in rows[:, j]]
    return table.replace(rows=rows), code_maps


@dataclass
class ScalerParams:
    """Fitted feature-scaling statistics (training rows only)."""

    kind: str                      # "zscore" | "minmax" | "none"
    center: np.ndarray = None      # mean (zscore) or min (minmax)
    scale: np.ndarray = None       # std (zscore) or max-min (minmax)


def fit_scaler(train_rows: np.ndarray, kind: str) -> ScalerParams:
    """Fit z-score or min-max statistics on training rows only."""
    x = np.asarray(train_rows, dtype=np.float64)
    if kind == "none":
        return ScalerParams("none")
    if kind == "zscore":
        center = x.mean(axis=0)
        scale = x.std(axis=0)  # population std
    elif kind == "minmax":
        center = x.min(axis=0)
        scale = x.max(axis=0) - center
    else:
        raise ValueError(f"unknown scaler kind {kind!r}")
    return ScalerParams(kind, center, scale)


def apply_scaler(params: ScalerParams, rows: np.ndarray) -> np.ndarray:
    """Transform rows with fitted statistics; degenerate columns map to 0."""
    x = np.asarray(rows, dtype=np.float64)
    if params.kind == "none":
        return x.copy()
    degenerate = params.scale == 0
    out = (x - params.center) / np.where(degenerate, 1.0, params.scale)
    out[:, degenerate] = 0.0
    return out


@dataclass(frozen=True)
class TaskKind:
    kind: str  # "binary" | "multiclass"

    def __post_init__(self):
        if self.kind not in ("binary", "multiclass"):
            raise ValueError(f"unknown task {self.kind!r}")

    @property
    def class_count(self) -> int:
        return 2 if self.kind == "binary" else 5


def derive_task(table: DataTable, task: TaskKind) -> DataTable:
    """Binary task collapses severities 1-4 to 1; multiclass passes through."""
    if task.kind == "binary":
        labels = (table.labels > 0).astype(np.int64)
        return table.replace(labels=labels)
    return table.replace()


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float
    seed: int
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")


def split(table: DataTable, spec: SplitSpec) -> tuple[DataTable, DataTable]:
    """Deterministic train/test partition; stratified by default.

    The test size is round(n * test_fraction). Stratified mode allocates
    per-class test counts by largest remainder, so class proportions are
    preserved to within one sample. Falls back to an unstratified split
    (with a warning) when some class is too small to stratify.
    """
    n = table.n_rows
    if n < 2:
        raise PreprocessError(f"cannot split a table of {n} row(s) into train and test")
    n_test = int(round(n * spec.test_fraction))
    n_test = min(max(n_test, 1), n - 1)
    rng = np.random.default_rng(spec.seed)

    if spec.stratified:
        classes, counts = np.unique(table.labels, return_counts=True)
        if (counts >= 2).all() and len(classes) <= n_test:
            quotas = counts * spec.test_fraction
            base = np.floor(quotas).astype(int)
            # keep at least one training row per class
            base = np.minimum(base, counts - 1)
            short = n_test - base.sum()
            if short > 0:
                order = np.argsort(-(quotas - base), kind="stable")
                for c in order:
                    if short == 0:
                        break
                    if base[c] < counts[c] - 1:
                        base[c] += 1
                        short -= 1
            if base.sum() == n_test:
                test_idx = []
                for c, k in zip(classes, base):
                    members = np.flatnonzero(table.labels == c)
                    picked = rng.permutation(members)[:k]
                    test_idx.append(picked)
                test_idx = np.sort(np.concatenate(test_idx))
                train_idx = np.setdiff1d(np.arange(n), test_idx)
                return table.take(train_idx), table.take(test_idx)
        warnings.warn("class too small to stratify; falling back to random split")

    perm = rng.permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return table.take(train_idx), table.take(test_idx)


def random_oversample(train: DataTable, seed: int) -> DataTable:
    """Duplicate random minority-class rows until all classes match the majority.

    Applies to the training partition only (enforced at the pipeline level).
    The original rows are kept as a prefix; copies are appended, so the
    output always contains the input as a subset.
    """
    classes, counts = np.unique(train.labels, return_counts=True)
    if (counts == 0).any() or len(classes) == 0:
        raise ResampleError("cannot oversample an empty class")
    target = counts.max()
    rng = np.random.default_rng(seed)
    extra = []
    for c, k in zip(classes, counts):
        if k == target:
            continue
        members = np.flatnonzero(train.labels == c)
        extra.append(rng.choice(members, size=target - k, replace=True))
    if not extra:
        return train.replace()
    idx = np.concatenate([np.arange(train.n_rows)] + extra)
    return train.take(idx)
