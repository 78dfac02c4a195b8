"""Weighted score-level fusion of two classifiers' probability matrices.

The fused decision score is the convex combination w1*D1 + w2*D2 of the two
members' row-normalized score matrices. Weights come from a fixed 19-point
grid (0.95/0.05 down to 0.05/0.95) searched against a reference labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class FusionError(Exception):
    pass


@dataclass(frozen=True)
class FusionWeights:
    w1: float
    w2: float

    def __post_init__(self):
        if self.w1 + self.w2 != 1.0:
            raise FusionError(f"weights must sum to 1 exactly, got {self.w1} + {self.w2}")


def weight_grid() -> list[FusionWeights]:
    """The 19 weight pairs: w1 from 0.95 down to 0.05 in steps of 0.05.

    w2 is computed as 1 - w1. Six of those are long floats (1 - 0.95 is
    0.050000000000000044), but every pair sums to exactly 1.0. Rounding w2
    too changes report bytes and the benchmark's weight check, so it waits
    for ROADMAP item 9's rider.
    """
    grid = []
    for i in range(19):
        w1 = round(0.95 - 0.05 * i, 2)
        grid.append(FusionWeights(w1, 1.0 - w1))
    return grid


@dataclass
class FusedScores:
    scores: np.ndarray
    weights: FusionWeights


def _checked_pair(d1, d2) -> tuple[np.ndarray, np.ndarray]:
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    if d1.shape != d2.shape:
        raise FusionError(f"score shapes differ: {d1.shape} vs {d2.shape}")
    return d1, d2


def _check_finite(*scores: np.ndarray):
    if not all(np.isfinite(s).all() for s in scores):
        raise FusionError("scores must be finite")


def fuse(d1: np.ndarray, d2: np.ndarray, w: FusionWeights) -> FusedScores:
    """Elementwise weighted sum of two score matrices of identical shape."""
    d1, d2 = _checked_pair(d1, d2)
    return FusedScores(w.w1 * d1 + w.w2 * d2, w)


def _first_max(s: np.ndarray) -> np.ndarray:
    """Index of each row's first maximum. Two columns give a boolean array,
    column 1 where it is strictly greater; more go by np.argmax(s, axis=1)."""
    if s.shape[1] == 2:
        return s[:, 1] > s[:, 0]
    return np.argmax(s, axis=1)


def decide(scores: np.ndarray) -> np.ndarray:
    """Predicted class per row: index of the maximum entry, ties to the lowest index."""
    scores = np.asarray(scores, dtype=np.float64)
    _check_finite(scores)
    return _first_max(scores).astype(np.int64, copy=False)


@dataclass
class GridSearchResult:
    weights: FusionWeights
    fused: FusedScores
    best_criterion: float
    sweep: list[tuple[FusionWeights, float]] = field(default_factory=list)


def _sweep(d1: np.ndarray, d2: np.ndarray, truth: np.ndarray) -> list[tuple[FusionWeights, float]]:
    """Accuracy at every grid weight. Each point fuses into one reused buffer
    with the same two products and one add per element as `fuse`. ``truth``,
    labels in 0..k-1, is cast once to the dtype of `_first_max`'s decisions
    (bool for two classes), so no point casts its decisions to compare them."""
    fused, part = np.empty_like(d1), np.empty_like(d1)
    truth = truth.astype(_first_max(d1[:0]).dtype)
    sweep = []
    for w in weight_grid():
        np.multiply(d1, w.w1, out=fused)
        np.multiply(d2, w.w2, out=part)
        fused += part
        sweep.append((w, np.count_nonzero(_first_max(fused) == truth) / len(truth)))
    return sweep


def grid_search(d1: np.ndarray, d2: np.ndarray, truth) -> GridSearchResult:
    """Evaluate every grid weight and return the accuracy-maximizing fusion.

    Ties are broken by the earliest grid entry (largest w1). The full sweep
    of per-weight accuracies is kept for reporting. A label outside 0..k-1,
    for k score columns, is refused, as `metrics.confusion` refuses it.
    """
    d1, d2 = _checked_pair(d1, d2)
    _check_finite(d1, d2)
    truth = np.asarray(truth, dtype=np.int64)
    if truth.shape[0] != d1.shape[0]:
        raise FusionError("truth length does not match score rows")
    if truth.shape[0] == 0:
        raise FusionError("no rows to select weights on")
    if truth.min() < 0 or truth.max() >= d1.shape[1]:
        raise FusionError(f"truth labels outside [0, {d1.shape[1]})")

    sweep = _sweep(d1, d2, truth)
    weights, best = max(sweep, key=lambda point: point[1])   # the first maximum
    return GridSearchResult(weights, fuse(d1, d2, weights), best, sweep)
