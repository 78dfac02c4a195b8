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

    w2 is computed as 1 - w1, which is exact in binary floating point for
    these values, so every pair sums to 1 exactly.
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


def fuse(d1: np.ndarray, d2: np.ndarray, w: FusionWeights) -> FusedScores:
    """Elementwise weighted sum of two score matrices of identical shape."""
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    if d1.shape != d2.shape:
        raise FusionError(f"score shapes differ: {d1.shape} vs {d2.shape}")
    return FusedScores(w.w1 * d1 + w.w2 * d2, w)


def decide(scores: np.ndarray) -> np.ndarray:
    """Predicted class per row: index of the maximum entry, ties to the lowest index."""
    return np.argmax(np.asarray(scores), axis=1).astype(np.int64)


@dataclass
class GridSearchResult:
    weights: FusionWeights
    fused: FusedScores
    best_criterion: float
    sweep: list[tuple[FusionWeights, float]] = field(default_factory=list)


def grid_search(d1: np.ndarray, d2: np.ndarray, truth) -> GridSearchResult:
    """Evaluate every grid weight and return the accuracy-maximizing fusion.

    Ties are broken by the earliest grid entry (largest w1). The full sweep
    of per-weight accuracies is kept for reporting.
    """
    truth = np.asarray(truth, dtype=np.int64)
    if truth.shape[0] != np.asarray(d1).shape[0]:
        raise FusionError("truth length does not match score rows")

    best = None
    sweep = []
    for w in weight_grid():
        fused = fuse(d1, d2, w)
        acc = float(np.mean(decide(fused.scores) == truth))
        sweep.append((w, acc))
        if best is None or acc > best[1]:
            best = (fused, acc)
    return GridSearchResult(best[0].weights, best[0], best[1], sweep)
