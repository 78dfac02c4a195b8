"""Random forest: bagged best-split trees with per-split feature subsampling.

Each tree trains on a bootstrap sample of the training set's size, drawn
from its own generator, and considers max_features features per split,
round(sqrt(d)) unless set.
All trees grow in lockstep on the weighted distinct rows of their bootstraps,
from one flat row buffer split in place (``tree.grow_forest``). Scores are
the mean of the trees' leaf frequency vectors (soft voting), with the exit
leaves of all trees found at once (``tree.score_forest``); argmax of the mean
is the majority vote under hard leaves.
"""

from __future__ import annotations

import numpy as np

from .base import ProbabilisticClassifier
from .tree import Tree, check_tree_params, grow_forest, score_forest


class RandomForestClassifier(ProbabilisticClassifier):
    kind = "RF"

    def __init__(self, n_estimators: int = 100, seed: int = 0, bootstrap: bool = True,
                 criterion: str = "gini", max_depth: int | None = None,
                 max_features: int | None = None, min_samples_leaf: int = 1):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        check_tree_params(criterion, max_depth, max_features, min_samples_leaf)
        self.n_estimators = n_estimators
        self.seed = seed
        self.bootstrap = bootstrap
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf

    def _fit(self, X, y):
        n = len(X)
        seeds = np.random.SeedSequence(self.seed).generate_state(self.n_estimators)
        rngs = [np.random.default_rng(int(s)) for s in seeds]
        # bootstrap rows as indices into X, made lazily so no list keeps them alive
        roots = (rng.integers(0, n, size=n) if self.bootstrap else np.arange(n) for rng in rngs)
        self.trees_ = grow_forest(X, y, self.class_count_, roots, rngs, self.criterion,
                                  self.max_depth, self.max_features, self.min_samples_leaf)

    def _scores(self, X):
        return score_forest(self.trees_, X)

    def _state_to_dict(self):
        return {"trees": [t.to_dict() for t in self.trees_]}

    def _state_from_dict(self, doc):
        self.trees_ = [Tree.from_dict(t) for t in doc["trees"]]
