"""Single-hidden-layer network: inputs -> 8 sigmoid units -> softmax outputs.

Trained with mini-batch SGD on cross-entropy plus an L2 penalty on the
weight matrices. Initialization and the per-epoch shuffle order are driven
by one seeded generator, so training is fully deterministic. Each epoch
gathers its shuffled rows once, and a fit whose weights stop being finite
raises ``DivergenceError`` at the end of that epoch.
"""

from __future__ import annotations

import numpy as np

from .base import DivergenceError, ProbabilisticClassifier, one_hot, sigmoid, softmax


class MLPClassifier(ProbabilisticClassifier):
    kind = "ANN"
    _PARAMS = ("hidden_units", "learning_rate", "batch_size", "epochs", "l2", "seed")

    def __init__(self, hidden_units: int = 8, learning_rate: float = 0.01,
                 batch_size: int = 10, epochs: int = 15, l2: float = 0.01,
                 seed: int = 0):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name, value, least in (("hidden_units", hidden_units, 1),
                                   ("batch_size", batch_size, 1), ("epochs", epochs, 0),
                                   ("l2", l2, 0)):
            if value < least:
                raise ValueError(f"{name} must be at least {least}, not {value}")
        self.hidden_units = hidden_units
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed

    def init_params(self, n_features: int, rng=None):
        rng = rng or np.random.default_rng(self.seed)
        h, k = self.hidden_units, self.class_count_
        self.W1 = rng.uniform(-0.5, 0.5, size=(n_features, h)) / np.sqrt(n_features)
        self.b1 = np.zeros(h)
        self.W2 = rng.uniform(-0.5, 0.5, size=(h, k)) / np.sqrt(h)
        self.b2 = np.zeros(k)

    def _forward(self, X):
        hidden = sigmoid(X @ self.W1 + self.b1)
        probs = softmax(hidden @ self.W2 + self.b2)
        return hidden, probs

    def loss_and_grads(self, X, Y):
        """Batch loss and exact gradients.

        The loss is the summed cross-entropy over the batch plus
        (l2/2)*sum of squared weights. Summing (rather than averaging)
        keeps the per-update step proportional to the batch, which the
        tuned epoch budgets rely on.
        """
        hidden, probs = self._forward(X)
        ce = -np.log(np.maximum((probs * Y).sum(axis=1), 1e-300)).sum()
        loss = ce + 0.5 * self.l2 * ((self.W1 ** 2).sum() + (self.W2 ** 2).sum())
        return loss, self._grads(X, Y, hidden, probs)

    def _grads(self, X, Y, hidden, probs):
        """Backward pass: (gW1, gb1, gW2, gb2) of the batch loss, given the forward pass."""
        delta2 = probs - Y
        gW2 = hidden.T @ delta2 + self.l2 * self.W2
        delta1 = (delta2 @ self.W2.T) * hidden * (1.0 - hidden)
        gW1 = X.T @ delta1 + self.l2 * self.W1
        return gW1, delta1.sum(axis=0), gW2, delta2.sum(axis=0)

    def _fit(self, X, y):
        rng = np.random.default_rng(self.seed)
        self.init_params(X.shape[1], rng)
        weights = (self.W1, self.b1, self.W2, self.b2)
        Y = one_hot(y, self.class_count_)
        for _ in range(self.epochs):
            order = rng.permutation(len(X))
            Xs, Ys = X[order], Y[order]
            # a diverging step overflows on its way to non-finite weights, which the
            # check below reports, so numpy does not warn about it
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, len(X), self.batch_size):
                    Xb, Yb = Xs[start:start + self.batch_size], Ys[start:start + self.batch_size]
                    for w, g in zip(weights, self._grads(Xb, Yb, *self._forward(Xb))):
                        w -= self.learning_rate * g
            if not all(np.isfinite(w).all() for w in weights):
                raise DivergenceError(f"non-finite weights at learning rate {self.learning_rate}")

    def _scores(self, X):
        return self._forward(X)[1]

    def _state_to_dict(self):
        return {name: getattr(self, name).tolist() for name in ("W1", "b1", "W2", "b2")}

    def _state_from_dict(self, doc):
        for name in ("W1", "b1", "W2", "b2"):
            setattr(self, name, np.asarray(doc[name], dtype=np.float64))
