"""Single-hidden-layer network: inputs -> 8 sigmoid units -> softmax outputs.

Trained with mini-batch SGD on cross-entropy plus an L2 penalty on the
weight matrices. Initialization and the per-epoch shuffle order are driven
by one seeded generator, so training is fully deterministic.
"""

from __future__ import annotations

import numpy as np

from .base import DivergenceError, ProbabilisticClassifier, one_hot, softmax


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


class MLPClassifier(ProbabilisticClassifier):
    kind = "ANN"
    _PARAMS = ("hidden_units", "learning_rate", "batch_size", "epochs", "l2", "seed")

    def __init__(self, hidden_units: int = 8, learning_rate: float = 0.01,
                 batch_size: int = 10, epochs: int = 15, l2: float = 0.01,
                 seed: int = 0):
        super().__init__()
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.hidden_units = hidden_units
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed
        self.W1 = self.b1 = self.W2 = self.b2 = None

    def init_params(self, n_features: int, rng=None):
        rng = rng or np.random.default_rng(self.seed)
        h, k = self.hidden_units, self.class_count_
        self.W1 = rng.uniform(-0.5, 0.5, size=(n_features, h)) / np.sqrt(n_features)
        self.b1 = np.zeros(h)
        self.W2 = rng.uniform(-0.5, 0.5, size=(h, k)) / np.sqrt(h)
        self.b2 = np.zeros(k)

    def _forward(self, X):
        hidden = _sigmoid(X @ self.W1 + self.b1)
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

        delta2 = probs - Y
        gW2 = hidden.T @ delta2 + self.l2 * self.W2
        gb2 = delta2.sum(axis=0)
        delta1 = (delta2 @ self.W2.T) * hidden * (1.0 - hidden)
        gW1 = X.T @ delta1 + self.l2 * self.W1
        gb1 = delta1.sum(axis=0)
        return loss, (gW1, gb1, gW2, gb2)

    def _fit(self, X, y):
        rng = np.random.default_rng(self.seed)
        self.init_params(X.shape[1], rng)
        Y = one_hot(y, self.class_count_)
        n = X.shape[0]
        lr = self.learning_rate
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start:start + self.batch_size]
                loss, (gW1, gb1, gW2, gb2) = self.loss_and_grads(X[batch], Y[batch])
                if not np.isfinite(loss):
                    raise DivergenceError(f"non-finite loss at learning rate {lr}")
                self.W1 -= lr * gW1
                self.b1 -= lr * gb1
                self.W2 -= lr * gW2
                self.b2 -= lr * gb2

    def _scores(self, X):
        return self._forward(X)[1]

    def _state_to_dict(self):
        return {name: getattr(self, name).tolist() for name in ("W1", "b1", "W2", "b2")}

    def _state_from_dict(self, doc):
        for name in ("W1", "b1", "W2", "b2"):
            setattr(self, name, np.asarray(doc[name], dtype=np.float64))
