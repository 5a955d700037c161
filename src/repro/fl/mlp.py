"""A one-hidden-layer MLP — the "beyond logistic regression" extension.

The paper trains multinomial logistic regression; its future-work
direction is richer models.  This module provides a numpy MLP with the
same duck-typed interface the FL substrate uses (flat parameter vector,
loss, gradient, SGD step), so every component — clients, coordinator,
trainer, prototype, message sizing — works unchanged with a non-convex
model.

Note the theory caveat: Proposition 1 assumes convex local losses; with
an MLP the bound is heuristic.  The extension benchmarks use the MLP to
probe how far the energy-planning pipeline degrades off-assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.model import _cols_matmul, _rows_matmul, softmax

__all__ = ["MLPConfig", "MLPModel"]


@dataclass(frozen=True)
class MLPConfig:
    """Architecture of the one-hidden-layer network.

    Attributes:
        n_features: input dimensionality.
        n_hidden: hidden-layer width.
        n_classes: output dimensionality.
        l2: L2 regularisation on the weight matrices (not biases).
        init_seed: seed of the deterministic He initialisation.  All
            parties calling :meth:`build` receive identical initial
            parameters, which FedAvg requires of ``omega_0``.
    """

    n_features: int = 784
    n_hidden: int = 64
    n_classes: int = 10
    l2: float = 0.0
    init_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_features < 1 or self.n_hidden < 1:
            raise ValueError(
                f"n_features and n_hidden must be positive; got "
                f"{self.n_features}, {self.n_hidden}"
            )
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2; got {self.n_classes}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be non-negative; got {self.l2}")

    @property
    def n_parameters(self) -> int:
        """Total scalar parameters: two weight matrices + two bias vectors."""
        return (
            self.n_features * self.n_hidden
            + self.n_hidden
            + self.n_hidden * self.n_classes
            + self.n_classes
        )

    def parameter_bytes(self, dtype_bytes: int = 4) -> int:
        """Serialised update size (for the communication substrate)."""
        return self.n_parameters * dtype_bytes

    def build(self) -> "MLPModel":
        """Construct a model with the deterministic shared initialisation."""
        return MLPModel(self)


class MLPModel:
    """``softmax(W2 . relu(W1 x + b1) + b2)`` with cross-entropy loss."""

    def __init__(self, config: MLPConfig) -> None:
        self.config = config
        rng = np.random.default_rng(config.init_seed)
        # He initialisation for the ReLU layer; small normal for the head.
        self.w1 = rng.normal(
            0.0, np.sqrt(2.0 / config.n_features), (config.n_features, config.n_hidden)
        )
        self.b1 = np.zeros(config.n_hidden)
        self.w2 = rng.normal(
            0.0, np.sqrt(1.0 / config.n_hidden), (config.n_hidden, config.n_classes)
        )
        self.b2 = np.zeros(config.n_classes)

    # ------------------------------------------------------------------
    # Flat parameter-vector interface.
    # ------------------------------------------------------------------
    def get_parameters(self) -> np.ndarray:
        return np.concatenate(
            [self.w1.ravel(), self.b1, self.w2.ravel(), self.b2]
        )

    def set_parameters(self, flat: np.ndarray, copy: bool = True) -> None:
        """Load parameters from a flat vector.

        ``copy=False`` installs views into ``flat`` (the hot-loop fast
        path, same contract as
        :meth:`repro.fl.model.LogisticRegressionModel.set_parameters`):
        the caller must not mutate ``flat``, and the model only rebinds
        its parameter arrays.
        """
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.config.n_parameters,):
            raise ValueError(
                f"expected {self.config.n_parameters} parameters; got {flat.shape}"
            )
        c = self.config
        cursor = 0
        pieces = []
        for shape in (
            (c.n_features, c.n_hidden),
            (c.n_hidden,),
            (c.n_hidden, c.n_classes),
            (c.n_classes,),
        ):
            size = int(np.prod(shape))
            piece = flat[cursor : cursor + size].reshape(shape)
            pieces.append(piece.copy() if copy else piece)
            cursor += size
        self.w1, self.b1, self.w2, self.b2 = pieces

    def clone(self) -> "MLPModel":
        other = MLPModel(self.config)
        other.set_parameters(self.get_parameters())
        return other

    # ------------------------------------------------------------------
    # Forward / loss / gradient.
    # ------------------------------------------------------------------
    def _forward(
        self, features: np.ndarray, features_t: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        hidden = np.maximum(
            _rows_matmul(features, self.w1, features_t) + self.b1, 0.0
        )
        logits = hidden @ self.w2 + self.b2
        return hidden, logits

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        _, logits = self._forward(features)
        return softmax(logits)

    def predict(self, features: np.ndarray) -> np.ndarray:
        _, logits = self._forward(features)
        return np.argmax(logits, axis=-1)

    def loss(self, features: np.ndarray, labels: np.ndarray) -> float:
        probs = self.predict_proba(features)
        picked = probs[np.arange(features.shape[0]), labels]
        value = float(-np.mean(np.log(np.maximum(picked, 1e-12))))
        if self.config.l2:
            value += 0.5 * self.config.l2 * float(
                np.sum(self.w1**2) + np.sum(self.w2**2)
            )
        return value

    def gradient_flat(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        features_t: np.ndarray | None = None,
    ) -> np.ndarray:
        """Backprop gradient as a flat vector aligned with the parameters.

        ``features_t`` is as in
        :meth:`repro.fl.model.LogisticRegressionModel.gradient`.
        """
        n = features.shape[0]
        hidden, logits = self._forward(features, features_t)
        delta_out = softmax(logits)
        delta_out[np.arange(n), labels] -= 1.0
        delta_out /= n
        grad_w2 = hidden.T @ delta_out
        grad_b2 = delta_out.sum(axis=0)
        delta_hidden = (delta_out @ self.w2.T) * (hidden > 0)
        grad_w1 = _cols_matmul(features, features_t, delta_hidden)
        grad_b1 = delta_hidden.sum(axis=0)
        if self.config.l2:
            grad_w1 += self.config.l2 * self.w1
            grad_w2 += self.config.l2 * self.w2
        return np.concatenate(
            [grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2]
        )

    def forward_backward(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        features_t: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        """Loss and flat gradient sharing one forward pass.

        Same contract as
        :meth:`repro.fl.model.LogisticRegressionModel.forward_backward`:
        both values are evaluated at the current parameters.
        """
        n = features.shape[0]
        hidden, logits = self._forward(features, features_t)
        probs = softmax(logits)
        picked = probs[np.arange(n), labels]
        loss = float(-np.mean(np.log(np.maximum(picked, 1e-12))))
        if self.config.l2:
            loss += 0.5 * self.config.l2 * float(
                np.sum(self.w1**2) + np.sum(self.w2**2)
            )
        delta_out = probs
        delta_out[np.arange(n), labels] -= 1.0
        delta_out /= n
        grad_w2 = hidden.T @ delta_out
        grad_b2 = delta_out.sum(axis=0)
        delta_hidden = (delta_out @ self.w2.T) * (hidden > 0)
        grad_w1 = _cols_matmul(features, features_t, delta_hidden)
        grad_b1 = delta_hidden.sum(axis=0)
        if self.config.l2:
            grad_w1 += self.config.l2 * self.w1
            grad_w2 += self.config.l2 * self.w2
        gradient = np.concatenate(
            [grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2]
        )
        return loss, gradient

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(features) == labels))

    def sgd_step(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        learning_rate: float,
        features_t: np.ndarray | None = None,
    ) -> None:
        gradient = self.gradient_flat(features, labels, features_t)
        self.set_parameters(
            self.get_parameters() - learning_rate * gradient, copy=False
        )
