"""Multinomial logistic regression implemented on numpy.

This is the model trained by the paper's prototype (Table II: input
784x1, output 10x1, SGD with learning rate 0.01 and decay 0.99).  The
paper lists "Sigmoid" as the activation; multinomial logistic regression
is conventionally trained with a softmax + cross-entropy head, so softmax
is the default here and an element-wise sigmoid head (with the same
cross-entropy-style loss) is available for strict fidelity.

The model exposes a *flat parameter vector* interface because FedAvg
aggregates models by averaging their parameter vectors (eq. (2) of the
paper), and the communication substrate needs the byte size of one model
update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = [
    "LogisticRegressionConfig",
    "LogisticRegressionModel",
    "evaluation_rows",
    "softmax",
    "transpose_for_backward",
]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def transpose_for_backward(features: np.ndarray) -> np.ndarray:
    """``features.T`` as a C-ordered float64 array (a ``features_t``).

    Given float32 features, ``features.T @ probs`` widens the transpose
    into a fresh C-ordered buffer, and BLAS sums in an order that
    depends on the operand's layout.  An owner that widens float32
    features once (:meth:`repro.data.dataset.Dataset.widened`) passes
    this as the kernels' ``features_t``, so the gradient keeps the bits
    it had when every matmul widened on its own.  Float64 features need
    none: the kernels use the ``features.T`` view, as they always have.
    Above the small-matrix cutoff the layout no longer moves bits, and
    the forward uses this only because it is faster (:func:`_rows_matmul`).
    """
    n_samples, n_features = features.shape
    out = np.empty((n_features, n_samples))
    # Copied in row blocks: a block's transpose stays in cache, which
    # makes the copy several times faster than one strided pass.
    for start in range(0, n_samples, 256):
        out[:, start : start + 256] = features[start : start + 256].T
    return out


# OpenBLAS hands a GEMM with m*n*k at or below 100**3 to its small-matrix
# kernels (the GEMM_SMALL_MATRIX_PERMIT of interface/gemm.c), whose
# summation order depends on operand layout: at 784 features and 10
# classes, 127 rows change bits when transposed and 128 rows do not.
# Above it, each output element accumulates over k in the same K-blocks
# with FMA, which is symmetric in its two factors, so the transposed
# product with the large operand on BLAS's fast side has the same bits.
_SMALL_GEMM_MNK = 100**3
# Except, measured on OpenBLAS 0.3.31's SkylakeX kernels, a forward with
# 12 or more output columns, which changes bits at some row counts when
# transposed; so only outputs this narrow (a classifier's classes, not
# the MLP's hidden layer) are swapped.  The backward matched at every
# width measured.  tests/fl/test_gemm_orientation.py checks both limits.
_MAX_SWAPPED_WIDTH = 11


def _swap(array: np.ndarray) -> np.ndarray:
    return np.swapaxes(array, -1, -2)


def _swaps_forward(n: int, d: int, width: int) -> bool:
    """Whether :func:`_rows_matmul` runs an ``(n, d) @ (d, width)`` swapped."""
    return n * d * width > _SMALL_GEMM_MNK and width <= _MAX_SWAPPED_WIDTH


def _rows_matmul(
    features: np.ndarray,
    weights: np.ndarray,
    features_t: np.ndarray | None = None,
) -> np.ndarray:
    """``features @ weights``, bit for bit, C-ordered.

    Large products run as ``(weights.T @ features_t).T``, about 1.5x
    faster; ``features_t`` is the :func:`transpose_for_backward` of
    ``features`` or ``None``.  Serves ``(G, n, d)`` stacks too.
    """
    n, d = features.shape[-2:]
    if not _swaps_forward(n, d, weights.shape[-1]):
        return features @ weights
    if features_t is None:
        features_t = _swap(features)
    # C order: softmax's row reductions sum F-ordered rows differently.
    return np.ascontiguousarray(_swap(_swap(weights) @ features_t))


def _cols_matmul(
    features: np.ndarray,
    features_t: np.ndarray | None,
    probs: np.ndarray,
) -> np.ndarray:
    """``features.T @ probs`` (``features_t @ probs`` when given), C-ordered.

    Large products run as ``(probs.T @ features).T``, 1.6x to 3x faster
    and the same bits.  Serves ``(G, n, d)`` stacks too.
    """
    n, d = features.shape[-2:]
    if n * d * probs.shape[-1] <= _SMALL_GEMM_MNK:
        return (_swap(features) if features_t is None else features_t) @ probs
    return np.ascontiguousarray(_swap(_swap(probs) @ features))


# An owner holds the transpose of a float32 set it evaluates at least
# this often.  Measured on one BLAS thread at 20 000 to 60 000 x 784
# (BENCH_engine.json's evaluation row, four runs), its build costs 3.3 to
# 4.3 times what each evaluation on it saves against scoring the stored
# rows: at four evaluations the held float64 copy buys at most a few
# milliseconds for its memory, and it repays its time from the fifth.
_HELD_TRANSPOSE_MIN_EVALUATIONS = 5

# Rows of float32 features widened at a time when a float32 set is
# scored (:func:`_widened_row_blocks`): 6.3 MB at 784 features.  On one
# BLAS thread, 1 024-row blocks scored 60 000 x 784 rows in 121 ms,
# 4 096-row blocks in 141 ms and one widened copy in 363 ms.
_EVAL_BLOCK_ROWS = 1024


def _widened_row_blocks(
    features: np.ndarray, width: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """``features`` as float64 row blocks whose ``(d, width)`` forward
    keeps the bits of the whole one: ``(rows, block)`` pairs.

    One block of all rows for float64 features, or when the whole
    forward is not swapped (:func:`_swaps_forward`): a GEMM that is not
    swapped can sum a row differently at another row count.  Otherwise
    blocks of ``_EVAL_BLOCK_ROWS`` rows, a tail too small to be swapped
    joining the block before it, so every block's product is swapped as
    the whole one is, and the swapped product gives each row the same
    bits whatever the rows beside it (tests/fl/test_cohort_updates.py).
    """
    n, d = features.shape
    if features.dtype == np.float64 or not _swaps_forward(n, d, width):
        yield slice(0, n), features.astype(np.float64, copy=False)
        return
    min_rows = _SMALL_GEMM_MNK // (d * width) + 1
    starts = list(range(0, n - min_rows + 1, max(_EVAL_BLOCK_ROWS, min_rows)))
    for rows in map(slice, starts, [*starts[1:], n]):
        yield rows, features[rows].astype(np.float64)


def evaluation_rows(
    features: np.ndarray, model_config: object, evaluations: int
) -> np.ndarray:
    """An evaluation set's ``features``, laid out for its evaluations.

    ``evaluations`` is how many times the owner may evaluate the set.
    Below ``_HELD_TRANSPOSE_MIN_EVALUATIONS`` the logistic-regression
    head gets the rows as stored: its ``loss`` and ``accuracy`` widen
    float32 rows a block at a time, so no float64 copy of the set is
    made.  From there on, where :func:`_rows_matmul` swaps the forward
    (above the small-GEMM cutoff), this is the ``.T`` view of
    :func:`transpose_for_backward`: the swapped product then reads a
    C-ordered operand, BLAS's fast orientation, instead of a transposed
    view of row-major rows, with the same bits.  Otherwise, and for any
    other model (the MLP, whose forward changes bits under row blocks),
    the rows are widened as they are.
    """
    if isinstance(model_config, LogisticRegressionConfig):
        if evaluations < _HELD_TRANSPOSE_MIN_EVALUATIONS:
            return features
        n, d = features.shape
        if _swaps_forward(n, d, model_config.n_classes):
            return transpose_for_backward(features).T
    return features.astype(np.float64, copy=False)


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    """Numerically stable element-wise sigmoid."""
    out = np.empty_like(logits)
    pos = logits >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    exp_l = np.exp(logits[~pos])
    out[~pos] = exp_l / (1.0 + exp_l)
    return out


@dataclass(frozen=True)
class LogisticRegressionConfig:
    """Configuration of the classification head.

    Attributes:
        n_features: input dimensionality (784 for 28x28 images).
        n_classes: output dimensionality (10 digits).
        activation: ``"softmax"`` (standard multinomial logistic
            regression) or ``"sigmoid"`` (one-vs-all head, as printed in
            the paper's Table II).
        l2: optional L2 regularisation strength.  With ``l2 > 0`` the loss
            is strongly convex, matching the mu-convexity assumption of
            Proposition 1.
    """

    n_features: int = 784
    n_classes: int = 10
    activation: str = "softmax"
    l2: float = 0.0

    def __post_init__(self) -> None:
        if self.n_features < 1:
            raise ValueError(f"n_features must be positive; got {self.n_features}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2; got {self.n_classes}")
        if self.activation not in ("softmax", "sigmoid"):
            raise ValueError(
                f"activation must be 'softmax' or 'sigmoid'; got {self.activation!r}"
            )
        if self.l2 < 0:
            raise ValueError(f"l2 must be non-negative; got {self.l2}")

    @property
    def n_parameters(self) -> int:
        """Total number of scalar parameters (weights + biases)."""
        return self.n_features * self.n_classes + self.n_classes

    def parameter_bytes(self, dtype_bytes: int = 4) -> int:
        """Size of one serialised model update in bytes.

        Used by the communication substrate to derive the model
        upload/download energy ``e_k^U``.
        """
        return self.n_parameters * dtype_bytes

    def build(self) -> "LogisticRegressionModel":
        """Construct a model with this architecture.

        The canonical factory used by clients and the coordinator; every
        call returns the same (zero) initialisation, so all parties agree
        on ``omega_0``.
        """
        return LogisticRegressionModel(self)


class LogisticRegressionModel:
    """A linear classifier with gradient, loss, and flat-vector access.

    Parameters are stored as a weight matrix ``W`` of shape
    ``(n_features, n_classes)`` and a bias vector ``b`` of shape
    ``(n_classes,)``.
    """

    def __init__(
        self,
        config: LogisticRegressionConfig | None = None,
        rng: np.random.Generator | None = None,
        init_scale: float = 0.0,
    ) -> None:
        self.config = config or LogisticRegressionConfig()
        if init_scale and rng is None:
            raise ValueError("init_scale > 0 requires an rng")
        if init_scale and rng is not None:
            self.weights = rng.normal(
                0.0, init_scale, size=(self.config.n_features, self.config.n_classes)
            )
            self.bias = rng.normal(0.0, init_scale, size=self.config.n_classes)
        else:
            self.weights = np.zeros((self.config.n_features, self.config.n_classes))
            self.bias = np.zeros(self.config.n_classes)

    # ------------------------------------------------------------------
    # Flat parameter-vector interface (what FedAvg averages and uploads).
    # ------------------------------------------------------------------
    def get_parameters(self) -> np.ndarray:
        """Return a flat copy of all parameters (weights then biases)."""
        return np.concatenate([self.weights.ravel(), self.bias])

    def set_parameters(self, flat: np.ndarray, copy: bool = True) -> None:
        """Load parameters from a flat vector produced by :meth:`get_parameters`.

        ``copy=False`` installs *views* into ``flat`` instead of copying —
        the fast path used by the training and evaluation hot loops, where
        a fresh parameter vector is produced every step anyway.  The
        caller must not mutate ``flat`` afterwards, and the model itself
        only rebinds (never writes through) view-backed parameters.
        """
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.config.n_parameters,):
            raise ValueError(
                f"expected a flat vector of length {self.config.n_parameters}; "
                f"got shape {flat.shape}"
            )
        n_w = self.config.n_features * self.config.n_classes
        weights = flat[:n_w].reshape(self.config.n_features, self.config.n_classes)
        bias = flat[n_w:]
        if copy:
            weights = weights.copy()
            bias = bias.copy()
        self.weights = weights
        self.bias = bias

    def clone(self) -> "LogisticRegressionModel":
        """Return a deep copy of this model."""
        other = LogisticRegressionModel(self.config)
        other.weights = self.weights.copy()
        other.bias = self.bias.copy()
        return other

    # ------------------------------------------------------------------
    # Forward / loss / gradient.
    # ------------------------------------------------------------------
    def logits(
        self, features: np.ndarray, features_t: np.ndarray | None = None
    ) -> np.ndarray:
        """Compute the pre-activation scores for a batch of samples.

        ``features_t``, when given, is the :func:`transpose_for_backward`
        of ``features``; it only makes the product faster.
        """
        return _rows_matmul(features, self.weights, features_t) + self.bias

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Per-class probabilities (rows sum to 1 under softmax)."""
        scores = self.logits(features)
        if self.config.activation == "softmax":
            return softmax(scores)
        probs = _sigmoid(scores)
        total = probs.sum(axis=-1, keepdims=True)
        return probs / np.maximum(total, 1e-12)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard class predictions (argmax of the logits).

        Float32 ``features`` are widened a row block at a time.
        """
        predicted = np.empty(features.shape[0], np.intp)
        for rows, block in _widened_row_blocks(features, self.config.n_classes):
            predicted[rows] = np.argmax(self.logits(block), axis=-1)
        return predicted

    def _picked_proba(self, block: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """:meth:`predict_proba` at each row's label, dividing only those."""
        scores = self.logits(block)
        if self.config.activation == "softmax":
            unnormalised = np.exp(scores - scores.max(axis=-1, keepdims=True))
            total = unnormalised.sum(axis=-1)
        else:
            unnormalised = _sigmoid(scores)
            total = np.maximum(unnormalised.sum(axis=-1), 1e-12)
        return unnormalised[np.arange(block.shape[0]), labels] / total

    def loss(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross-entropy loss over the batch, eq. (1) of the paper.

        Float32 ``features`` are widened a row block at a time.
        """
        picked = np.empty(features.shape[0])
        for rows, block in _widened_row_blocks(features, self.config.n_classes):
            picked[rows] = self._picked_proba(block, labels[rows])
        data_loss = float(-np.mean(np.log(np.maximum(picked, 1e-12))))
        if self.config.l2:
            data_loss += 0.5 * self.config.l2 * float(np.sum(self.weights**2))
        return data_loss

    def gradient(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        features_t: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of :meth:`loss` with respect to ``(weights, bias)``.

        For the softmax head this is the exact cross-entropy gradient
        ``X^T (p - y) / n``; for the sigmoid head we use the same
        expression, which corresponds to a one-vs-all logistic loss and
        keeps training stable.  ``features_t``, when given, is the
        :func:`transpose_for_backward` of ``features``.
        """
        n = features.shape[0]
        if self.config.activation == "softmax":
            probs = softmax(self.logits(features, features_t))
        else:
            probs = _sigmoid(self.logits(features, features_t))
        probs[np.arange(n), labels] -= 1.0
        grad_w = _cols_matmul(features, features_t, probs) / n
        grad_b = probs.sum(axis=0) / n
        if self.config.l2:
            grad_w = grad_w + self.config.l2 * self.weights
        return grad_w, grad_b

    def gradient_flat(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        features_t: np.ndarray | None = None,
    ) -> np.ndarray:
        """Gradient as a flat vector aligned with :meth:`get_parameters`."""
        grad_w, grad_b = self.gradient(features, labels, features_t)
        return np.concatenate([grad_w.ravel(), grad_b])

    def forward_backward(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        features_t: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        """Loss and flat gradient from one shared forward pass.

        A full-batch gradient step needs the class probabilities anyway;
        computing the loss from the same forward halves the forward-pass
        count of the training hot loop.  Returns ``(loss, gradient)``
        where both are evaluated at the *current* parameters (the loss is
        the one this gradient step descends).
        """
        n = features.shape[0]
        if self.config.activation == "softmax":
            probs = softmax(self.logits(features, features_t))
            picked = probs[np.arange(n), labels]
        else:
            probs = _sigmoid(self.logits(features, features_t))
            total = np.maximum(probs.sum(axis=-1), 1e-12)
            picked = probs[np.arange(n), labels] / total
        loss = float(-np.mean(np.log(np.maximum(picked, 1e-12))))
        if self.config.l2:
            loss += 0.5 * self.config.l2 * float(np.sum(self.weights**2))
        probs[np.arange(n), labels] -= 1.0
        grad_w = _cols_matmul(features, features_t, probs) / n
        grad_b = probs.sum(axis=0) / n
        if self.config.l2:
            grad_w = grad_w + self.config.l2 * self.weights
        return loss, np.concatenate([grad_w.ravel(), grad_b])

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Fraction of correctly classified samples (see :meth:`predict`)."""
        return float(np.mean(self.predict(features) == labels))

    def sgd_step(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        learning_rate: float,
        features_t: np.ndarray | None = None,
    ) -> None:
        """Apply one gradient-descent step.

        Rebinds (rather than writes through) the parameter arrays, so a
        model loaded via ``set_parameters(..., copy=False)`` never
        mutates the caller's vector.
        """
        grad_w, grad_b = self.gradient(features, labels, features_t)
        self.weights = self.weights - learning_rate * grad_w
        self.bias = self.bias - learning_rate * grad_b
