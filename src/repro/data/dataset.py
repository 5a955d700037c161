"""Dataset containers for the FEI substrate.

The paper trains multinomial logistic regression on MNIST (784-dimensional
inputs, 10 classes).  This module provides a small, dependency-free dataset
abstraction used by the synthetic-MNIST generator, the partitioners, and the
federated-learning substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["Dataset", "train_test_split"]


@dataclass(frozen=True)
class Dataset:
    """An in-memory supervised classification dataset.

    Attributes:
        features: float array of shape ``(n_samples, n_features)``.
        labels: int array of shape ``(n_samples,)`` with values in
            ``[0, n_classes)``.
        n_classes: number of distinct classes the labels may take.  This is
            carried explicitly (rather than inferred from ``labels``) so that
            a partition shard that happens to miss a class still trains a
            model with the full output dimension.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        features = np.asarray(self.features)
        labels = np.asarray(self.labels)
        if features.ndim != 2:
            raise ValueError(
                f"features must be 2-D (n_samples, n_features); got shape {features.shape}"
            )
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D; got shape {labels.shape}")
        if features.shape[0] != labels.shape[0]:
            raise ValueError(
                "features and labels disagree on the number of samples: "
                f"{features.shape[0]} != {labels.shape[0]}"
            )
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be positive; got {self.n_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError(
                f"labels must lie in [0, {self.n_classes}); "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        """Dimensionality of each input sample."""
        return self.features.shape[1]

    def subset(self, indices: Sequence[int] | np.ndarray) -> "Dataset":
        """Return a new dataset containing the samples at ``indices``."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.n_classes)

    def widened(self) -> "Dataset":
        """This dataset with float64 features (itself if they already are).

        Features are stored as float32; the models compute in float64.
        Owners widen once and train or evaluate on the copy, instead of
        letting every mixed-dtype matmul widen the whole matrix again.
        Widening is exact; gradients on the copy also need
        :func:`repro.fl.model.transpose_for_backward` to keep their bits.
        """
        if self.features.dtype == np.float64:
            return self
        return Dataset(
            self.features.astype(np.float64), self.labels, self.n_classes
        )

    def shuffled(self, rng: np.random.Generator) -> "Dataset":
        """Return a copy with samples in a random order drawn from ``rng``."""
        perm = rng.permutation(len(self))
        return self.subset(perm)

    def take(self, n: int) -> "Dataset":
        """Return the first ``n`` samples (all samples if ``n`` exceeds size)."""
        if n < 0:
            raise ValueError(f"n must be non-negative; got {n}")
        return self.subset(np.arange(min(n, len(self))))

    def class_counts(self) -> np.ndarray:
        """Return an array of length ``n_classes`` with per-class sample counts."""
        return np.bincount(self.labels, minlength=self.n_classes)

    def batches(
        self, batch_size: int, rng: np.random.Generator | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(features, labels)`` mini-batches.

        The paper uses full-batch SGD (one batch per epoch); pass
        ``batch_size >= len(self)`` for that behaviour.  When ``rng`` is
        given, samples are shuffled before batching.

        Batches are index-based: a shuffled epoch gathers only one
        permutation vector and slices it per batch (never materialising
        a shuffled copy of the feature matrix), and the unshuffled path
        yields zero-copy views.  Batch *contents* for a given ``rng``
        are identical to gathering from a shuffled copy.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive; got {batch_size}")
        if rng is None:
            for start in range(0, len(self), batch_size):
                stop = start + batch_size
                yield self.features[start:stop], self.labels[start:stop]
            return
        order = rng.permutation(len(self))
        for start in range(0, len(self), batch_size):
            idx = order[start : start + batch_size]
            yield self.features[idx], self.labels[idx]

    def merged_with(self, other: "Dataset") -> "Dataset":
        """Return the concatenation of this dataset with ``other``."""
        if self.n_classes != other.n_classes:
            raise ValueError(
                f"cannot merge datasets with different n_classes: "
                f"{self.n_classes} != {other.n_classes}"
            )
        if self.n_features != other.n_features:
            raise ValueError(
                f"cannot merge datasets with different n_features: "
                f"{self.n_features} != {other.n_features}"
            )
        return Dataset(
            np.concatenate([self.features, other.features]),
            np.concatenate([self.labels, other.labels]),
            self.n_classes,
        )


def train_test_split(
    dataset: Dataset, test_fraction: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Randomly split ``dataset`` into train and test subsets.

    Args:
        dataset: the dataset to split.
        test_fraction: fraction of samples assigned to the test set,
            in ``(0, 1)``.
        rng: randomness source for the permutation.

    Returns:
        ``(train, test)`` datasets covering all samples exactly once.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1); got {test_fraction}")
    perm = rng.permutation(len(dataset))
    n_test = int(round(len(dataset) * test_fraction))
    n_test = max(1, min(len(dataset) - 1, n_test))
    return dataset.subset(perm[n_test:]), dataset.subset(perm[:n_test])
