"""Shared-memory shipping of client datasets for the pool engine.

The process-pool execution backend must hand every worker the full set
of client datasets exactly once.  Pickling the feature matrices per task
would copy megabytes per round; instead the parent packs all client
shards into two ``multiprocessing.shared_memory`` blocks (features and
labels, each one contiguous concatenation over clients) and ships only a
tiny :class:`SharedDatasetSpec` of names and offsets.  Workers attach
zero-copy numpy views over the blocks and rebuild per-client
:class:`~repro.data.dataset.Dataset` objects from row slices.

Ownership: the parent-side :class:`SharedDatasetStore` is the only
unlinker.  Workers attach read-only and immediately de-register their
handle from the ``resource_tracker`` (Python 3.11 has no ``track=False``
attach), otherwise each worker's tracker would try to unlink the block a
second time at exit and log spurious warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.data.dataset import Dataset

__all__ = [
    "SharedDatasetSpec",
    "SharedDatasetStore",
    "SharedParameterBlock",
    "attach_datasets",
    "attach_parameters",
]


@dataclass(frozen=True)
class SharedDatasetSpec:
    """Everything a worker needs to rebuild the client datasets.

    Attributes:
        features_name / labels_name: shared-memory block names.
        features_dtype / labels_dtype: numpy dtype strings.
        n_features: feature dimensionality (columns of the block).
        n_classes: carried into every rebuilt :class:`Dataset`.
        row_offsets: per-client ``(start_row, n_rows)`` into the blocks.
    """

    features_name: str
    labels_name: str
    features_dtype: str
    labels_dtype: str
    n_features: int
    n_classes: int
    row_offsets: tuple[tuple[int, int], ...]

    @property
    def total_rows(self) -> int:
        return sum(n for _, n in self.row_offsets)


class SharedDatasetStore:
    """Parent-side owner of the packed shared-memory dataset blocks."""

    def __init__(self, datasets: list[Dataset]) -> None:
        if not datasets:
            raise ValueError("need at least one dataset to share")
        n_classes = datasets[0].n_classes
        n_features = datasets[0].n_features
        for d in datasets:
            if d.n_classes != n_classes or d.n_features != n_features:
                raise ValueError(
                    "all shared datasets must agree on n_features/n_classes"
                )
        offsets: list[tuple[int, int]] = []
        start = 0
        for d in datasets:
            offsets.append((start, len(d)))
            start += len(d)

        # Each dataset's rows are cast straight into the shared block:
        # no concatenated or float64 copy is made in between.
        features_dtype = np.dtype(np.float64)
        labels_dtype = np.dtype(np.int64)
        self._features_shm = shared_memory.SharedMemory(
            create=True, size=start * n_features * features_dtype.itemsize
        )
        self._labels_shm = shared_memory.SharedMemory(
            create=True, size=start * labels_dtype.itemsize
        )
        features = np.ndarray(
            (start, n_features), features_dtype, self._features_shm.buf
        )
        labels = np.ndarray((start,), labels_dtype, self._labels_shm.buf)
        for d, (first, rows) in zip(datasets, offsets):
            features[first : first + rows] = d.features
            labels[first : first + rows] = d.labels
        self.spec = SharedDatasetSpec(
            features_name=self._features_shm.name,
            labels_name=self._labels_shm.name,
            features_dtype=features_dtype.str,
            labels_dtype=labels_dtype.str,
            n_features=n_features,
            n_classes=n_classes,
            row_offsets=tuple(offsets),
        )
        self._closed = False

    def close(self) -> None:
        """Release and unlink both blocks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shm in (self._features_shm, self._labels_shm):
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass


class SharedParameterBlock:
    """Parent-owned shared block broadcasting one flat parameter vector.

    The persistent-worker pool re-reads the global model every round;
    shipping it through the task pickle would copy it once per chunk.
    Instead the parent rewrites this block before each round's
    submission (the round waits for every chunk it submitted, so no
    worker is still reading when the next round writes) and the chunk
    tasks carry only client ids, the round index, and the learning
    rate.
    """

    def __init__(self, n_parameters: int) -> None:
        if n_parameters < 1:
            raise ValueError(
                f"n_parameters must be >= 1; got {n_parameters}"
            )
        self.n_parameters = int(n_parameters)
        self._shm = shared_memory.SharedMemory(
            create=True, size=self.n_parameters * np.dtype(np.float64).itemsize
        )
        self._view = np.ndarray(
            (self.n_parameters,), dtype=np.float64, buffer=self._shm.buf
        )
        self.name = self._shm.name
        self._closed = False

    def write(self, values: np.ndarray) -> None:
        """Publish ``values`` to every attached worker."""
        self._view[:] = values

    def close(self) -> None:
        """Release and unlink the block (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._view = None
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:
            pass


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a block without registering with the resource tracker.

    Python 3.11 has no ``track=False``: forked workers share the
    parent's tracker process, so attach-side register/unregister pairs
    race each other and the tracker logs spurious KeyErrors at exit.
    Only the parent (creator) tracks and unlinks the blocks.
    """
    register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


def attach_parameters(
    name: str, n_parameters: int
) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """Worker-side attach to a :class:`SharedParameterBlock`.

    Returns ``(view, handle)``; the caller must keep ``handle`` alive as
    long as the view is read and must treat the view as read-only.
    """
    handle = _attach_untracked(name)
    view = np.ndarray((n_parameters,), dtype=np.float64, buffer=handle.buf)
    return view, handle


def attach_datasets(
    spec: SharedDatasetSpec,
) -> tuple[list[Dataset], tuple[shared_memory.SharedMemory, ...]]:
    """Worker-side attach: rebuild per-client datasets as zero-copy views.

    Returns ``(datasets, handles)``; the caller must keep ``handles``
    alive as long as the datasets are used (the views borrow their
    buffers).  The handles are never registered with the resource
    tracker, so only the parent-side owner unlinks the blocks.
    """
    features_shm = _attach_untracked(spec.features_name)
    labels_shm = _attach_untracked(spec.labels_name)
    total = spec.total_rows
    all_features = np.ndarray(
        (total, spec.n_features),
        dtype=np.dtype(spec.features_dtype),
        buffer=features_shm.buf,
    )
    all_labels = np.ndarray(
        (total,), dtype=np.dtype(spec.labels_dtype), buffer=labels_shm.buf
    )
    datasets = [
        Dataset(
            all_features[start : start + n_rows],
            all_labels[start : start + n_rows],
            spec.n_classes,
        )
        for start, n_rows in spec.row_offsets
    ]
    return datasets, (features_shm, labels_shm)
