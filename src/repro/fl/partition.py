"""Partitioning a central dataset across edge servers.

The paper uniformly allocates the 60 000 MNIST training samples over 20
edge servers (3 000 samples each, i.i.d.), which is :func:`partition_iid`.
The non-iid partitioners (:func:`partition_by_shards`,
:func:`partition_dirichlet`) support the extension study in
``benchmarks/test_bench_ablation_noniid.py``: the paper observes that the
optimal ``K* = 1`` hinges on the i.i.d. assumption, and these partitioners
let us probe what happens when it is violated.

:class:`Partitions` is the one form the testbed holds a split in: the
pooled dataset plus an index array per partition.  :func:`iid_partitions`
builds it without copying a row; a list of partition datasets becomes
one by :meth:`Partitions.from_datasets`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.dataset import Dataset

__all__ = [
    "Partitions",
    "iid_partitions",
    "partition_iid",
    "partition_by_shards",
    "partition_dirichlet",
]


class Partitions(Sequence[Dataset]):
    """``N`` partitions of one dataset, held as index arrays.

    Partition ``k`` is the rows ``order[bounds[k]:bounds[k + 1]]`` of
    ``dataset``; with ``order=None`` it is the rows
    ``bounds[k]:bounds[k + 1]`` themselves, as in a concatenation of
    partition datasets.  No row is copied until a partition is asked
    for: indexing builds that partition's :class:`Dataset` (a view when
    ``order`` is ``None``), and :meth:`gather` gives the pooled-row
    index of equal-size partitions, so one fancy-indexed read stacks
    any subset of them.
    """

    def __init__(
        self,
        dataset: Dataset,
        bounds: np.ndarray,
        order: np.ndarray | None = None,
    ) -> None:
        self.dataset = dataset
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.order = order
        self.sizes = np.diff(self.bounds)

    @classmethod
    def from_datasets(
        cls, datasets: "Sequence[Dataset] | Partitions"
    ) -> "Partitions":
        """One concatenated dataset with contiguous partitions (a table
        passes through).  The datasets must agree on ``n_classes``."""
        if isinstance(datasets, Partitions):
            return datasets
        if not datasets:
            raise ValueError("need at least one partition")
        n_classes = datasets[0].n_classes
        if any(d.n_classes != n_classes for d in datasets):
            raise ValueError("all partitions must share n_classes")
        bounds = np.zeros(len(datasets) + 1, dtype=np.int64)
        np.cumsum([len(d) for d in datasets], out=bounds[1:])
        pooled = Dataset(
            np.concatenate([d.features for d in datasets]),
            np.concatenate([d.labels for d in datasets]),
            n_classes,
        )
        return cls(pooled, bounds)

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, k: int) -> Dataset:
        if not -len(self) <= k < len(self):
            raise IndexError(f"partition {k} out of range for {len(self)}")
        k %= len(self)
        rows = slice(self.bounds[k], self.bounds[k + 1])
        if self.order is not None:
            return self.dataset.subset(self.order[rows])
        data = self.dataset
        return Dataset(data.features[rows], data.labels[rows], data.n_classes)

    def gather(self, partition_ids: np.ndarray, n: int) -> np.ndarray:
        """``(G, n)`` pooled-row index of partitions of size ``n``, in
        ``partition_ids`` order: ``dataset.features[index]`` stacks
        their rows."""
        index = self.bounds[partition_ids][:, None] + np.arange(n)
        if self.order is not None:
            index = self.order[index]
        return index


def _validate(dataset: Dataset, n_partitions: int) -> None:
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be positive; got {n_partitions}")
    if len(dataset) < n_partitions:
        raise ValueError(
            f"cannot split {len(dataset)} samples into {n_partitions} partitions"
        )


def iid_partitions(
    dataset: Dataset, n_partitions: int, rng: np.random.Generator
) -> Partitions:
    """:func:`partition_iid` as index arrays: one permutation, no copies."""
    _validate(dataset, n_partitions)
    perm = rng.permutation(len(dataset))
    # np.array_split's sizes: the first ``extra`` shards get one more.
    base, extra = divmod(len(dataset), n_partitions)
    bounds = np.zeros(n_partitions + 1, dtype=np.int64)
    np.cumsum(base + (np.arange(n_partitions) < extra), out=bounds[1:])
    return Partitions(dataset, bounds, perm)


def partition_iid(
    dataset: Dataset, n_partitions: int, rng: np.random.Generator
) -> list[Dataset]:
    """Split ``dataset`` into ``n_partitions`` random equal-size shards.

    Sizes differ by at most one sample.  Every sample is assigned to
    exactly one partition.
    """
    return list(iid_partitions(dataset, n_partitions, rng))


def partition_by_shards(
    dataset: Dataset,
    n_partitions: int,
    shards_per_partition: int,
    rng: np.random.Generator,
) -> list[Dataset]:
    """Label-sorted shard partitioning (the classic FedAvg non-iid setup).

    Samples are sorted by label, cut into ``n_partitions *
    shards_per_partition`` contiguous shards, and each partition receives
    ``shards_per_partition`` random shards.  With few shards per partition
    each edge server sees only a couple of classes.
    """
    _validate(dataset, n_partitions)
    if shards_per_partition < 1:
        raise ValueError(
            f"shards_per_partition must be positive; got {shards_per_partition}"
        )
    n_shards = n_partitions * shards_per_partition
    if len(dataset) < n_shards:
        raise ValueError(
            f"cannot cut {len(dataset)} samples into {n_shards} shards"
        )
    order = np.argsort(dataset.labels, kind="stable")
    shards = np.array_split(order, n_shards)
    assignment = rng.permutation(n_shards)
    partitions = []
    for p in range(n_partitions):
        shard_ids = assignment[
            p * shards_per_partition : (p + 1) * shards_per_partition
        ]
        idx = np.concatenate([shards[s] for s in shard_ids])
        partitions.append(dataset.subset(idx))
    return partitions


def partition_dirichlet(
    dataset: Dataset,
    n_partitions: int,
    alpha: float,
    rng: np.random.Generator,
) -> list[Dataset]:
    """Dirichlet label-skew partitioning.

    For every class, the class's samples are divided among partitions
    according to proportions drawn from ``Dirichlet(alpha)``.  Small
    ``alpha`` (e.g. 0.1) produces highly skewed label distributions;
    ``alpha -> inf`` approaches iid.  Partitions are guaranteed non-empty
    by reassigning one sample from the largest partition when needed.
    """
    _validate(dataset, n_partitions)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive; got {alpha}")
    assigned: list[list[np.ndarray]] = [[] for _ in range(n_partitions)]
    for cls in range(dataset.n_classes):
        cls_idx = np.flatnonzero(dataset.labels == cls)
        if cls_idx.size == 0:
            continue
        cls_idx = rng.permutation(cls_idx)
        proportions = rng.dirichlet(np.full(n_partitions, alpha))
        # Convert proportions to cumulative sample counts over this class.
        cuts = (np.cumsum(proportions)[:-1] * cls_idx.size).astype(np.int64)
        for p, chunk in enumerate(np.split(cls_idx, cuts)):
            if chunk.size:
                assigned[p].append(chunk)

    parts = [
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        for chunks in assigned
    ]
    # Guarantee non-empty partitions: move single samples from the largest.
    for p in range(n_partitions):
        while parts[p].size == 0:
            donor = int(np.argmax([part.size for part in parts]))
            if parts[donor].size <= 1:
                raise ValueError("not enough samples to make all partitions non-empty")
            parts[p] = parts[donor][-1:]
            parts[donor] = parts[donor][:-1]
    return [dataset.subset(idx) for idx in parts]
