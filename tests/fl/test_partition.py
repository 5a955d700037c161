"""Unit tests for the dataset partitioners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.fl.partition import (
    Partitions,
    iid_partitions,
    partition_by_shards,
    partition_dirichlet,
    partition_iid,
)


def _dataset(n: int = 200, n_classes: int = 5) -> Dataset:
    rng = np.random.default_rng(0)
    return Dataset(
        rng.normal(size=(n, 3)),
        np.repeat(np.arange(n_classes), n // n_classes),
        n_classes,
    )


def _covers_everything(dataset: Dataset, parts: list[Dataset]) -> bool:
    total = sum(len(p) for p in parts)
    if total != len(dataset):
        return False
    # Feature-sum as a cheap multiset fingerprint.
    part_sum = sum(float(p.features.sum()) for p in parts)
    return np.isclose(part_sum, float(dataset.features.sum()))


class TestIID:
    def test_partition_sizes_balanced(self) -> None:
        parts = partition_iid(_dataset(200), 7, np.random.default_rng(1))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 200

    def test_covers_everything(self) -> None:
        ds = _dataset(100)
        parts = partition_iid(ds, 4, np.random.default_rng(2))
        assert _covers_everything(ds, parts)

    def test_partitions_have_mixed_labels(self) -> None:
        parts = partition_iid(_dataset(500), 5, np.random.default_rng(3))
        for part in parts:
            # An iid shard of 100 samples over 5 classes should have >= 4
            # distinct classes with overwhelming probability.
            assert np.count_nonzero(part.class_counts()) >= 4

    def test_rejects_more_partitions_than_samples(self) -> None:
        with pytest.raises(ValueError, match="cannot split"):
            partition_iid(_dataset(5), 6, np.random.default_rng(0))

    def test_rejects_nonpositive_partitions(self) -> None:
        with pytest.raises(ValueError, match="n_partitions"):
            partition_iid(_dataset(), 0, np.random.default_rng(0))


class TestPartitionTable:
    def test_iid_table_keeps_array_split_rows(self) -> None:
        dataset = _dataset(205)
        table = iid_partitions(dataset, 7, np.random.default_rng(4))
        perm = np.random.default_rng(4).permutation(205)
        for part, chunk in zip(table, np.array_split(perm, 7)):
            np.testing.assert_array_equal(
                part.features, dataset.features[chunk]
            )
        assert table.sizes.tolist() == [len(c) for c in np.array_split(perm, 7)]

    def test_gather_stacks_equal_size_partitions(self) -> None:
        table = iid_partitions(_dataset(200), 7, np.random.default_rng(1))
        ids = np.flatnonzero(table.sizes == table.sizes.min())
        index = table.gather(ids, int(table.sizes.min()))
        np.testing.assert_array_equal(
            table.dataset.features[index],
            np.stack([table[k].features for k in ids]),
        )
        np.testing.assert_array_equal(
            table.dataset.labels[index],
            np.stack([table[k].labels for k in ids]),
        )

    def test_dataset_list_becomes_one_pooled_table(self) -> None:
        parts = partition_by_shards(_dataset(200), 4, 2, np.random.default_rng(2))
        table = Partitions.from_datasets(parts)
        assert Partitions.from_datasets(table) is table
        assert len(table) == 4 and table.order is None
        for k, part in enumerate(parts):
            view = table[k]
            assert np.shares_memory(view.features, table.dataset.features)
            np.testing.assert_array_equal(view.features, part.features)
            np.testing.assert_array_equal(view.labels, part.labels)
        with pytest.raises(IndexError):
            table[4]

    def test_rejects_mixed_class_counts(self) -> None:
        parts = [_dataset(20, 5), _dataset(20, 4)]
        with pytest.raises(ValueError, match="n_classes"):
            Partitions.from_datasets(parts)


class TestShards:
    def test_covers_everything(self) -> None:
        ds = _dataset(200)
        parts = partition_by_shards(ds, 10, 2, np.random.default_rng(4))
        assert _covers_everything(ds, parts)

    def test_label_concentration(self) -> None:
        # 2 shards per partition from label-sorted data: each partition
        # should see at most ~3 of the 5 classes (shards can straddle a
        # class boundary).
        parts = partition_by_shards(_dataset(500), 10, 2, np.random.default_rng(5))
        for part in parts:
            assert np.count_nonzero(part.class_counts()) <= 3

    def test_rejects_too_many_shards(self) -> None:
        with pytest.raises(ValueError, match="shards"):
            partition_by_shards(_dataset(10), 5, 4, np.random.default_rng(0))

    def test_rejects_nonpositive_shards(self) -> None:
        with pytest.raises(ValueError, match="shards_per_partition"):
            partition_by_shards(_dataset(), 5, 0, np.random.default_rng(0))


class TestDirichlet:
    def test_covers_everything(self) -> None:
        ds = _dataset(300)
        parts = partition_dirichlet(ds, 6, alpha=0.5, rng=np.random.default_rng(6))
        assert _covers_everything(ds, parts)

    def test_all_partitions_nonempty(self) -> None:
        parts = partition_dirichlet(
            _dataset(100), 10, alpha=0.05, rng=np.random.default_rng(7)
        )
        assert all(len(p) > 0 for p in parts)

    def test_small_alpha_is_skewed(self) -> None:
        ds = _dataset(1000, n_classes=5)
        skewed = partition_dirichlet(ds, 5, alpha=0.05, rng=np.random.default_rng(8))
        uniform = partition_dirichlet(ds, 5, alpha=100.0, rng=np.random.default_rng(8))

        def mean_label_entropy(parts: list[Dataset]) -> float:
            entropies = []
            for part in parts:
                p = part.class_counts() / len(part)
                p = p[p > 0]
                entropies.append(float(-(p * np.log(p)).sum()))
            return float(np.mean(entropies))

        assert mean_label_entropy(skewed) < mean_label_entropy(uniform)

    def test_rejects_nonpositive_alpha(self) -> None:
        with pytest.raises(ValueError, match="alpha"):
            partition_dirichlet(_dataset(), 5, alpha=0.0, rng=np.random.default_rng(0))
