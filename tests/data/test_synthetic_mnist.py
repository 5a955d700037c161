"""Unit tests for the synthetic-MNIST generator."""

from __future__ import annotations

import hashlib
import threading

import numpy as np
import pytest

from repro.data import synthetic_mnist
from repro.data.synthetic_mnist import (
    IMAGE_SIDE,
    N_CLASSES,
    N_FEATURES,
    generate_synthetic_mnist,
    load_synthetic_mnist,
    render_glyph,
)
from repro.perf import cpu


class TestGlyphs:
    def test_glyph_shape_and_range(self) -> None:
        for digit in range(10):
            glyph = render_glyph(digit)
            assert glyph.shape == (IMAGE_SIDE, IMAGE_SIDE)
            assert set(np.unique(glyph)) <= {0.0, 1.0}

    def test_glyphs_are_distinct(self) -> None:
        glyphs = [render_glyph(d) for d in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.array_equal(glyphs[i], glyphs[j]), (i, j)

    def test_glyph_leaves_shift_margin(self) -> None:
        # Translations up to +-3 pixels must not push ink off the canvas.
        for digit in range(10):
            glyph = render_glyph(digit)
            assert glyph[:3].sum() == 0
            assert glyph[-3:].sum() == 0
            assert glyph[:, :3].sum() == 0
            assert glyph[:, -3:].sum() == 0

    def test_rejects_invalid_digit(self) -> None:
        with pytest.raises(ValueError, match="digit must be in 0..9"):
            render_glyph(10)


class TestGenerate:
    def test_shapes_and_ranges(self) -> None:
        ds = generate_synthetic_mnist(100, seed=0)
        assert len(ds) == 100
        assert ds.n_features == N_FEATURES
        assert ds.n_classes == N_CLASSES
        assert ds.features.min() >= 0.0
        assert ds.features.max() <= 1.0
        assert ds.features.dtype == np.float32

    def test_classes_balanced(self) -> None:
        ds = generate_synthetic_mnist(1000, seed=0, label_noise=0.0)
        counts = ds.class_counts()
        assert counts.min() == counts.max() == 100

    def test_unbalanced_remainder_distributed(self) -> None:
        ds = generate_synthetic_mnist(1003, seed=0, label_noise=0.0)
        counts = ds.class_counts()
        assert counts.sum() == 1003
        assert counts.max() - counts.min() == 1

    def test_deterministic_for_seed(self) -> None:
        a = generate_synthetic_mnist(50, seed=42)
        b = generate_synthetic_mnist(50, seed=42)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self) -> None:
        a = generate_synthetic_mnist(50, seed=1)
        b = generate_synthetic_mnist(50, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_label_noise_flips_some_labels(self) -> None:
        clean = generate_synthetic_mnist(2000, seed=3, label_noise=0.0)
        noisy = generate_synthetic_mnist(2000, seed=3, label_noise=0.2)
        flipped = np.mean(clean.labels != noisy.labels)
        # 20% re-drawn, of which 9/10 actually change: expect ~0.18.
        assert 0.12 < flipped < 0.25

    def test_rejects_bad_label_noise(self) -> None:
        with pytest.raises(ValueError, match="label_noise"):
            generate_synthetic_mnist(10, label_noise=1.0)

    def test_rejects_nonpositive_n(self) -> None:
        with pytest.raises(ValueError, match="n_samples must be positive"):
            generate_synthetic_mnist(0)

    def test_classes_separable_by_template_matching(self) -> None:
        """Noisy samples stay closer to their own prototype than to others.

        This is the property that makes the task learnable by a linear
        model.  Because samples are randomly translated by up to +-3
        pixels, the matcher scores each sample against every *shifted*
        prototype and takes the best match per class.
        """
        ds = generate_synthetic_mnist(300, seed=0, noise_std=0.25, label_noise=0.0)
        shifts = range(-3, 4)
        shifted_prototypes = np.stack(
            [
                np.stack(
                    [
                        np.roll(render_glyph(d), (dy, dx), axis=(0, 1)).ravel()
                        for dy in shifts
                        for dx in shifts
                    ]
                )
                for d in range(N_CLASSES)
            ]
        )  # (classes, shifts, pixels)
        scores = np.einsum("np,csp->ncs", ds.features, shifted_prototypes).max(axis=2)
        accuracy = float(np.mean(scores.argmax(axis=1) == ds.labels))
        assert accuracy > 0.75


class TestLoad:
    def test_load_returns_disjoint_seeded_pair(self) -> None:
        train, test = load_synthetic_mnist(n_train=200, n_test=100, seed=5)
        assert len(train) == 200
        assert len(test) == 100
        # Independent streams: the first images must differ.
        assert not np.array_equal(train.features[0], test.features[0])

    def test_load_deterministic(self) -> None:
        a_train, a_test = load_synthetic_mnist(100, 50, seed=9)
        b_train, b_test = load_synthetic_mnist(100, 50, seed=9)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestGoldenDigests:
    """The generated sets, bit for bit, so that a rewrite of how the
    class blocks are assembled and permuted keeps the random stream."""

    def test_paper_split(self) -> None:
        train, test = load_synthetic_mnist(60_000, 10_000, seed=0)
        assert train.features.dtype == np.float32
        assert train.features.flags.c_contiguous
        assert train.labels.dtype == np.int64
        assert _sha256(train.features) == (
            "373a566e2e50cded9d46f7b69de7a55b899f874d96e58931fc14b8eca2193d0a"
        )
        assert _sha256(train.labels) == (
            "b6a837ae8d43093a3ee6e24551f0a7b8bed75092591621eb00aae5781cb64de8"
        )
        assert _sha256(test.features) == (
            "48c43499bee9c20b337417ba5c6ca109d34dfc5ab0d70c9783dfc6dd95f774f4"
        )
        assert _sha256(test.labels) == (
            "72548283e0d35051491f24657eea97d7a1235171ccf709cdd905f5257cb8bba4"
        )

    @pytest.mark.parametrize(
        "n, seed, features_sha, labels_sha",
        [
            (
                12_345,
                0,
                "c85ef37e3beecc5438e724bb9102a73576a9dce6b7d1890587780daa51c3c082",
                "b1812f05629834b006d250028b9b11f1d107306efa65db30d2f38b9dd97e4d3d",
            ),
            # Fewer samples than classes: the empty classes draw nothing.
            (
                7,
                2,
                "c6852ccfd01973e5a770b5e4e8e9e727c9134660908b6176ae7ffa93a1788d54",
                "954f18625f2c72f243ef1b26feb4f8ee2669fb9c83ca2dd44ae714671cd9932d",
            ),
        ],
    )
    def test_uneven_class_counts(self, n, seed, features_sha, labels_sha) -> None:
        dataset = generate_synthetic_mnist(n, seed=seed)
        assert _sha256(dataset.features) == features_sha
        assert _sha256(dataset.labels) == labels_sha


@pytest.fixture()
def shaping_threads(monkeypatch) -> set[int]:
    """The idents of the threads that shape the generated classes."""
    threads: set[int] = set()
    original = synthetic_mnist._shape

    def shape(job):
        threads.add(threading.get_ident())
        return original(job)

    monkeypatch.setattr(synthetic_mnist, "_shape", shape)
    return threads


class TestGoldenDigestsAtCpuBudget(TestGoldenDigests):
    """The golden digests, unedited, with the shaping and the test split
    on a second thread beside the draws."""

    @pytest.fixture(autouse=True)
    def _threaded(self, forced_cpu_budget, shaping_threads):
        yield
        assert shaping_threads - {threading.get_ident()}, (
            "generation ran on one thread"
        )


class TestGenerationThreads:
    def test_no_thread_outlives_generation(self, forced_cpu_budget):
        before = threading.active_count()
        load_synthetic_mnist(300, 100, seed=4)
        assert threading.active_count() == before

    def test_helper_error_surfaces_and_its_thread_ends(
        self, forced_cpu_budget, monkeypatch
    ):
        def fail(job):
            raise RuntimeError("shaping failed")

        monkeypatch.setattr(synthetic_mnist, "_shape", fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="shaping failed"):
            load_synthetic_mnist(300, 100, seed=4)
        assert threading.active_count() == before

    def test_budget_one_starts_no_thread(self, forced_cpu_budget, monkeypatch):
        def generate():
            train, test = load_synthetic_mnist(300, 100, seed=4)
            return train.features, train.labels, test.features, test.labels

        def refuse(self):
            raise AssertionError("generation at budget 1 must not start a thread")

        threaded = generate()
        monkeypatch.setattr(cpu, "_blas_threads", lambda: None)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        for serial, beside in zip(generate(), threaded):
            np.testing.assert_array_equal(serial, beside)
