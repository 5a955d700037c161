"""Unit + integration tests for the MLP extension model."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.fl.history_io import history_to_json
from repro.fl.mlp import MLPConfig, MLPModel
from repro.fl.partition import partition_iid
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients
from repro.net.messages import model_download_message

_CONFIG = MLPConfig(n_features=6, n_hidden=8, n_classes=3, init_seed=7)


def _xor_like_task(n: int, seed: int = 0) -> Dataset:
    """A task logistic regression cannot solve but a small MLP can."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 6))
    labels = ((features[:, 0] > 0) ^ (features[:, 1] > 0)).astype(int) + (
        features[:, 2] > 1.0
    ).astype(int)
    return Dataset(features, labels, 3)


class TestConfig:
    def test_parameter_count(self) -> None:
        config = MLPConfig(n_features=784, n_hidden=64, n_classes=10)
        assert config.n_parameters == 784 * 64 + 64 + 64 * 10 + 10

    def test_parameter_bytes_for_messages(self) -> None:
        config = MLPConfig(n_features=10, n_hidden=4, n_classes=2)
        message = model_download_message(config)
        assert message.payload_bytes == config.n_parameters * 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_features": 0},
            {"n_hidden": 0},
            {"n_classes": 1},
            {"l2": -1.0},
        ],
    )
    def test_rejects_invalid(self, kwargs: dict) -> None:
        with pytest.raises(ValueError):
            MLPConfig(**kwargs)


class TestDeterministicInit:
    def test_build_is_reproducible(self) -> None:
        a = _CONFIG.build().get_parameters()
        b = _CONFIG.build().get_parameters()
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_init(self) -> None:
        other = MLPConfig(n_features=6, n_hidden=8, n_classes=3, init_seed=8)
        assert not np.array_equal(
            _CONFIG.build().get_parameters(), other.build().get_parameters()
        )

    def test_init_is_nonzero(self) -> None:
        # A zero-initialised MLP cannot break symmetry.
        assert np.abs(_CONFIG.build().get_parameters()).max() > 0


class TestParameters:
    def test_roundtrip(self) -> None:
        model = _CONFIG.build()
        flat = np.arange(_CONFIG.n_parameters, dtype=float) / 100.0
        model.set_parameters(flat)
        np.testing.assert_allclose(model.get_parameters(), flat)

    def test_set_rejects_wrong_shape(self) -> None:
        with pytest.raises(ValueError, match="parameters"):
            _CONFIG.build().set_parameters(np.zeros(3))

    def test_clone_independent(self) -> None:
        model = _CONFIG.build()
        clone = model.clone()
        clone.w1[0, 0] += 1.0
        assert model.w1[0, 0] != clone.w1[0, 0]


class TestGradient:
    def test_matches_finite_differences(self) -> None:
        rng = np.random.default_rng(0)
        config = MLPConfig(n_features=4, n_hidden=3, n_classes=3, l2=0.05, init_seed=1)
        model = config.build()
        features = rng.normal(size=(6, 4))
        # Keep pre-activations away from the ReLU kink for the check.
        labels = rng.integers(0, 3, size=6)
        analytic = model.gradient_flat(features, labels)
        base = model.get_parameters()
        eps = 1e-6
        numeric = np.zeros_like(analytic)
        for i in range(len(base)):
            plus, minus = base.copy(), base.copy()
            plus[i] += eps
            minus[i] -= eps
            model.set_parameters(plus)
            up = model.loss(features, labels)
            model.set_parameters(minus)
            down = model.loss(features, labels)
            numeric[i] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_sgd_step_decreases_loss(self) -> None:
        dataset = _xor_like_task(100)
        model = _CONFIG.build()
        before = model.loss(dataset.features, dataset.labels)
        for _ in range(10):
            model.sgd_step(dataset.features, dataset.labels, 0.5)
        assert model.loss(dataset.features, dataset.labels) < before


class TestExpressiveness:
    def test_mlp_solves_nonlinear_task(self) -> None:
        dataset = _xor_like_task(600)
        model = _CONFIG.build()
        for _ in range(800):
            model.sgd_step(dataset.features, dataset.labels, 0.5)
        assert model.accuracy(dataset.features, dataset.labels) > 0.85

    def test_probabilities_normalised(self) -> None:
        model = _CONFIG.build()
        probs = model.predict_proba(np.random.default_rng(0).normal(size=(5, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)


class TestFederatedIntegration:
    def test_fedavg_trains_mlp(self) -> None:
        train = _xor_like_task(600)
        test = _xor_like_task(200, seed=9)
        partitions = partition_iid(train, 4, np.random.default_rng(1))
        clients = build_clients(partitions, _CONFIG)
        trainer = FederatedTrainer(
            clients=clients,
            config=FederatedConfig(
                n_rounds=60,
                participants_per_round=4,
                local_epochs=5,
                sgd=SGDConfig(learning_rate=0.5, decay=1.0),
            ),
            train_eval=train,
            test_eval=test,
        )
        history = trainer.run()
        assert history.final_loss() < history.losses[0]
        assert history.final_accuracy() > 0.7

    def test_coordinator_initialises_from_factory(self) -> None:
        from repro.fl.server import Coordinator

        coordinator = Coordinator(_CONFIG)
        np.testing.assert_array_equal(
            coordinator.global_parameters, _CONFIG.build().get_parameters()
        )


_PAPER_MLP = MLPConfig()
_DIGEST_TRAIN, _DIGEST_TEST = load_synthetic_mnist(n_train=3_000, n_test=300, seed=4)


def _digest_run(n_partitions: int, batch_size: int | None = None):
    trainer = FederatedTrainer(
        clients=build_clients(
            partition_iid(_DIGEST_TRAIN, n_partitions, np.random.default_rng(2)),
            _PAPER_MLP,
        ),
        config=FederatedConfig(
            n_rounds=2,
            participants_per_round=3,
            local_epochs=2,
            sgd=SGDConfig(learning_rate=0.1, decay=0.99, batch_size=batch_size),
        ),
        train_eval=_DIGEST_TRAIN,
        test_eval=_DIGEST_TEST,
    )
    history = trainer.run()
    return trainer.coordinator.global_parameters, history


class TestGoldenDigests:
    """Training the paper-width MLP on float32 data must never move a bit.

    Recorded before the first layer's matmuls were routed through the
    logistic-regression GEMM helpers, with OpenBLAS's default threading
    on two cores.  The partitions straddle BLAS's small-matrix cutoff:
    1 000 and 100 rows are above it, and the last 8-row batch of
    ``batch_size=32`` is below it.
    """

    # name -> (partitions, batch size, params sha256, history sha256)
    CASES = {
        "1000-rows": (
            3,
            None,
            "03a4719e39883224b466ced59b13880b2441520fc12ce197e4a9e6dbc3adeb89",
            "0e22e829b7750f0166ede061211b3a9c58584528ce1a4cc38dc3d9739d0e481c",
        ),
        "100-rows": (
            30,
            None,
            "6ac679785a5b014a39a76cd86818501d6fcdd063bd4d5f8fb07733e4481fa70f",
            "d1038879bd26e07969c78f87bc6535e36c6c9a721793a833e8731e32391a97f6",
        ),
        "batch-32": (
            3,
            32,
            "096eea7d3d53b0f09d5b00da8af7071899482c0f3e3aefe206d68e621d3f0655",
            "9e2df436847a2cd27a0b36f2e40ac31ce9f1b87af486fa5064862faee1027765",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digest(self, case: str) -> None:
        n_partitions, batch_size, params_sha, history_sha = self.CASES[case]
        params, history = _digest_run(n_partitions, batch_size)
        assert hashlib.sha256(params.tobytes()).hexdigest() == params_sha
        assert (
            hashlib.sha256(history_to_json(history).encode()).hexdigest()
            == history_sha
        )
