"""The float32-storage / float64-compute dtype contract.

Every dataset in the pipeline stores its features as float32 (the
synthetic-MNIST generator and the IDX loader both do), while the model
computes in float64.  Each feature matrix is widened once by its owner
and the kernels only ever see float64.  The digests below pin the real
float32 path bit for bit; the golden digests in ``test_engine.py`` only
cover float64 data.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.synthetic_mnist import (
    generate_synthetic_mnist,
    load_synthetic_mnist,
)
from repro.fl.async_training import AsyncConfig, AsyncFederatedTrainer
from repro.fl.history_io import history_to_json
from repro.fl.model import LogisticRegressionConfig, LogisticRegressionModel
from repro.fl.partition import partition_iid
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients

pytestmark = pytest.mark.perf_smoke

_CONFIG = LogisticRegressionConfig()
_N_CLIENTS = 6
_TRAIN, _TEST = load_synthetic_mnist(n_train=1_200, n_test=300, seed=3)
_PARTITIONS = partition_iid(_TRAIN, _N_CLIENTS, np.random.default_rng(5))
# 100 rows per client, as in the campaign grid: below 128 rows BLAS sums
# in an order that depends on operand layout.
_SMALL_PARTITIONS = partition_iid(_TRAIN, 12, np.random.default_rng(5))
# 1 000 rows per client: above the row floor from which the sequential
# engine trains a full-batch cohort on the CPU budget's threads.
_LARGE_PARTITIONS = partition_iid(
    generate_synthetic_mnist(6_000, seed=3),
    _N_CLIENTS,
    np.random.default_rng(5),
)


def _run(backend: str, partitions=_PARTITIONS, **config_kwargs):
    defaults = dict(
        n_rounds=4,
        participants_per_round=3,
        local_epochs=2,
        sgd=SGDConfig(learning_rate=0.1, decay=0.99),
        backend=backend,
    )
    defaults.update(config_kwargs)
    trainer = FederatedTrainer(
        clients=build_clients(partitions, _CONFIG),
        config=FederatedConfig(**defaults),
        train_eval=_TRAIN,
        test_eval=_TEST,
    )
    trainer.run()
    return trainer.coordinator.global_parameters, trainer.history


def test_datasets_store_float32():
    """The digests below only pin the widening path if the data is float32."""
    assert _TRAIN.features.dtype == np.float32
    assert all(p.features.dtype == np.float32 for p in _PARTITIONS)


class TestFloat32GoldenDigests:
    """Training on float32-stored features must never move a bit.

    Recorded before the features were widened once per owner, when
    every matmul widened them on its own.
    """

    # name -> (backend, config overrides, params sha256, history sha256)
    CASES = {
        "sequential": (
            "sequential",
            {},
            "30a95b73771c43cd64ddd66188917b6a9d7353fb903fb49ff26656b49fdf796d",
            "978ad11df3df8d573848134caee58d80da19e67bf4cf343d6e67da4b9e9943ad",
        ),
        "sequential-minibatch": (
            "sequential",
            {"sgd": SGDConfig(learning_rate=0.1, decay=0.99, batch_size=32)},
            "1e79551691c77880744cb29ac89ce0b86dd01af369befb7ed54dcfad882e653e",
            "5390197859f39c7dfea67cd029b5550ecaf96c3209a69a231d6927cc1b06da95",
        ),
        "sequential-small-partitions": (
            "sequential",
            {"partitions": _SMALL_PARTITIONS},
            "d48b6be73e493fc4036b43f789a44cd100aa9666255b1e29f6b406f2f887a7c9",
            "3efe11d80a7f860b8d7d416fd69931bf761999704ac286767c8752717b2a7e24",
        ),
        "sequential-large-partitions": (
            "sequential",
            {"partitions": _LARGE_PARTITIONS},
            "b4cbd8b08f30b97f65510475eafe10cb81543bbacb99fc4252462484849ef876",
            "f38dd172b855145810a6314f69b79720c23a0e16a587f5fe1974942a33b0eea2",
        ),
        "pool": (
            "pool",
            {},
            "30a95b73771c43cd64ddd66188917b6a9d7353fb903fb49ff26656b49fdf796d",
            "978ad11df3df8d573848134caee58d80da19e67bf4cf343d6e67da4b9e9943ad",
        ),
        # The pool carries the sequential digests: it is a spelling of
        # the sequential engine.
        "pool-minibatch": (
            "pool",
            {"sgd": SGDConfig(learning_rate=0.1, decay=0.99, batch_size=32)},
            "1e79551691c77880744cb29ac89ce0b86dd01af369befb7ed54dcfad882e653e",
            "5390197859f39c7dfea67cd029b5550ecaf96c3209a69a231d6927cc1b06da95",
        ),
        "pool-small-partitions": (
            "pool",
            {"partitions": _SMALL_PARTITIONS},
            "d48b6be73e493fc4036b43f789a44cd100aa9666255b1e29f6b406f2f887a7c9",
            "3efe11d80a7f860b8d7d416fd69931bf761999704ac286767c8752717b2a7e24",
        ),
        "pool-large-partitions": (
            "pool",
            {"partitions": _LARGE_PARTITIONS},
            "b4cbd8b08f30b97f65510475eafe10cb81543bbacb99fc4252462484849ef876",
            "f38dd172b855145810a6314f69b79720c23a0e16a587f5fe1974942a33b0eea2",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digest(self, case: str):
        backend, overrides, params_sha, history_sha = self.CASES[case]
        params, history = _run(backend, **overrides)
        assert hashlib.sha256(params.tobytes()).hexdigest() == params_sha
        assert (
            hashlib.sha256(history_to_json(history).encode()).hexdigest()
            == history_sha
        )


class TestFloat32GoldenDigestsAtCpuBudget(TestFloat32GoldenDigests):
    """The golden digests, unedited, with threaded lane and row blocks
    and, above the row floor, threaded sequential clients."""

    @pytest.fixture(autouse=True)
    def _threaded(self, forced_cpu_budget):
        pass

    def test_large_partitions_train_on_threads(self, training_threads):
        self.test_digest("sequential-large-partitions")
        assert len(training_threads) > 1


def _run_async():
    trainer = AsyncFederatedTrainer(
        clients=build_clients(_PARTITIONS, _CONFIG),
        config=AsyncConfig(
            max_updates=8,
            local_epochs=2,
            sgd=SGDConfig(learning_rate=0.1, decay=0.99),
            eval_every=2,
        ),
        train_eval=_TRAIN,
        test_eval=_TEST,
        duration_fn=lambda client_id: 1.0 + 0.25 * client_id,
    )
    return trainer.run()


def test_async_digest():
    result = _run_async()
    assert hashlib.sha256(repr(result).encode()).hexdigest() == (
        "354a5498ffc1dfc27726f79e151cdaaa82f4dc4d907b69fee52c5f0f7ed8dcfe"
    )


class TestKernelsSeeFloat64:
    """No kernel call in a float32-data run receives float32 features."""

    @pytest.fixture
    def seen(self, monkeypatch):
        dtypes: list[tuple[str, np.dtype]] = []
        for name in ("logits", "forward_backward", "gradient"):
            original = getattr(LogisticRegressionModel, name)

            def wrapper(self, features, *args, _name=name, _original=original, **kw):
                dtypes.append((_name, features.dtype))
                for extra in (*args, *kw.values()):
                    if isinstance(extra, np.ndarray) and extra.ndim == 2:
                        dtypes.append((_name + ".features_t", extra.dtype))
                return _original(self, features, *args, **kw)

            monkeypatch.setattr(LogisticRegressionModel, name, wrapper)
        return dtypes

    @staticmethod
    def _assert_float64(seen, *names):
        called = {name for name, _ in seen}
        assert set(names) <= called
        assert {dtype for _, dtype in seen} == {np.dtype(np.float64)}

    def test_full_batch_training_and_evaluation(self, seen):
        _run("sequential")
        self._assert_float64(
            seen, "logits", "forward_backward", "forward_backward.features_t"
        )

    def test_minibatch_training(self, seen):
        _run(
            "sequential",
            sgd=SGDConfig(learning_rate=0.1, decay=0.99, batch_size=32),
        )
        self._assert_float64(seen, "logits", "gradient", "gradient.features_t")

    def test_fedprox_minibatch_training(self, seen):
        _run(
            "sequential",
            n_rounds=1,
            proximal_mu=0.1,
            sgd=SGDConfig(learning_rate=0.1, decay=0.99, batch_size=64),
        )
        self._assert_float64(seen, "logits", "gradient", "gradient.features_t")

    def test_async_training_and_evaluation(self, seen):
        _run_async()
        self._assert_float64(seen, "logits", "forward_backward")
