"""Execution-engine equivalence suite (ISSUE 3 acceptance tests).

Every backend must be a drop-in replacement for the sequential
reference: ``batched`` within ``atol=1e-10`` (bit-identical in
practice), ``pool`` (a spelling of sequential) bit-identical.  The
suite sweeps seeds, K, E, FedProx, dropout, over-selection, and an
active fault plan with resilience policies, comparing final
parameters, full histories, resilience reports, and prototype energy.
"""

from __future__ import annotations

import hashlib
import multiprocessing

import numpy as np
import pytest

from repro.campaign.spec import RunSpec
from repro.data.dataset import Dataset
from repro.faults.injector import FaultInjector
from repro.faults.models import make_demo_plan
from repro.faults.policies import ResilienceConfig, RetryPolicy
from repro.fl.engine import (
    BACKENDS,
    BatchedEngine,
    SequentialEngine,
    create_engine,
)
from repro.fl.history_io import history_to_json
from repro.fl.model import LogisticRegressionConfig
from repro.fl.partition import partition_iid
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig
from repro.obs.observer import Observer

pytestmark = pytest.mark.perf_smoke

_CONFIG = LogisticRegressionConfig(n_features=8, n_classes=3)
_N_CLIENTS = 8


def _linear_task(n: int, seed: int = 0) -> Dataset:
    projection = np.random.default_rng(424242).normal(size=(8, 3))
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 8))
    scores = features @ projection
    labels = np.argmax(scores + rng.normal(0, 0.5, size=scores.shape), axis=1)
    return Dataset(features, labels, 3)


# 317 samples over 8 clients -> two distinct partition sizes, so the
# batched engine exercises its size-grouping path every round.
_TRAIN = _linear_task(317)
_TEST = _linear_task(100, seed=99)
_PARTITIONS = partition_iid(_TRAIN, _N_CLIENTS, np.random.default_rng(1))


def _run(
    backend: str,
    with_faults: bool = False,
    observer: Observer | None = None,
    model_config: LogisticRegressionConfig = _CONFIG,
    **config_kwargs,
):
    """Train with ``backend`` and return (final_params, history, reports)."""
    defaults = dict(
        n_rounds=8,
        participants_per_round=3,
        local_epochs=2,
        sgd=SGDConfig(learning_rate=0.5, decay=0.99),
        backend=backend,
    )
    defaults.update(config_kwargs)
    clients = build_clients(_PARTITIONS, model_config)
    kwargs = {}
    if with_faults:
        plan = make_demo_plan(
            _N_CLIENTS,
            seed=13,
            crash_fraction=0.25,
            loss_fraction=0.3,
            loss_bad=0.95,
        )
        kwargs["fault_injector"] = FaultInjector(plan, _N_CLIENTS)
        kwargs["resilience"] = ResilienceConfig(
            retry=RetryPolicy(max_retries=1), min_quorum=1
        )
    trainer = FederatedTrainer(
        clients=clients,
        config=FederatedConfig(**defaults),
        train_eval=_TRAIN,
        test_eval=_TEST,
        observer=observer,
        **kwargs,
    )
    trainer.run()
    return (
        trainer.coordinator.global_parameters,
        trainer.history,
        list(trainer.resilience_log),
    )


def _assert_equivalent(reference, candidate, exact: bool) -> None:
    params_ref, history_ref, reports_ref = reference
    params_new, history_new, reports_new = candidate
    if exact:
        np.testing.assert_array_equal(params_ref, params_new)
    else:
        np.testing.assert_allclose(params_new, params_ref, rtol=0, atol=1e-10)
    assert len(history_ref) == len(history_new)
    for rec_ref, rec_new in zip(history_ref.records, history_new.records):
        if exact:
            assert rec_ref == rec_new
        else:
            assert rec_ref.round_index == rec_new.round_index
            assert rec_ref.participants == rec_new.participants
            assert rec_ref.aggregated == rec_new.aggregated
            assert rec_ref.degraded == rec_new.degraded
            assert rec_ref.train_loss == pytest.approx(
                rec_new.train_loss, abs=1e-10
            )
            assert rec_ref.test_accuracy == rec_new.test_accuracy
    assert reports_ref == reports_new


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("participants,epochs", [(1, 1), (3, 4), (5, 1)])
    def test_plain_fedavg(self, seed: int, participants: int, epochs: int):
        reference = _run(
            "sequential",
            seed=seed,
            participants_per_round=participants,
            local_epochs=epochs,
        )
        for backend in ("batched", "pool"):
            candidate = _run(
                backend,
                seed=seed,
                participants_per_round=participants,
                local_epochs=epochs,
            )
            _assert_equivalent(reference, candidate, exact=backend == "pool")

    @pytest.mark.parametrize("backend", ["batched", "pool"])
    def test_fedprox_and_l2(self, backend: str):
        regularised = LogisticRegressionConfig(n_features=8, n_classes=3, l2=0.01)
        kwargs = dict(
            proximal_mu=0.05,
            model_config=regularised,
            sgd=SGDConfig(learning_rate=0.4),
        )
        reference = _run("sequential", **kwargs)
        candidate = _run(backend, **kwargs)
        _assert_equivalent(reference, candidate, exact=backend == "pool")

    @pytest.mark.parametrize("backend", ["batched", "pool"])
    def test_dropout_and_overselection(self, backend: str):
        kwargs = dict(dropout_probability=0.3, overselection=2, seed=3)
        reference = _run("sequential", **kwargs)
        candidate = _run(backend, **kwargs)
        _assert_equivalent(reference, candidate, exact=backend == "pool")

    @pytest.mark.parametrize("backend", ["batched", "pool"])
    def test_active_fault_plan(self, backend: str):
        reference = _run("sequential", with_faults=True, n_rounds=10, seed=5)
        candidate = _run(backend, with_faults=True, n_rounds=10, seed=5)
        _assert_equivalent(reference, candidate, exact=backend == "pool")
        assert candidate[2], "fault plan produced no resilience reports"

    def test_pool_minibatch_bit_identical(self):
        kwargs = dict(sgd=SGDConfig(learning_rate=0.3, batch_size=16))
        reference = _run("sequential", **kwargs)
        candidate = _run("pool", **kwargs)
        _assert_equivalent(reference, candidate, exact=True)


class TestBatchedFallback:
    def test_minibatch_falls_back_to_sequential(self):
        """Minibatch SGD is not vectorizable; results must still match."""
        kwargs = dict(sgd=SGDConfig(learning_rate=0.3, batch_size=16))
        reference = _run("sequential", **kwargs)
        observer = Observer()
        candidate = _run("batched", observer=observer, **kwargs)
        _assert_equivalent(reference, candidate, exact=True)
        # The fallback path never increments the vectorized-round counter.
        with pytest.raises(KeyError):
            observer.metrics.value("engine.population_rounds")

    def test_batched_rounds_counted(self):
        observer = Observer()
        _run("batched", observer=observer, n_rounds=6)
        assert observer.metrics.value("engine.population_rounds") == 6

    def test_stack_cache_hits(self):
        observer = Observer()
        _run(
            "batched",
            observer=observer,
            n_rounds=8,
            participants_per_round=_N_CLIENTS,
        )
        # The group stacks are built once at construction, so every
        # round trains from the resident stacks.
        assert observer.metrics.value("engine.population_rounds") == 8


class TestEvalCache:
    def test_degraded_rounds_hit_eval_cache(self):
        """A skipped round leaves parameters untouched -> cached eval."""
        clients = build_clients(_PARTITIONS, _CONFIG)
        observer = Observer()
        trainer = FederatedTrainer(
            clients=clients,
            config=FederatedConfig(
                n_rounds=5, participants_per_round=2, local_epochs=1
            ),
            train_eval=_TRAIN,
            test_eval=_TEST,
            observer=observer,
            resilience=ResilienceConfig(min_quorum=5),  # unreachable quorum
        )
        trainer.run()
        assert all(record.degraded for record in trainer.history.records)
        assert trainer.coordinator.parameters_version == 0
        # First degraded round evaluates version 0; rounds 2..5 hit.
        assert observer.metrics.value("engine.cache_hits", cache="eval") == 4
        losses = trainer.history.losses
        assert all(loss == losses[0] for loss in losses)

    def test_parameters_version_tracks_aggregation(self):
        clients = build_clients(_PARTITIONS, _CONFIG)
        trainer = FederatedTrainer(
            clients=clients,
            config=FederatedConfig(
                n_rounds=4, participants_per_round=2, local_epochs=1
            ),
            train_eval=_TRAIN,
            test_eval=_TEST,
        )
        trainer.run()
        assert trainer.coordinator.parameters_version == 4


class TestEngineLifecycle:
    def test_backends_tuple(self):
        assert BACKENDS == ("sequential", "batched", "pool", "population")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            FederatedConfig(
                n_rounds=1,
                participants_per_round=1,
                local_epochs=1,
                backend="gpu",
            )
        clients = build_clients(_PARTITIONS, _CONFIG)
        config = FederatedConfig(
            n_rounds=1, participants_per_round=1, local_epochs=1
        )
        with pytest.raises(ValueError, match="backend must be one of"):
            create_engine("gpu", clients, config, None)

    def test_pool_runs_in_process(self):
        # "pool" is a spelling of the sequential engine: no child
        # process is started at any point of the run.
        before = set(multiprocessing.active_children())
        children = []

        def note_children(record) -> None:
            children.extend(set(multiprocessing.active_children()) - before)

        params = {}
        for backend in ("pool", "sequential"):
            trainer = FederatedTrainer(
                clients=build_clients(_PARTITIONS, _CONFIG),
                config=FederatedConfig(
                    n_rounds=2,
                    participants_per_round=3,
                    local_epochs=2,
                    backend=backend,
                ),
                train_eval=_TRAIN,
                test_eval=_TEST,
            )
            trainer.run(note_children)
            assert trainer.resolved_backend == backend
            params[backend] = trainer.coordinator.global_parameters
        assert children == []
        assert set(multiprocessing.active_children()) <= before
        np.testing.assert_array_equal(params["pool"], params["sequential"])

    def test_engine_factory_types(self):
        clients = build_clients(_PARTITIONS, _CONFIG)
        config = FederatedConfig(
            n_rounds=1, participants_per_round=1, local_epochs=1
        )
        assert isinstance(
            create_engine("sequential", clients, config, None), SequentialEngine
        )
        assert isinstance(
            create_engine("batched", clients, config, None), BatchedEngine
        )


class TestPrototypeBackends:
    @pytest.mark.parametrize("backend", ["batched", "pool"])
    def test_prototype_energy_identical(self, backend: str):
        """The measured-energy pipeline is backend-independent."""

        def measure(chosen: str):
            prototype = HardwarePrototype(
                _TRAIN,
                _TEST,
                PrototypeConfig(
                    n_servers=6,
                    model=_CONFIG,
                    sgd=SGDConfig(learning_rate=0.5, decay=0.99),
                    backend=chosen,
                ),
            )
            return prototype.run(participants=3, epochs=2, n_rounds=4)

        reference = measure("sequential")
        candidate = measure(backend)
        assert candidate.total_energy_j == pytest.approx(
            reference.total_energy_j, rel=1e-12
        )
        assert candidate.rounds == reference.rounds
        np.testing.assert_allclose(
            [r.train_loss for r in candidate.history.records],
            [r.train_loss for r in reference.history.records],
            rtol=0,
            atol=1e-10,
        )


class TestGoldenDigests:
    """Stored results of the vectorized spellings must never move.

    The backend name is hashed into ``RunSpec.key()``, so a finished
    store only resumes cleanly if every spelling keeps computing the
    exact bytes it computed when the key was minted.  The digests were
    recorded from the separate batched/population engines before they
    merged into one.
    """

    # name -> (backend, config overrides, params sha256, history sha256)
    CASES = {
        "batched": (
            "batched",
            {},
            "ad9132b60de91356cb145646c448cda63ec9918ac586a7d93f61fc2725b3459d",
            "b47cb206c4d58a0c5a6526976422810f22cf2fedc64c642a975a1a077361f5b9",
        ),
        "auto-k1": (
            "auto",
            {"participants_per_round": 1},
            "555b42a0f52cb86edd19036b626e53adb178145f3c574a810aaba8d3495b71b6",
            "343c0529acaf5f6256a9fbbbb8edccea8c3180f9c83bb1be5c3d7bee6104d680",
        ),
        "auto-k4": (
            "auto",
            {"participants_per_round": 4},
            "0560e7d86a4de25190b8e4e08299057499fa7b4e8d35aefc7347400f2ba998a6",
            "f046e5f983f58c580a071800e5146c8d676894eeb27292ab9748f0c84ad0349e",
        ),
        # "batched" and small-population "auto" ignore float32.
        "batched-float32": (
            "batched",
            {"population_dtype": "float32"},
            "ad9132b60de91356cb145646c448cda63ec9918ac586a7d93f61fc2725b3459d",
            "b47cb206c4d58a0c5a6526976422810f22cf2fedc64c642a975a1a077361f5b9",
        ),
        "auto-k4-float32": (
            "auto",
            {"participants_per_round": 4, "population_dtype": "float32"},
            "0560e7d86a4de25190b8e4e08299057499fa7b4e8d35aefc7347400f2ba998a6",
            "f046e5f983f58c580a071800e5146c8d676894eeb27292ab9748f0c84ad0349e",
        ),
        "population-float32": (
            "population",
            {"population_dtype": "float32"},
            "625021d900c7fce133892c4afd57806fd73b3267417ef35dfd85c215512c8c6f",
            "e982b73c30b5a7cdadd9176b5695bbe2c8d42a9b56d9af7bc8b7addbff7da87e",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digest(self, case: str):
        backend, overrides, params_sha, history_sha = self.CASES[case]
        params, history, _ = _run(backend, **overrides)
        assert hashlib.sha256(params.tobytes()).hexdigest() == params_sha
        assert (
            hashlib.sha256(history_to_json(history).encode()).hexdigest()
            == history_sha
        )

    def test_run_spec_keys(self):
        assert RunSpec(backend="batched").key() == "101462086ae3cf9b"
        assert RunSpec(backend="auto").key() == "285518ec1002fc32"
        assert RunSpec(backend="pool").key() == "e68aa65386ee519d"
        assert RunSpec(backend="sequential").key() == "19e37e62fc3dd66d"
        assert RunSpec(backend="population").key() == "3b5857064e774eb3"
