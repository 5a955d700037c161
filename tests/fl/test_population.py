"""Population-engine acceptance suite (million-client backend).

The population backend must be a drop-in replacement for the sequential
reference: same cohorts, same update order, same aggregated parameters
(within ``atol=1e-10``; bit-identical to its deprecated ``batched``
spelling).  The suite sweeps seeds, K, E, FedProx, dropout,
over-selection, and an active fault plan; checks cohort-order
invariance of :func:`train_cohort`; pins the fog-tier aggregation fold
to the flat mean; and checks that ``auto`` is a pure function of the
spec and the CPU count.
"""

from __future__ import annotations

import builtins
import pathlib
import sys

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.faults.injector import FaultInjector
from repro.faults.models import make_demo_plan
from repro.faults.policies import ResilienceConfig, RetryPolicy
from repro.fl.client import LocalUpdate
from repro.fl.engine import (
    AUTO_BACKEND,
    POOL_MIN_WORK,
    PopulationEngine,
    SequentialEngine,
    create_engine,
    resolve_backend,
)
from repro.fl.mlp import MLPConfig
from repro.fl.model import LogisticRegressionConfig
from repro.fl.partition import partition_iid
from repro.fl import population
from repro.fl.population import (
    AggregationTree,
    PopulationState,
    train_cohort,
)
from repro.fl.sampling import FloydSampler
from repro.fl.server import Coordinator, aggregate_mean
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients
from repro.obs.observer import Observer

pytestmark = pytest.mark.population_smoke

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
# population state exercises its size-grouping path every round.
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
    try:
        trainer.run()
    finally:
        trainer.close()
    return (
        trainer.coordinator.global_parameters,
        trainer.history,
        list(trainer.resilience_log),
    )


def _assert_equivalent(reference, candidate, atol: float = 1e-10) -> None:
    params_ref, history_ref, reports_ref = reference
    params_new, history_new, reports_new = candidate
    np.testing.assert_allclose(params_new, params_ref, rtol=0, atol=atol)
    assert len(history_ref) == len(history_new)
    for rec_ref, rec_new in zip(history_ref.records, history_new.records):
        assert rec_ref.round_index == rec_new.round_index
        assert rec_ref.participants == rec_new.participants
        assert rec_ref.aggregated == rec_new.aggregated
        assert rec_ref.degraded == rec_new.degraded
        assert rec_ref.train_loss == pytest.approx(
            rec_new.train_loss, abs=atol
        )
    assert reports_ref == reports_new


class TestPopulationEquivalence:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("participants,epochs", [(1, 1), (3, 4), (5, 1)])
    def test_plain_fedavg(self, seed: int, participants: int, epochs: int):
        reference = _run(
            "sequential",
            seed=seed,
            participants_per_round=participants,
            local_epochs=epochs,
        )
        candidate = _run(
            "population",
            seed=seed,
            participants_per_round=participants,
            local_epochs=epochs,
        )
        _assert_equivalent(reference, candidate)

    def test_fedprox_and_l2(self):
        regularised = LogisticRegressionConfig(
            n_features=8, n_classes=3, l2=0.01
        )
        kwargs = dict(
            proximal_mu=0.05,
            model_config=regularised,
            sgd=SGDConfig(learning_rate=0.4),
        )
        reference = _run("sequential", **kwargs)
        candidate = _run("population", **kwargs)
        _assert_equivalent(reference, candidate)

    def test_dropout_and_overselection(self):
        kwargs = dict(dropout_probability=0.3, overselection=2, seed=3)
        reference = _run("sequential", **kwargs)
        candidate = _run("population", **kwargs)
        _assert_equivalent(reference, candidate)

    def test_active_fault_plan(self):
        reference = _run("sequential", with_faults=True, n_rounds=10, seed=5)
        candidate = _run("population", with_faults=True, n_rounds=10, seed=5)
        _assert_equivalent(reference, candidate)
        assert candidate[2], "fault plan produced no resilience reports"

    def test_bitwise_identical_to_batched(self):
        """Population shares the batched kernel: results match exactly."""
        batched = _run("batched", seed=2, participants_per_round=4)
        population = _run("population", seed=2, participants_per_round=4)
        np.testing.assert_array_equal(batched[0], population[0])

    def test_float32_dtype_close(self):
        reference = _run("sequential", seed=1)
        candidate = _run("population", seed=1, population_dtype="float32")
        # float32 compute, float64 aggregation: small but non-zero delta.
        np.testing.assert_allclose(
            candidate[0], reference[0], rtol=0, atol=1e-4
        )

    def test_population_rounds_counted(self):
        observer = Observer()
        _run("population", observer=observer, n_rounds=6)
        assert observer.metrics.value("engine.population_rounds") == 6

    def test_minibatch_falls_back_to_sequential(self):
        kwargs = dict(sgd=SGDConfig(learning_rate=0.3, batch_size=16))
        reference = _run("sequential", **kwargs)
        observer = Observer()
        candidate = _run("population", observer=observer, **kwargs)
        _assert_equivalent(reference, candidate, atol=0.0)
        with pytest.raises(KeyError):
            observer.metrics.value("engine.population_rounds")

    def test_auto_backend_equivalent(self):
        reference = _run("sequential", seed=4)
        candidate = _run(AUTO_BACKEND, seed=4)
        _assert_equivalent(reference, candidate)


class TestPopulationState:
    def test_from_datasets_roundtrip(self):
        state = PopulationState.from_datasets(_PARTITIONS, _CONFIG)
        assert state.n_clients == _N_CLIENTS
        for client_id, dataset in enumerate(_PARTITIONS):
            n = len(dataset.labels)
            assert state.n_samples[client_id] == n
            group = state.groups[n]
            (row,) = state.rows_of(np.array([client_id]))
            assert group.client_ids[row] == client_id
            np.testing.assert_array_equal(
                group.features[row], dataset.features
            )
            np.testing.assert_array_equal(group.labels[row], dataset.labels)

    def test_synthesize_shapes_and_dtype(self):
        state = PopulationState.synthesize(
            64, n_features=6, n_classes=4, samples_per_client=3, seed=1
        )
        assert state.n_clients == 64
        assert int(state.n_samples.sum()) == 64 * 3
        f32 = PopulationState.synthesize(
            16, n_features=6, n_classes=4, dtype=np.float32
        )
        assert f32.dtype == np.float32

    def test_rejects_gapped_ids(self):
        group_cls = type(
            PopulationState.synthesize(2, seed=0).groups[
                next(iter(PopulationState.synthesize(2, seed=0).groups))
            ]
        )
        good = PopulationState.synthesize(4, seed=0)
        (n, group), = good.groups.items()
        bad = group_cls(
            client_ids=group.client_ids + 2,  # ids 2..5, not 0..3
            features=group.features,
            labels=group.labels,
        )
        with pytest.raises(ValueError):
            PopulationState({n: bad}, good.model_config)


class TestTrainCohort:
    def _state_and_anchor(self):
        state = PopulationState.from_datasets(_PARTITIONS, _CONFIG)
        anchor = _CONFIG.build().get_parameters()
        return state, anchor

    def test_update_order_follows_input_ids(self):
        state, anchor = self._state_and_anchor()
        ordered = train_cohort(
            state, [1, 3, 5], anchor, epochs=2, learning_rate=0.5
        )
        shuffled = train_cohort(
            state, [5, 1, 3], anchor, epochs=2, learning_rate=0.5
        )
        assert [u.client_id for u in ordered] == [1, 3, 5]
        assert [u.client_id for u in shuffled] == [5, 1, 3]
        by_id = {u.client_id: u.parameters for u in shuffled}
        for update in ordered:
            np.testing.assert_array_equal(
                update.parameters, by_id[update.client_id]
            )

    def test_matches_sequential_client(self):
        state, anchor = self._state_and_anchor()
        clients = build_clients(_PARTITIONS, _CONFIG)
        for client_id in (0, 4, 7):
            expected = clients[client_id].train(
                anchor, epochs=3, learning_rate=0.4
            )
            (actual,) = train_cohort(
                state, [client_id], anchor, epochs=3, learning_rate=0.4
            )
            np.testing.assert_allclose(
                actual.parameters, expected.parameters, rtol=0, atol=1e-10
            )
            assert actual.n_samples == expected.n_samples


_PAPER_MODEL = LogisticRegressionConfig(n_features=784, n_classes=10)


def _float32_partitions(n_clients: int, n: int) -> list[Dataset]:
    rng = np.random.default_rng(n)
    return [
        Dataset(
            rng.random((n, 784), dtype=np.float32),
            rng.integers(0, 10, size=n),
            10,
        )
        for _ in range(n_clients)
    ]


class TestLaneBlocks:
    """Lane blocks and stored-dtype stacks never change a bit."""

    _COHORT = [5, 0, 3, 8, 1, 2, 7, 6, 4]

    def _train(self, state, monkeypatch, budget):
        monkeypatch.setattr(
            "repro.fl.population._LANE_BLOCK_BYTES", budget
        )
        anchor = np.random.default_rng(3).normal(
            scale=0.01, size=_PAPER_MODEL.n_parameters
        )
        updates = train_cohort(
            state,
            self._COHORT,
            anchor,
            epochs=3,
            learning_rate=0.3,
            proximal_mu=0.1,
        )
        return (
            np.stack([u.parameters for u in updates]),
            np.array([u.final_local_loss for u in updates]),
        )

    # n=4 runs every GEMM below the small-matrix cutoff, n=130 above it.
    @pytest.mark.parametrize("n", [4, 130])
    def test_block_size_invariant(self, n: int, monkeypatch):
        state = PopulationState.from_datasets(
            _float32_partitions(len(self._COHORT), n), _PAPER_MODEL
        )
        lane_bytes = (n + population._LANE_WEIGHT_ARRAYS * 10) * 784 * 8
        one_lane, whole = (
            self._train(state, monkeypatch, budget)
            for budget in (1, 1 << 40)
        )
        # 4 lanes per block: 9 members split 4 + 4 + 1.
        uneven = self._train(state, monkeypatch, 4 * lane_bytes)
        for candidate in (whole, uneven):
            np.testing.assert_array_equal(candidate[0], one_lane[0])
            np.testing.assert_array_equal(candidate[1], one_lane[1])

    @pytest.mark.parametrize("n", [4, 130])
    def test_float32_stack_matches_float64_stack(self, n: int, monkeypatch):
        partitions = _float32_partitions(len(self._COHORT), n)
        stored32 = PopulationState.from_datasets(partitions, _PAPER_MODEL)
        stored64 = PopulationState.from_datasets(
            [
                Dataset(p.features.astype(np.float64), p.labels, 10)
                for p in partitions
            ],
            _PAPER_MODEL,
        )
        assert stored32.groups[n].features.dtype == np.float32
        assert stored32.dtype == stored64.dtype == np.float64
        budget = 4 * n * 784 * 8
        for actual, expected in zip(
            self._train(stored32, monkeypatch, budget),
            self._train(stored64, monkeypatch, budget),
        ):
            np.testing.assert_array_equal(actual, expected)
        assert stored32.nbytes == pytest.approx(
            stored64.nbytes / 2, rel=0.01
        )


class TestCpuBudgetBits:
    """Lane blocks trained on the CPU budget's threads keep every bit."""

    @staticmethod
    def _train(state, cohort, epochs=2):
        anchor = np.random.default_rng(3).normal(
            scale=0.01, size=state.model_config.n_parameters
        )
        updates = train_cohort(
            state, cohort, anchor, epochs=epochs, learning_rate=0.3
        )
        return updates.parameters, updates.losses

    @pytest.mark.parametrize(
        "n_clients, n, dtype, cohort",
        [
            # One- and four-sample lanes: 21 and 19 lanes a block.
            (300, 1, np.float64, np.arange(0, 300, 2)),
            (300, 4, np.float64, np.arange(300)[::-1]),
            (300, 4, np.float32, np.arange(1, 300, 3)),
            # Duplicate ids, unsorted, in one cohort.
            (60, 4, np.float64, np.array([7, 3, 7, 59, 0, 3, 7] * 9)),
        ],
    )
    def test_synthetic_lanes(self, at_budgets, n_clients, n, dtype, cohort):
        state = PopulationState.synthesize(
            n_clients,
            n_features=784,
            n_classes=10,
            samples_per_client=n,
            seed=n,
            dtype=dtype,
        )
        single, forced = at_budgets(lambda: self._train(state, cohort))
        for expected, actual in zip(single, forced):
            np.testing.assert_array_equal(actual, expected)

    def test_paper_shape_float32_stack(self, at_budgets):
        # 3 000 x 784 float64 per lane: every block is one lane.
        state = PopulationState.from_datasets(
            _float32_partitions(4, 3000), _PAPER_MODEL
        )
        assert state.groups[3000].features.dtype == np.float32
        single, forced = at_budgets(
            lambda: self._train(state, [2, 0, 3, 1], epochs=3)
        )
        for expected, actual in zip(single, forced):
            np.testing.assert_array_equal(actual, expected)


def _record_builds(monkeypatch) -> list[str]:
    """The calling module of every ``model_config.build()`` from now on."""
    callers: list[str] = []
    build = LogisticRegressionConfig.build

    def recording_build(self):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return build(self)

    monkeypatch.setattr(LogisticRegressionConfig, "build", recording_build)
    return callers


class TestNoUnusedModel:
    def test_build_clients_builds_no_model(self, monkeypatch):
        callers = _record_builds(monkeypatch)
        clients = build_clients(_PARTITIONS, _CONFIG)
        assert len(clients) == _N_CLIENTS
        assert callers == []

    def test_population_run_builds_no_client_model(self, monkeypatch):
        callers = _record_builds(monkeypatch)
        _run("population")
        assert "repro.fl.client" not in callers
        # The recorder does see clients that train themselves.
        _run("sequential")
        assert "repro.fl.client" in callers


class TestAggregationTree:
    def _updates(self, k: int = 12) -> list[LocalUpdate]:
        rng = np.random.default_rng(5)
        return [
            LocalUpdate(
                client_id=i,
                parameters=rng.normal(size=_CONFIG.n_parameters),
                n_samples=40,
                epochs=1,
                gradient_steps=1,
                final_local_loss=0.1,
            )
            for i in range(k)
        ]

    def test_fold_matches_flat_mean(self):
        updates = self._updates()
        flat = aggregate_mean(updates)
        for tiers in (1, 3, 4, 12, 100):
            folded = AggregationTree(tiers).fold_updates(updates)
            np.testing.assert_allclose(folded, flat, rtol=0, atol=1e-12)

    def test_fan_in(self):
        tree = AggregationTree(4)
        assert tree.fan_in(12) == 4
        assert tree.fan_in(3) == 3
        assert tree.fan_in(1) == 1

    def test_coordinator_with_tree(self):
        updates = self._updates(6)
        flat = Coordinator(_CONFIG)
        tiered = Coordinator(_CONFIG, aggregation_tree=AggregationTree(3))
        np.testing.assert_allclose(
            tiered.aggregate(updates),
            flat.aggregate(updates),
            rtol=0,
            atol=1e-12,
        )

    def test_tree_requires_mean_rule(self):
        with pytest.raises(ValueError, match="mean"):
            Coordinator(
                _CONFIG,
                aggregation="weighted",
                aggregation_tree=AggregationTree(2),
            )


class TestPopulationEngineFallback:
    def test_minibatch_config_falls_back(self):
        clients = build_clients(_PARTITIONS, _CONFIG)
        config = FederatedConfig(
            n_rounds=1,
            participants_per_round=1,
            local_epochs=1,
            sgd=SGDConfig(learning_rate=0.3, batch_size=8),
            backend="population",
        )
        for backend in ("population", "batched", AUTO_BACKEND):
            engine = create_engine(backend, clients, config)
            assert isinstance(engine, SequentialEngine)

    def test_rejects_non_vectorizable_config(self):
        clients = build_clients(_PARTITIONS, _CONFIG)
        config = FederatedConfig(
            n_rounds=1,
            participants_per_round=1,
            local_epochs=1,
            sgd=SGDConfig(learning_rate=0.3, batch_size=8),
            backend="population",
        )
        with pytest.raises(ValueError, match="full-batch"):
            PopulationEngine(clients, config)


class TestFloydSampler:
    def test_selects_sorted_unique_in_range(self):
        sampler = FloydSampler(1000, 10, seed=3)
        for round_index in range(5):
            selected = sampler.select(round_index)
            assert len(selected) == 10
            assert len(set(selected.tolist())) == 10
            assert np.all(np.diff(selected) > 0)
            assert selected.min() >= 0 and selected.max() < 1000

    def test_stateless_and_deterministic(self):
        a = FloydSampler(500, 20, seed=9)
        b = FloydSampler(500, 20, seed=9)
        # Query out of order: selection depends only on (seed, round).
        np.testing.assert_array_equal(a.select(3), b.select(3))
        np.testing.assert_array_equal(a.select(0), b.select(0))
        assert not np.array_equal(a.select(0), a.select(1))

    def test_full_population(self):
        sampler = FloydSampler(6, 6, seed=0)
        np.testing.assert_array_equal(sampler.select(0), np.arange(6))


def _resolve_auto(
    available_cpus: int,
    *,
    model_config=_CONFIG,
    participants: int = 5,
    epochs: int = 2,
    **config_kwargs,
) -> str:
    clients = build_clients(_PARTITIONS, model_config)
    config = FederatedConfig(
        n_rounds=1,
        participants_per_round=participants,
        local_epochs=epochs,
        backend=AUTO_BACKEND,
        **config_kwargs,
    )
    return resolve_backend(
        AUTO_BACKEND, clients, config, available_cpus=available_cpus
    )


# An MLP on 8 features needs K*E = POOL_MIN_WORK / 8 to reach the pool.
_POOL_EPOCHS = -(-POOL_MIN_WORK // (8 * _N_CLIENTS))
_MLP = MLPConfig(n_features=8, n_hidden=4, n_classes=3)


class TestAutoSelection:
    def test_vectorized_small_population(self):
        assert _resolve_auto(1) == "population"

    def test_vectorized_single_participant(self):
        assert _resolve_auto(1, participants=1) == "population"

    def test_vectorized_large_population(self):
        assert _resolve_auto(64, participants=_N_CLIENTS, epochs=16) == (
            "population"
        )

    def test_single_cpu_never_pool(self):
        assert (
            _resolve_auto(
                1,
                model_config=_MLP,
                participants=_N_CLIENTS,
                epochs=_POOL_EPOCHS,
            )
            == "sequential"
        )

    def test_pool_when_measured_profitable(self):
        assert (
            _resolve_auto(
                2,
                model_config=_MLP,
                participants=_N_CLIENTS,
                epochs=_POOL_EPOCHS,
            )
            == "pool"
        )

    def test_no_profitable_row_never_pool(self):
        # Below the measured crossover work the pool cannot pay.
        assert (
            _resolve_auto(
                64,
                model_config=_MLP,
                participants=_N_CLIENTS,
                epochs=_POOL_EPOCHS - 1,
            )
            == "sequential"
        )

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_auto_reads_no_file(self, cpus: int, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("backend selection must not read files")

        monkeypatch.setattr(pathlib.Path, "read_text", refuse)
        monkeypatch.setattr(builtins, "open", refuse)
        for participants, epochs in ((1, 1), (4, 2), (_N_CLIENTS, 64)):
            assert (
                _resolve_auto(cpus, participants=participants, epochs=epochs)
                == "population"
            )
        non_vectorizable = (
            {"model_config": _MLP},
            {"sgd": SGDConfig(learning_rate=0.3, batch_size=8)},
        )
        for kwargs in non_vectorizable:
            for epochs in (1, _POOL_EPOCHS):
                resolved = _resolve_auto(
                    cpus, participants=_N_CLIENTS, epochs=epochs, **kwargs
                )
                assert resolved in ("sequential", "pool")
                if cpus == 1:
                    assert resolved == "sequential"

    def test_trainer_resolves_auto_once(self):
        clients = build_clients(_PARTITIONS, _CONFIG)
        trainer = FederatedTrainer(
            clients=clients,
            config=FederatedConfig(
                n_rounds=1,
                participants_per_round=2,
                local_epochs=1,
                backend=AUTO_BACKEND,
            ),
            train_eval=_TRAIN,
            test_eval=_TEST,
        )
        assert trainer.resolved_backend == "population"
        trainer.close()
