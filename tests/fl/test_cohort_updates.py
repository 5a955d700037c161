"""The array-native round: one cohort matrix from kernel to ledger.

Pins that :class:`~repro.fl.client.CohortUpdates` aggregates to the
bits of the per-update list path it replaced, that the finite check
names the same clients, that dropout drawn as one vector consumes the
stream as per-client scalar draws did, that evaluation rows held
transposed or scored from stored float32 blocks give the widened rows'
bits, that short runs copy no evaluation set, that crash resampling at
population scale keeps its draws, and that a fault-free population
round stacks nothing and builds no :class:`LocalUpdate`.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.faults.injector import FaultInjector
from repro.faults.models import CorruptionFault, FaultPlan, make_demo_plan, substream
from repro.faults.policies import ResilienceConfig, RetryPolicy
from repro.fl.async_training import AsyncConfig, AsyncFederatedTrainer
from repro.fl.client import CohortUpdates, LocalUpdate
from repro.fl.compression import TopKCompressor
from repro.fl.history_io import history_to_json
from repro.fl.mlp import MLPConfig
from repro.fl.model import (
    _EVAL_BLOCK_ROWS,
    _HELD_TRANSPOSE_MIN_EVALUATIONS,
    LogisticRegressionConfig,
    LogisticRegressionModel,
    _swaps_forward,
    _widened_row_blocks,
    evaluation_rows,
)
from repro.fl.partition import partition_iid
from repro.fl.population import AggregationTree, PopulationState, train_cohort
from repro.fl.server import (
    Coordinator,
    NonFiniteUpdateError,
    aggregate_mean,
    aggregate_weighted,
)
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig
from repro.hardware.raspberry_pi import PiTimingConfig
from repro.iot.network import IoTNetwork

pytestmark = pytest.mark.population_smoke

_CONFIG = LogisticRegressionConfig(n_features=8, n_classes=3)


def _task(n: int, seed: int, n_features: int = 8) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(n, n_features)), rng.integers(0, 3, size=n), 3
    )


# 61 samples over 12 clients: sizes 5 and 6, so the cohort spans two
# n_k groups and the kernel scatters one of them.
_PARTITIONS = partition_iid(_task(61, 0), 12, np.random.default_rng(1))
_COHORT = [7, 2, 11, 0, 5, 9, 3, 10, 1, 6, 8, 4]


def _cohort() -> CohortUpdates:
    state = PopulationState.from_datasets(_PARTITIONS, _CONFIG)
    anchor = np.random.default_rng(2).normal(
        scale=0.1, size=_CONFIG.n_parameters
    )
    return train_cohort(state, _COHORT, anchor, epochs=2, learning_rate=0.3)


def _listed(cohort: CohortUpdates, rows) -> list[LocalUpdate]:
    """The rows as the independent update objects the list path took."""
    return [
        LocalUpdate(
            client_id=int(cohort.client_ids[r]),
            parameters=cohort.parameters[r].copy(),
            n_samples=int(cohort.n_samples[r]),
            epochs=int(cohort.epochs[r]),
            gradient_steps=int(cohort.gradient_steps[r]),
            final_local_loss=float(cohort.losses[r]),
        )
        for r in rows
    ]


class TestCarrierAggregation:
    """The carrier's reductions equal the list path's, bit for bit."""

    @staticmethod
    def _stacked(updates: list[LocalUpdate]) -> np.ndarray:
        return np.stack([u.parameters for u in updates])

    @pytest.mark.parametrize(
        "rows",
        [
            list(range(12)),  # the whole cohort, in participant order
            [4, 0, 9, 2, 7, 11, 1],  # a kept subset in arrival order
        ],
    )
    def test_mean_weighted_and_tree(self, rows):
        cohort = _cohort()
        kept = cohort.take(rows)
        updates = _listed(cohort, rows)
        stacked = self._stacked(updates)
        np.testing.assert_array_equal(
            aggregate_mean(kept), stacked.mean(axis=0)
        )
        weights = np.array([u.n_samples for u in updates], dtype=float)
        np.testing.assert_array_equal(
            aggregate_weighted(kept),
            (weights[:, None] * stacked).sum(axis=0) / weights.sum(),
        )
        for tiers in (1, 3, 5):
            np.testing.assert_array_equal(
                AggregationTree(tiers).fold_updates(kept),
                AggregationTree(tiers).fold(stacked),
            )
        # A list of updates is wrapped once and takes the same path.
        np.testing.assert_array_equal(
            aggregate_mean(updates), aggregate_mean(kept)
        )

    def test_take_all_in_order_is_the_carrier(self):
        cohort = _cohort()
        assert cohort.take(list(range(len(cohort)))) is cohort
        assert cohort.take([1, 0] + list(range(2, 12))) is not cohort

    def test_rows_follow_participant_order(self):
        cohort = _cohort()
        assert cohort.client_ids.tolist() == _COHORT
        by_id = {u.client_id: u for u in cohort}
        state = PopulationState.from_datasets(_PARTITIONS, _CONFIG)
        anchor = np.random.default_rng(2).normal(
            scale=0.1, size=_CONFIG.n_parameters
        )
        for update in train_cohort(
            state, sorted(_COHORT), anchor, epochs=2, learning_rate=0.3
        ):
            np.testing.assert_array_equal(
                update.parameters, by_id[update.client_id].parameters
            )
            assert update.final_local_loss == by_id[update.client_id].final_local_loss

    def test_overselection_aggregates_first_arrivals(self, monkeypatch):
        seen: list[CohortUpdates] = []
        aggregate = Coordinator.aggregate

        def spy(self, updates):
            seen.append(updates)
            return aggregate(self, updates)

        monkeypatch.setattr(Coordinator, "aggregate", spy)
        trainer = FederatedTrainer(
            clients=build_clients(_PARTITIONS, _CONFIG),
            config=FederatedConfig(
                n_rounds=3,
                participants_per_round=4,
                overselection=3,
                local_epochs=1,
                sgd=SGDConfig(learning_rate=0.3),
                dropout_probability=0.2,
                backend="population",
            ),
            train_eval=_task(40, 5),
            test_eval=_task(20, 6),
            completion_ranker=lambda _, selected: selected[::-1],
        )
        trainer.run()
        assert len(seen) == 3
        for record, kept in zip(trainer.history.records, seen):
            arrivals = record.participants[::-1]
            expected = [c for c in arrivals if c in record.aggregated]
            assert kept.client_ids.tolist() == expected
            assert 1 <= len(expected) <= 4


class TestNonFinite:
    @pytest.mark.parametrize(
        "aggregation, tiers",
        [("mean", 0), ("weighted", 0), ("mean", 3)],
    )
    def test_poisoned_rows_name_their_clients(self, aggregation, tiers):
        cohort = _cohort()
        # rows -> (column, value) poisoned in each; +inf and -inf in one
        # column make that column's mean NaN.
        cases = {
            (3,): [(slice(None), np.nan)],
            (1, 8): [(0, np.inf), (0, -np.inf)],
            (10,): [(-1, np.inf)],
        }
        for rows, poisons in cases.items():
            parameters = cohort.parameters.copy()
            for row, (column, value) in zip(rows, poisons):
                parameters[row, column] = value
            poisoned = CohortUpdates(
                cohort.client_ids,
                parameters,
                cohort.n_samples,
                cohort.losses,
                cohort.gradient_steps,
                cohort.epochs,
                cohort.durations_s,
            )
            coordinator = Coordinator(
                _CONFIG,
                aggregation=aggregation,
                aggregation_tree=AggregationTree(tiers) if tiers else None,
            )
            before = coordinator.global_parameters
            expected = [int(cohort.client_ids[r]) for r in rows]
            with pytest.raises(NonFiniteUpdateError) as error:
                coordinator.aggregate(poisoned)
            assert list(error.value.client_ids) == expected
            # The list path names the same clients, in the same order.
            with pytest.raises(NonFiniteUpdateError) as listed:
                coordinator.aggregate(list(poisoned))
            assert listed.value.client_ids == error.value.client_ids
            assert coordinator.rounds_completed == 0
            np.testing.assert_array_equal(coordinator.global_parameters, before)


class TestDropoutVector:
    @pytest.mark.parametrize("k", [1, 7, 1000])
    def test_vector_equals_scalar_draws(self, k):
        vector_rng = substream(9, "dropout")
        scalar_rng = substream(9, "dropout")
        np.testing.assert_array_equal(
            vector_rng.random(k), [scalar_rng.random() for _ in range(k)]
        )
        # Both leave the stream at the same place.
        assert vector_rng.random() == scalar_rng.random()

    def test_trainer_draws_one_per_participant(self):
        trainer = FederatedTrainer(
            clients=build_clients(_PARTITIONS, _CONFIG),
            config=FederatedConfig(
                n_rounds=1,
                participants_per_round=4,
                local_epochs=1,
                dropout_probability=0.3,
                seed=4,
            ),
            train_eval=_task(40, 5),
            test_eval=_task(20, 6),
        )
        reference = substream(4, "dropout")
        for k in (5, 12):
            expected = [reference.random() < 0.3 for _ in range(k)]
            assert trainer._draw_dropouts(k).tolist() == expected


class TestEvaluationRows:
    """Held-transposed and stored float32 evaluation rows give the
    widened rows' bits."""

    # 784 x 10: 127 rows stay under the small-GEMM cutoff, 128 swap;
    # float32 rows are widened in blocks of _EVAL_BLOCK_ROWS, a tail
    # under 128 rows joining the block before it.
    @pytest.mark.parametrize(
        "n",
        [
            100,
            127,
            128,
            129,
            1000,
            _EVAL_BLOCK_ROWS + 1,
            _EVAL_BLOCK_ROWS + 127,
            _EVAL_BLOCK_ROWS + 128,
            2 * _EVAL_BLOCK_ROWS + 5,
        ],
    )
    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(LogisticRegressionConfig(), id="softmax"),
            pytest.param(LogisticRegressionConfig(activation="sigmoid"), id="sigmoid"),
            pytest.param(LogisticRegressionConfig(l2=0.1), id="softmax_l2"),
        ],
    )
    def test_loss_and_accuracy_bits(self, n, config):
        rng = np.random.default_rng(n)
        features = rng.random((n, 784), dtype=np.float32)
        labels = rng.integers(0, 10, size=n)
        model = config.build()
        model.set_parameters(rng.normal(scale=0.05, size=config.n_parameters))
        widened = features.astype(np.float64)
        rows = evaluation_rows(features, config, evaluations=10)
        assert rows.dtype == np.float64
        np.testing.assert_array_equal(rows, widened)
        # Held transposed exactly where the forward swaps.
        assert rows.T.flags.c_contiguous == (n >= 128)
        # The loss as predict_proba over the whole widened matrix gives it.
        picked = model.predict_proba(widened)[np.arange(n), labels]
        expected = float(-np.mean(np.log(np.maximum(picked, 1e-12))))
        if config.l2:
            expected += 0.5 * config.l2 * float(np.sum(model.weights**2))
        logits = model.logits(widened)
        for layout in (rows, widened, features):
            assert model.loss(layout, labels) == expected
            assert model.accuracy(layout, labels) == float(
                np.mean(np.argmax(logits, axis=-1) == labels)
            )
            np.testing.assert_array_equal(
                model.predict(layout), np.argmax(logits, axis=-1)
            )

    # 32 x 5 swaps from 6 251 rows, more than one _EVAL_BLOCK_ROWS;
    # 784 x 12 is too wide to swap, so it is never split.
    @pytest.mark.parametrize(
        "d, width, n, n_blocks",
        [
            (784, 10, 2 * _EVAL_BLOCK_ROWS + 5, 2),
            (32, 5, 2 * 6251 + 5, 2),
            (784, 12, 3000, 1),
        ],
    )
    def test_row_blocks_swap_as_the_whole_forward_does(
        self, d, width, n, n_blocks
    ):
        config = LogisticRegressionConfig(n_features=d, n_classes=width)
        rng = np.random.default_rng(n)
        features = rng.random((n, d), dtype=np.float32)
        labels = rng.integers(0, width, size=n)
        model = config.build()
        model.set_parameters(rng.normal(scale=0.3, size=config.n_parameters))
        blocks = _widened_row_blocks(features, width, lambda rows, _: rows)
        assert len(blocks) == n_blocks
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == n
        for rows in blocks:
            assert _swaps_forward(
                rows.stop - rows.start, d, width
            ) == _swaps_forward(n, d, width)
        widened = features.astype(np.float64)
        assert model.loss(features, labels) == model.loss(widened, labels)
        np.testing.assert_array_equal(
            model.predict(features), np.argmax(model.logits(widened), axis=-1)
        )

    @pytest.mark.parametrize("n", [127, 128, 1025, 1151, 2053, 40_000])
    def test_cpu_budget_keeps_bits(self, n, at_budgets, forced_cpu_budget):
        config = LogisticRegressionConfig()
        rng = np.random.default_rng(n)
        features = rng.random((n, 784), dtype=np.float32)
        labels = rng.integers(0, 10, size=n)
        model = config.build()
        model.set_parameters(rng.normal(scale=0.05, size=config.n_parameters))
        held = evaluation_rows(features, config, evaluations=10)
        for rows in (held, features):
            single, forced = at_budgets(
                lambda: (
                    model.loss(rows, labels),
                    model.accuracy(rows, labels),
                    model.predict(rows),
                )
            )
            assert forced[:2] == single[:2]
            np.testing.assert_array_equal(forced[2], single[2])
        # The held transpose splits into near-even slices, each swapped.
        slices = _widened_row_blocks(held, 10, lambda rows, _: rows)
        assert len(slices) == max(1, min(forced_cpu_budget, n // 128))

    @pytest.mark.parametrize(
        "evaluations", [1, _HELD_TRANSPOSE_MIN_EVALUATIONS - 1]
    )
    def test_few_evaluations_keep_stored_rows(self, evaluations):
        features = np.random.default_rng(0).random((500, 784), dtype=np.float32)
        config = LogisticRegressionConfig()
        held = evaluation_rows(features, config, _HELD_TRANSPOSE_MIN_EVALUATIONS)
        assert held.T.flags.c_contiguous
        assert evaluation_rows(features, config, evaluations) is features

    def test_mlp_keeps_widened_rows(self):
        features = np.random.default_rng(0).random((500, 784), dtype=np.float32)
        for evaluations in (1, 10):
            rows = evaluation_rows(features, MLPConfig(), evaluations)
            assert rows.flags.c_contiguous and rows.dtype == np.float64


def _paper_task(n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.random((n, 784), dtype=np.float32), rng.integers(0, 10, size=n), 10
    )


class TestShortRunsCopyNoEvaluationSet:
    """A run with too few evaluations to hold the training set
    transposed scores it from its stored float32 rows: the traced peak
    of the run stays under the stored set's own size, where a float64
    copy of it alone would be twice that."""

    _TRAIN = _paper_task(8_000, 1)
    _TEST = _paper_task(1_000, 2)
    _CLIENTS = partition_iid(_paper_task(240, 3), 4, np.random.default_rng(4))

    def _traced_peak(self, run) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def _evaluated_rows(self, monkeypatch) -> list[int]:
        rows: list[int] = []
        original = LogisticRegressionModel.loss

        def loss(model, features, labels):
            rows.append(features.shape[0])
            assert features.dtype == np.float32
            return original(model, features, labels)

        monkeypatch.setattr(LogisticRegressionModel, "loss", loss)
        return rows

    def test_one_round_trainer(self, monkeypatch):
        trainer = FederatedTrainer(
            clients=build_clients(self._CLIENTS, LogisticRegressionConfig()),
            config=FederatedConfig(
                n_rounds=1, participants_per_round=2, local_epochs=1
            ),
            train_eval=self._TRAIN,
            test_eval=self._TEST,
        )
        rows = self._evaluated_rows(monkeypatch)
        peak = self._traced_peak(trainer.run)
        assert rows == [8_000]
        assert peak < self._TRAIN.features.nbytes

    def test_short_async_trainer(self, monkeypatch):
        trainer = AsyncFederatedTrainer(
            clients=build_clients(self._CLIENTS, LogisticRegressionConfig()),
            config=AsyncConfig(max_updates=4, local_epochs=1, eval_every=2),
            train_eval=self._TRAIN,
            test_eval=self._TEST,
            duration_fn=lambda client_id: 1.0 + client_id,
        )
        rows = self._evaluated_rows(monkeypatch)
        peak = self._traced_peak(trainer.run)
        assert rows and set(rows) == {8_000}
        assert peak < self._TRAIN.features.nbytes


def test_crash_resampling_at_population_scale():
    """N=10^4, K=10^3 with a crash plan: the digest recorded before
    crash resampling used sets, so its candidate pool and its
    replacement draws are unchanged."""
    n, k = 10_000, 1_000
    config = LogisticRegressionConfig(n_features=4, n_classes=3)
    rng = np.random.default_rng(11)
    train = Dataset(
        rng.normal(size=(2 * n, 4)), rng.integers(0, 3, size=2 * n), 3
    )
    test = Dataset(rng.normal(size=(50, 4)), rng.integers(0, 3, size=50), 3)
    plan = make_demo_plan(
        n,
        seed=3,
        crash_fraction=0.3,
        straggler_fraction=0.0,
        loss_fraction=0.0,
        horizon=6,
    )
    trainer = FederatedTrainer(
        clients=build_clients(
            partition_iid(train, n, np.random.default_rng(12)), config
        ),
        config=FederatedConfig(
            n_rounds=4,
            participants_per_round=k,
            local_epochs=1,
            sgd=SGDConfig(learning_rate=0.5),
            seed=5,
            backend="population",
        ),
        train_eval=train,
        test_eval=test,
        fault_injector=FaultInjector(plan, n),
    )
    trainer.run()
    assert [len(r.replacements) for r in trainer.resilience_log] == [
        0,
        144,
        304,
        322,
    ]
    digest = hashlib.sha256()
    for report in trainer.resilience_log:
        digest.update(
            repr((report.selected, report.crashed, report.replacements)).encode()
        )
    digest.update(trainer.coordinator.global_parameters.tobytes())
    digest.update(history_to_json(trainer.history).encode())
    assert digest.hexdigest() == (
        "c77e412b12c377c055a3d82d72b078aca8726e0154d38753b5addcf20b929576"
    )


class TestLedgerBits:
    """The fleet's columns price rounds to the per-call bits.

    The heterogeneous digest was recorded when every round called each
    participant's ``round_timing`` and ``phase_energies``; the columns
    reproduce it.  The jitter digest was re-recorded when a jittered
    round came to draw one timing per participant, shared by the
    over-selection ranker, the energy bill and the round's duration
    (it used to draw once for the ranker and again for the bill).
    The fault, deadline, IoT, fog-tier and compressor digests were
    recorded while the prototype still drove its rounds through the
    discrete-event simulator and priced retries, backoff and IoT
    collection outside the ledger.
    """

    CASES = {
        "heterogeneous": (
            {"heterogeneity": 0.3},
            {},
            "83bf3c56c19e6a0776abd6836904c28b3a77a35c9991bf415e65252aaf09053a",
        ),
        "jitter-overselection": (
            {"timing": PiTimingConfig(jitter_fraction=0.1)},
            {"overselection": 3},
            "879a320581ca526db14f254459711f719170040e5ece8512235ec289744b7c6d",
        ),
        # Retries with backoff, crash resampling, failed uploads and
        # rejected corrupt payloads: every futile-work price.
        "faults-resilience": (
            {},
            {
                "fault_plan": FaultPlan(
                    seed=3,
                    faults=make_demo_plan(
                        30,
                        3,
                        crash_fraction=0.2,
                        straggler_fraction=0.2,
                        loss_fraction=0.4,
                        horizon=4,
                    ).faults
                    + tuple(
                        CorruptionFault(client_id=c, probability=0.5)
                        for c in range(0, 30, 7)
                    ),
                ),
                "resilience": ResilienceConfig(
                    retry=RetryPolicy(max_retries=1), upload_timeout_s=30.0
                ),
            },
            (
                "ba095502d9507385991e2eeb6cc138cd"
                "1637b0c872ec45c52999f0fa7d73c04b"
            ),
        ),
        # Slowed stragglers miss the deadline, which also caps each
        # round's duration.
        "round-deadline": (
            {},
            {
                "fault_plan": make_demo_plan(30, 1, horizon=4, slowdown=30.0),
                "resilience": ResilienceConfig(round_deadline_s=0.1),
            },
            (
                "8cc75dad1edb5856f225d8de36754f39"
                "073f5284406271237ef43acfc140cbfe"
            ),
        ),
        "iot": (
            {"include_iot": True},
            {},
            "e28c3a536dac36140729de68e8847ffd90381a2f3e9be2ef28b4893bad66ce2a",
        ),
        "aggregation-tiers": (
            {"aggregation_tiers": 2},
            {},
            "b585009c602146cea6a976d9e03e416152cdd5df0c4e1001c0136285cf526321",
        ),
        "compressor": (
            {},
            {"update_compressor": TopKCompressor(0.1)},
            "5279dbfc8e926efdaf1359b7167ae318c9650de7926902bb891f990a0a13914a",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digest(self, case):
        config, run, expected = self.CASES[case]
        train, test = load_synthetic_mnist(n_train=3000, n_test=500, seed=1)
        prototype = HardwarePrototype(
            train,
            test,
            PrototypeConfig(n_servers=30, backend="population", **config),
            iot_network=IoTNetwork.homogeneous(30, devices_per_cluster=3),
        )
        result = prototype.run(participants=10, epochs=2, n_rounds=4, **run)
        digest = hashlib.sha256()
        digest.update(np.asarray(result.energy_per_round_j).tobytes())
        digest.update(
            repr(
                (
                    result.total_energy_j,
                    result.wall_clock_s,
                    result.aggregation_energy_j,
                    result.wasted_energy_j,
                    result.degraded_rounds,
                    result.iot_energy_j,
                )
            ).encode()
        )
        digest.update(history_to_json(result.history).encode())
        assert digest.hexdigest() == expected


class TestLedgerBitsAtCpuBudget(TestLedgerBits):
    """The ledger digests, unedited, with threaded lane and row blocks."""

    @pytest.fixture(autouse=True)
    def _threaded(self, forced_cpu_budget):
        pass


class TestNoPerClientObjects:
    """A fault-free population round stacks nothing, builds no update."""

    @pytest.fixture
    def spies(self, monkeypatch):
        calls = {"stack": 0, "LocalUpdate": 0}
        stack = np.stack

        def counting_stack(*args, **kwargs):
            calls["stack"] += 1
            return stack(*args, **kwargs)

        init = LocalUpdate.__init__

        def counting_init(self, *args, **kwargs):
            calls["LocalUpdate"] += 1
            init(self, *args, **kwargs)

        def arm():
            monkeypatch.setattr(np, "stack", counting_stack)
            monkeypatch.setattr(LocalUpdate, "__init__", counting_init)

        return calls, arm

    def test_trainer_round(self, spies):
        calls, arm = spies
        partitions = partition_iid(_task(400, 7), 40, np.random.default_rng(3))
        trainer = FederatedTrainer(
            clients=build_clients(partitions, _CONFIG),
            config=FederatedConfig(
                n_rounds=3,
                participants_per_round=25,
                local_epochs=2,
                backend="population",
            ),
            train_eval=_task(200, 8),
            test_eval=_task(100, 9),
        )
        arm()
        trainer.run()
        assert len(trainer.history) == 3
        assert calls == {"stack": 0, "LocalUpdate": 0}

    def test_prototype_round(self, spies, monkeypatch):
        calls, arm = spies
        train = _task(600, 10)
        prototype = HardwarePrototype(
            train,
            _task(100, 11),
            PrototypeConfig(n_servers=30, model=_CONFIG, backend="population"),
        )
        run_round = FederatedTrainer.run_round

        def armed_run_round(self):
            # Set-up (the population stacks) is done; count from here,
            # through the prototype's energy ledger after each round.
            arm()
            return run_round(self)

        monkeypatch.setattr(FederatedTrainer, "run_round", armed_run_round)
        result = prototype.run(participants=12, epochs=2, n_rounds=3)
        assert result.rounds == 3
        assert calls == {"stack": 0, "LocalUpdate": 0}
