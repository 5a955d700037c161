"""End-to-end observability: instrumented runs reconcile with ground truth.

These are the acceptance tests of the ``repro.obs`` subsystem: a
:class:`FederatedTrainer` run and a full :class:`HardwarePrototype` run
each produce an event log and a metrics snapshot whose counters match
the quantities the code under test reports itself — and with no observer
attached, every public API behaves unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.acs import ACSSolver
from repro.core.convergence import ConvergenceBound
from repro.core.energy_model import EnergyParams
from repro.core.objective import EnergyObjective
from repro.data.dataset import Dataset
from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.fl.model import LogisticRegressionConfig
from repro.fl.partition import partition_iid
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig
from repro.obs import EventLog, Observer
from repro.sim.engine import Simulator

_CONFIG = LogisticRegressionConfig(n_features=8, n_classes=3)


def _linear_task(n: int, seed: int = 0) -> Dataset:
    projection = np.random.default_rng(424242).normal(size=(8, 3))
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 8))
    scores = features @ projection
    labels = np.argmax(scores + rng.normal(0, 0.5, size=scores.shape), axis=1)
    return Dataset(features, labels, 3)


def _observed_trainer(observer: Observer | None, **config_kwargs) -> FederatedTrainer:
    train = _linear_task(240)
    test = _linear_task(80, seed=99)
    partitions = partition_iid(train, 5, np.random.default_rng(1))
    clients = build_clients(partitions, _CONFIG)
    defaults = dict(
        n_rounds=6,
        participants_per_round=2,
        local_epochs=3,
        sgd=SGDConfig(learning_rate=0.5, decay=1.0),
    )
    defaults.update(config_kwargs)
    return FederatedTrainer(
        clients=clients,
        config=FederatedConfig(**defaults),
        train_eval=train,
        test_eval=test,
        observer=observer,
    )


@pytest.mark.telemetry_smoke
class TestTrainerTelemetry:
    def test_counters_reconcile_with_trainer_totals(self) -> None:
        observer = Observer()
        trainer = _observed_trainer(observer)
        trainer.run()
        metrics = observer.metrics
        assert metrics.value("fl.gradient_steps") == trainer.total_gradient_steps
        assert metrics.value("fl.upload_bytes") == trainer.total_upload_bytes
        assert metrics.value("fl.uploads") == trainer.total_uploads
        assert metrics.value("fl.rounds") == len(trainer.history)
        assert metrics.value("fl.aggregations") == len(trainer.history)

    def test_event_stream_ordered_per_round(self) -> None:
        observer = Observer()
        trainer = _observed_trainer(observer, n_rounds=3)
        trainer.run()
        categories = [e.category for e in observer.events]
        per_round = [
            "round.start",
            "client.train",
            "client.upload",
            "client.train",
            "client.upload",
            "server.aggregate",
            "round.end",
        ]
        assert categories == per_round * 3
        rounds = [e.fields["round"] for e in observer.events.filter("round.start")]
        assert rounds == [0, 1, 2]

    def test_round_end_payload_matches_history_records(self) -> None:
        observer = Observer()
        trainer = _observed_trainer(observer, n_rounds=4)
        trainer.run()
        ends = observer.events.filter("round.end")
        records = trainer.history.to_records()
        for event, record in zip(ends, records):
            payload = {k: v for k, v in event.fields.items() if k != "duration_s"}
            assert payload == record

    def test_span_tree_nests_rounds(self) -> None:
        observer = Observer()
        _observed_trainer(observer, n_rounds=2).run()
        rounds = observer.tracer.find("round")
        assert len(rounds) == 2
        assert all(span.finished for span in rounds)
        assert [span.attributes["round"] for span in rounds] == [0, 1]

    def test_dropout_events_flagged_and_uploads_reconcile(self) -> None:
        observer = Observer()
        trainer = _observed_trainer(
            observer, n_rounds=8, dropout_probability=0.5, seed=3
        )
        trainer.run()
        trains = observer.events.filter("client.train")
        uploads = observer.events.filter("client.upload")
        dropped = sum(1 for e in trains if e.fields["dropped"])
        assert len(uploads) == len(trains) - dropped
        assert observer.metrics.value("fl.uploads") == trainer.total_uploads

    def test_timing_histograms_recorded(self) -> None:
        observer = Observer()
        trainer = _observed_trainer(observer, n_rounds=2)
        trainer.run()
        histogram = observer.metrics.histogram("profile.client_train_s")
        assert histogram.count == 2 * trainer.config.participants_per_round
        assert histogram.count == len(observer.events.filter("client.train"))
        assert observer.metrics.histogram("profile.aggregate_s").count == 2



@pytest.mark.telemetry_smoke
class TestSimulatorTelemetry:
    """The Simulator keeps its own telemetry: ``trace`` and ``events_processed``."""

    def test_events_processed_counter_reconciles(self) -> None:
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda s: None, label="tick")
        sim.run()
        assert sim.events_processed == 3
        assert len(sim.trace) == 3

    def test_trace_labels_bridged_with_sim_time(self) -> None:
        sim = Simulator()
        sim.schedule(1.5, lambda s: None, label="round-start")
        sim.schedule(2.0, lambda s: None)  # unlabelled: counted, not traced
        sim.run()
        assert sim.events_processed == 2
        assert sim.trace == [(1.5, "round-start")]

    def test_cancelled_events_not_counted(self) -> None:
        sim = Simulator()
        sim.schedule(1.0, lambda s: None, label="keep")
        drop = sim.schedule(0.5, lambda s: None, label="drop")
        sim.cancel(drop)
        sim.run()
        assert sim.events_processed == 1
        assert sim.trace == [(1.0, "keep")]

@pytest.mark.telemetry_smoke
class TestPrototypeTelemetry:
    @pytest.fixture(scope="class")
    def observed_run(self):
        train = generate_synthetic_mnist(240, seed=3)
        test = generate_synthetic_mnist(60, seed=4)
        observer = Observer()
        prototype = HardwarePrototype(
            train, test, PrototypeConfig(n_servers=4), observer=observer
        )
        result = prototype.run(participants=2, epochs=3, n_rounds=5)
        return observer, prototype, result

    def test_phase_energy_counters_reconcile(self, observed_run) -> None:
        observer, _, result = observed_run
        assert observer.metrics.sum_values("energy.joules") == pytest.approx(
            result.total_energy_j, abs=1e-9
        )
        snapshot = observer.metrics.snapshot()
        for phase in ("downloading", "training", "uploading"):
            assert snapshot[f"energy.joules{{phase={phase}}}"] > 0

    def test_full_stack_event_log(self, observed_run) -> None:
        observer, _, result = observed_run
        categories = observer.events.categories()
        assert categories["round.start"] == result.rounds
        assert categories["prototype.round"] == result.rounds
        assert categories["client.train"] == 2 * result.rounds
        # Each round starts at the simulated clock so far; the last one
        # ends at the reported wall clock.
        rounds = observer.events.filter("prototype.round")
        clock = 0.0
        for event in rounds:
            assert event.sim_time_s == clock
            clock += event.fields["duration_s"]
        last = rounds[-1]
        assert (
            last.sim_time_s + last.fields["duration_s"] == result.wall_clock_s
        )

    def test_per_round_energy_in_events(self, observed_run) -> None:
        observer, _, result = observed_run
        per_round = [
            e.fields["energy_j"] for e in observer.events.filter("prototype.round")
        ]
        np.testing.assert_allclose(per_round, result.energy_per_round_j)

    def test_jsonl_dump_round_trips(self, observed_run, tmp_path) -> None:
        observer, _, _ = observed_run
        path = tmp_path / "telemetry.jsonl"
        n_before = len(observer.events)
        observer.dump_jsonl(path)
        restored = EventLog.load_jsonl(path)
        assert len(restored) == n_before + 1  # + metrics.snapshot line
        assert restored[-1].category == "metrics.snapshot"
        assert "energy.joules{phase=training}" in restored[-1].fields["metrics"]


class TestACSTelemetry:
    def test_iteration_events_match_iterates(self, default_objective) -> None:
        observer = Observer()
        solver = ACSSolver(default_objective, observer=observer)
        result = solver.solve()
        events = observer.events.filter("acs.iteration")
        assert len(events) == result.n_iterations
        np.testing.assert_allclose(
            [e.fields["objective"] for e in events],
            [it.objective_value for it in result.iterates],
        )
        assert observer.metrics.value("acs.objective") == pytest.approx(
            result.objective_value
        )
        solve_events = observer.events.filter("acs.solve")
        assert len(solve_events) == 1
        assert solve_events[0].fields["converged"] == result.converged


class TestDisabledObservability:
    """With no observer every public API works unchanged."""

    @pytest.mark.parametrize("observer", [None])
    def test_trainer_identical_without_observer(self, observer) -> None:
        baseline = _observed_trainer(None, n_rounds=3).run()
        observed = _observed_trainer(observer, n_rounds=3).run()
        np.testing.assert_array_equal(baseline.losses, observed.losses)
        np.testing.assert_array_equal(baseline.accuracies, observed.accuracies)

    def test_observed_trainer_matches_unobserved(self) -> None:
        baseline = _observed_trainer(None, n_rounds=3).run()
        observed = _observed_trainer(Observer(), n_rounds=3).run()
        np.testing.assert_array_equal(baseline.losses, observed.losses)

    def test_observed_prototype_energy_identical(self) -> None:
        train = generate_synthetic_mnist(160, seed=3)
        test = generate_synthetic_mnist(40, seed=4)
        config = PrototypeConfig(n_servers=4)
        plain = HardwarePrototype(train, test, config).run(
            participants=2, epochs=2, n_rounds=3
        )
        observed = HardwarePrototype(
            train, test, config, observer=Observer()
        ).run(participants=2, epochs=2, n_rounds=3)
        assert plain.total_energy_j == observed.total_energy_j
        assert plain.wall_clock_s == observed.wall_clock_s
