"""Unit tests for the declarative fault models and plan serialisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.models import (
    BatteryFault,
    BurstLossFault,
    CorruptionFault,
    CrashFault,
    FaultPlan,
    GilbertElliottModel,
    StragglerFault,
    make_demo_plan,
    substream,
)


class TestSubstream:
    def test_distinct_labels_give_distinct_streams(self) -> None:
        a = substream(7, "dropout").random(8)
        b = substream(7, "resilience").random(8)
        assert not np.allclose(a, b)

    def test_same_labels_reproduce(self) -> None:
        a = substream(7, "channel", 3).random(8)
        b = substream(7, "channel", 3).random(8)
        np.testing.assert_array_equal(a, b)

    def test_string_labels_are_stable_not_salted(self) -> None:
        # Python's builtin hash() is salted per process; the substream
        # mapping must not be.  CRC-32 of "dropout" is a fixed constant.
        a = substream(0, "dropout").random()
        b = substream(0, "dropout").random()
        assert a == b


class TestGilbertElliott:
    def test_good_state_with_zero_loss_never_loses(self) -> None:
        model = GilbertElliottModel(p_enter_bad=0.0, p_exit_bad=1.0, loss_good=0.0)
        rng = np.random.default_rng(0)
        assert not any(model.attempt_lost(rng) for _ in range(200))

    def test_bursty_losses_cluster(self) -> None:
        model = GilbertElliottModel(
            p_enter_bad=0.05, p_exit_bad=0.2, loss_good=0.0, loss_bad=1.0
        )
        rng = np.random.default_rng(1)
        outcomes = [model.attempt_lost(rng) for _ in range(5000)]
        losses = np.array(outcomes)
        # Losses occur, and consecutive losses are far likelier than the
        # marginal rate (the burst signature).
        rate = losses.mean()
        assert 0 < rate < 1
        pairs = losses[:-1] & losses[1:]
        conditional = pairs.sum() / max(1, losses[:-1].sum())
        assert conditional > 2 * rate

    @pytest.mark.parametrize(
        "loss_good,loss_bad,expected",
        [
            (0.05, 0.8, 0.2375),
            # i.i.d. loss at rate p: both states lose with p, so the
            # chain's state changes nothing.
            (0.2, 0.2, 0.2),
        ],
        ids=["burst", "iid"],
    )
    def test_stationary_loss_matches_empirical_rate(
        self, loss_good: float, loss_bad: float, expected: float
    ) -> None:
        model = GilbertElliottModel(
            p_enter_bad=0.1,
            p_exit_bad=0.3,
            loss_good=loss_good,
            loss_bad=loss_bad,
        )
        assert model.stationary_loss == pytest.approx(expected, rel=1e-12)
        rng = np.random.default_rng(2)
        observed = np.mean([model.attempt_lost(rng) for _ in range(20000)])
        assert observed == pytest.approx(expected, abs=0.03)

    def test_rejects_absorbing_bad_state(self) -> None:
        with pytest.raises(ValueError, match="absorbing"):
            GilbertElliottModel(p_enter_bad=0.5, p_exit_bad=0.0, loss_bad=1.0)

    def test_rejects_out_of_range_probability(self) -> None:
        with pytest.raises(ValueError, match="p_enter_bad"):
            GilbertElliottModel(p_enter_bad=1.5, p_exit_bad=0.5)


class TestFaultWindows:
    def test_crash_window_is_half_open(self) -> None:
        fault = CrashFault(client_id=0, start_round=2, end_round=5)
        assert not fault.active(1)
        assert fault.active(2)
        assert fault.active(4)
        assert not fault.active(5)

    def test_permanent_crash(self) -> None:
        fault = CrashFault(client_id=0, start_round=3)
        assert fault.active(1000)

    def test_rejects_empty_window(self) -> None:
        with pytest.raises(ValueError, match="end_round"):
            CrashFault(client_id=0, start_round=5, end_round=5)

    def test_straggler_rejects_speedup(self) -> None:
        with pytest.raises(ValueError, match="slowdown"):
            StragglerFault(client_id=0, start_round=0, slowdown=0.5)

    def test_battery_validation(self) -> None:
        with pytest.raises(ValueError, match="capacity_j"):
            BatteryFault(client_id=0, capacity_j=0.0)
        with pytest.raises(ValueError, match="initial_fraction"):
            BatteryFault(client_id=0, capacity_j=10.0, initial_fraction=0.0)

    def test_corruption_validation(self) -> None:
        with pytest.raises(ValueError, match="mode"):
            CorruptionFault(client_id=0, mode="zeros")
        with pytest.raises(ValueError, match="probability"):
            CorruptionFault(client_id=0, probability=0.0)

    def test_burst_loss_validates_channel_eagerly(self) -> None:
        with pytest.raises(ValueError, match="absorbing"):
            BurstLossFault(client_id=0, p_exit_bad=0.0, loss_bad=1.0)


class TestFaultPlan:
    def _plan(self) -> FaultPlan:
        return FaultPlan(
            seed=13,
            faults=(
                CrashFault(client_id=1, start_round=2, end_round=6),
                StragglerFault(client_id=2, start_round=0, slowdown=3.0),
                BurstLossFault(client_id=3, loss_bad=0.7),
                BatteryFault(client_id=4, capacity_j=25.0, per_round_j=5.0),
                CorruptionFault(client_id=5, probability=0.5, mode="inf"),
            ),
        )

    def test_queries(self) -> None:
        plan = self._plan()
        assert len(plan) == 5
        assert plan.max_client_id == 5
        assert [f.kind for f in plan.for_client(2)] == ["straggler"]
        assert len(plan.of_kind("crash")) == 1
        assert plan.for_client(99) == ()

    def test_json_round_trip_preserves_every_fault(self) -> None:
        plan = self._plan()
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan

    def test_file_round_trip(self, tmp_path) -> None:
        plan = self._plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_from_dict_rejects_unknown_kind(self) -> None:
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_dict(
                {"seed": 0, "faults": [{"kind": "meteor", "client_id": 0}]}
            )

    def test_from_dict_rejects_malformed_entry(self) -> None:
        with pytest.raises(ValueError, match="malformed fault plan"):
            FaultPlan.from_dict({"seed": 0, "faults": [{"client_id": 0}]})

    def test_empty_plan(self) -> None:
        plan = FaultPlan()
        assert len(plan) == 0
        assert plan.max_client_id == -1
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestDemoPlan:
    def test_contains_three_fault_kinds(self) -> None:
        plan = make_demo_plan(20, seed=3)
        kinds = {f.kind for f in plan}
        assert kinds == {"crash", "straggler", "burst_loss"}

    def test_fault_classes_are_disjoint(self) -> None:
        plan = make_demo_plan(20, seed=3)
        crash_ids = {f.client_id for f in plan.of_kind("crash")}
        slow_ids = {f.client_id for f in plan.of_kind("straggler")}
        loss_ids = {f.client_id for f in plan.of_kind("burst_loss")}
        assert not (crash_ids & slow_ids)
        assert not (crash_ids & loss_ids)
        assert not (slow_ids & loss_ids)

    def test_deterministic_in_seed(self) -> None:
        assert make_demo_plan(16, seed=5) == make_demo_plan(16, seed=5)
        assert make_demo_plan(16, seed=5) != make_demo_plan(16, seed=6)
