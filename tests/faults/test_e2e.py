"""End-to-end fault-injection acceptance test on the simulated testbed.

One seeded run injects three fault kinds (crash blackout, straggler,
bursty links) into the hardware prototype.  The run must complete
without raising, survive a two-round total blackout via quorum fallback
(degraded rounds), still reach the target accuracy, report the failure
cost through the observer, and be bit-identical when repeated.
"""

from __future__ import annotations

import pytest

from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.faults.models import (
    BatteryFault,
    BurstLossFault,
    CrashFault,
    FaultPlan,
    StragglerFault,
)
from repro.faults.policies import ResilienceConfig, RetryPolicy
from repro.fl.sgd import SGDConfig
from repro.hardware.prototype import (
    HardwarePrototype,
    PrototypeConfig,
    PrototypeResult,
)
from repro.obs import Observer

pytestmark = pytest.mark.fault_injection

_TARGET_ACCURACY = 0.75

# Three fault kinds: a total two-round blackout (every server down in
# rounds [1, 3) — no replacement pool, so the quorum cannot be met), a
# permanent straggler, and bursty uplinks on three servers.
_PLAN = FaultPlan(
    seed=21,
    faults=(
        *(CrashFault(client_id=c, start_round=1, end_round=3) for c in range(8)),
        StragglerFault(client_id=1, start_round=0, slowdown=3.0),
        *(
            BurstLossFault(
                client_id=c, p_enter_bad=0.3, p_exit_bad=0.4, loss_bad=0.85
            )
            for c in (2, 5, 7)
        ),
    ),
)

_RESILIENCE = ResilienceConfig(
    retry=RetryPolicy(max_retries=3),
    upload_timeout_s=30.0,
    round_deadline_s=120.0,
    min_quorum=2,
)


def _run() -> tuple[PrototypeResult, Observer]:
    train = generate_synthetic_mnist(800, seed=0)
    test = generate_synthetic_mnist(200, seed=1)
    config = PrototypeConfig(
        n_servers=8, sgd=SGDConfig(learning_rate=0.05, decay=0.995), seed=0
    )
    observer = Observer()
    prototype = HardwarePrototype(train, test, config, observer=observer)
    result = prototype.run(
        participants=3,
        epochs=20,
        n_rounds=60,
        target_accuracy=_TARGET_ACCURACY,
        fault_plan=_PLAN,
        resilience=_RESILIENCE,
    )
    return result, observer


@pytest.fixture(scope="module")
def faulted_run() -> tuple[PrototypeResult, Observer]:
    return _run()


class TestAcceptance:
    def test_reaches_target_accuracy_despite_faults(self, faulted_run) -> None:
        result, _ = faulted_run
        assert result.history.rounds_to_accuracy(_TARGET_ACCURACY) is not None
        assert result.history.final_accuracy() >= _TARGET_ACCURACY

    def test_blackout_rounds_degrade_instead_of_crashing(
        self, faulted_run
    ) -> None:
        result, _ = faulted_run
        degraded = [r.round_index for r in result.history.records if r.degraded]
        assert degraded == [1, 2]
        assert result.degraded_rounds == 2
        # Degraded rounds carried the model forward: accuracy unchanged.
        accs = result.history.accuracies
        assert accs[1] == accs[0] and accs[2] == accs[0]

    def test_all_three_fault_kinds_fired(self, faulted_run) -> None:
        _, observer = faulted_run
        kinds = {
            e.fields["kind"]
            for e in observer.events
            if e.category == "fault.injected"
        }
        assert {"crash", "straggler", "burst_loss"} <= kinds

    def test_failure_cost_reported_through_observer(self, faulted_run) -> None:
        result, observer = faulted_run
        assert observer.metrics.sum_values("fl.retries") > 0
        assert observer.metrics.sum_values("fl.rounds_degraded") == 2
        assert observer.metrics.sum_values("energy.wasted_j") > 0
        assert observer.metrics.sum_values("energy.wasted_j") == pytest.approx(
            result.wasted_energy_j
        )
        assert 0 < result.wasted_fraction < 1
        # Retries and backoff are in the total, so the phase counters
        # carry them too (under uploading and waiting).
        assert observer.metrics.sum_values("energy.joules") == pytest.approx(
            result.total_energy_j, rel=1e-12
        )

    def test_bit_identical_across_runs(self, faulted_run) -> None:
        first, _ = faulted_run
        second, _ = _run()
        assert first.history.to_records() == second.history.to_records()
        assert first.total_energy_j == second.total_energy_j
        assert first.wasted_energy_j == second.wasted_energy_j
        assert first.wall_clock_s == second.wall_clock_s


class TestBatteryDrain:
    """A declared battery drains once per round, by the measured energy."""

    def test_nominal_per_round_figure_is_not_drawn_as_well(self) -> None:
        train = generate_synthetic_mnist(400, seed=0)
        test = generate_synthetic_mnist(100, seed=1)
        prototype = HardwarePrototype(train, test, PrototypeConfig(n_servers=4))
        clean = prototype.run(participants=4, epochs=1, n_rounds=1)
        # Four equal partitions: every client spends a quarter.
        round_j = clean.energy_per_round_j[0] / 4
        plan = FaultPlan(
            faults=(
                BatteryFault(client_id=0, capacity_j=2.5 * round_j, per_round_j=5.0),
            )
        )
        result = prototype.run(
            participants=4, epochs=1, n_rounds=5, fault_plan=plan
        )
        # Two rounds leave half a round's energy; the third round's
        # draw empties the battery, so client 0 is down from round 3.
        assert [0 in r.participants for r in result.history.records] == [
            True,
            True,
            True,
            False,
            False,
        ]
