"""Extension bench: eq. (12)'s expectation operators under real spread.

The paper's objective uses *expected* per-server constants
(``B0 = E[c0] n + E[c1]``, ``B1 = E[rho] n + E[e^U]``).  On a testbed
whose devices genuinely differ (different SoC bins: power and speed
factors drawn per device), this bench measures what the
expectation-based plan costs relative to a measured exhaustive search
over ``(K, E)`` — i.e. how much the homogeneity approximation leaves on
the table.
"""

from __future__ import annotations

import pytest

from paper_report import emit
from repro.core.calibration import GapObservation, fit_convergence_constants
from repro.core.objective import EnergyObjective
from repro.core.planner import EnergyPlanner
from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.experiments.report import render_table
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig

N_SERVERS = 10
TARGET = 0.78
MAX_ROUNDS = 120
GRID_K = (1, 2, 5, 10)
GRID_E = (5, 20, 60)


@pytest.fixture(scope="module")
def heterogeneous_prototype() -> HardwarePrototype:
    train, test = load_synthetic_mnist(n_train=1000, n_test=300, seed=0)
    config = PrototypeConfig(n_servers=N_SERVERS, heterogeneity=0.35, seed=0)
    return HardwarePrototype(train, test, config)


@pytest.mark.paper
def test_bench_heterogeneous_planning(benchmark, heterogeneous_prototype) -> None:
    prototype = heterogeneous_prototype

    def measure_grid():
        measured = {}
        for k in GRID_K:
            for e in GRID_E:
                run = prototype.run(
                    participants=k,
                    epochs=e,
                    n_rounds=MAX_ROUNDS,
                    target_accuracy=TARGET,
                )
                if run.reached_target:
                    measured[(k, e)] = (run.total_energy_j, run.rounds)
        return measured

    measured = benchmark.pedantic(measure_grid, iterations=1, rounds=1)
    assert measured, "no grid point reached the target"

    # Calibrate the bound from the measured grid itself (operating-point
    # fit, as the main pipeline does).  Every run crossed the *same*
    # accuracy target, so each contributes one row with the same nominal
    # loss-gap epsilon; its absolute scale cancels in the argmin.
    epsilon = 0.5
    observations = [
        GapObservation(rounds, e, k, gap=epsilon)
        for (k, e), (_, rounds) in measured.items()
    ]
    bound = fit_convergence_constants(observations)

    # Expectation-based energy constants from the heterogeneous devices.
    mean_params = prototype.heterogeneous_energy_params().mean()
    planner = EnergyPlanner(bound=bound, energy=mean_params, n_servers=N_SERVERS)
    objective = planner.objective(epsilon)

    # The plan from expected constants, restricted to the measured grid
    # for a fair comparison (we only have ground truth there).
    def grid_energy_of(k: int, e: int) -> float | None:
        entry = measured.get((k, e))
        return entry[0] if entry else None

    plan_scores = {
        (k, e): objective.value_integer(k, e)
        for k in GRID_K
        for e in GRID_E
        if objective.is_feasible(k, e) and (k, e) in measured
    }
    assert plan_scores, "objective found no feasible measured grid point"
    planned_choice = min(plan_scores, key=plan_scores.__getitem__)
    best_choice = min(measured, key=lambda ke: measured[ke][0])

    rows = [
        [
            f"({k},{e})",
            f"{measured[(k, e)][0]:.1f}",
            measured[(k, e)][1],
            f"{plan_scores.get((k, e), float('nan')):.2f}"
            if (k, e) in plan_scores
            else "-",
        ]
        for (k, e) in sorted(measured)
    ]
    emit(
        render_table(
            ["(K,E)", "measured energy (J)", "T", "model energy (J)"],
            rows,
            title=(
                "Extension — heterogeneous testbed (35% device spread): "
                f"model picks {planned_choice}, truth-best {best_choice}"
            ),
        )
    )

    planned_energy = measured[planned_choice][0]
    best_energy = measured[best_choice][0]
    regret = planned_energy / best_energy - 1.0
    emit(f"expectation-plan regret vs measured optimum: {100 * regret:.1f}%")
    # The homogeneity approximation must stay serviceable: the plan from
    # expected constants lands within 2x of the measured optimum.
    assert planned_energy <= 2.0 * best_energy