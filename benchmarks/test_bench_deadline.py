"""Extension bench: the energy-latency Pareto frontier.

The paper minimizes energy alone.  Sweeping a round deadline ``T_max``
through the latency-constrained planner traces the Pareto frontier
between energy and training latency: tighter deadlines force more
parallel work per round (larger K and/or E), paying energy for speed.
"""

from __future__ import annotations

import pytest

from paper_report import emit
from repro.core.acs import ACSSolver
from repro.core.convergence import ConvergenceBound
from repro.core.deadline import solve_with_deadline
from repro.core.energy_model import EnergyParams
from repro.core.objective import EnergyObjective
from repro.experiments.report import render_table

OBJECTIVE = EnergyObjective(
    bound=ConvergenceBound(a0=5.0, a1=0.3, a2=5e-4),
    energy=EnergyParams(rho=1e-3, e_upload=2.0, n_samples=3000),
    epsilon=0.05,
    n_servers=20,
)
DEADLINES = (8, 10, 15, 25, 50, 100, 1000)


@pytest.mark.paper
def test_bench_energy_latency_frontier(benchmark) -> None:
    def sweep() -> list:
        plans = []
        for deadline in DEADLINES:
            try:
                plans.append(solve_with_deadline(OBJECTIVE, deadline))
            except ValueError:
                plans.append(None)
        return plans

    plans = benchmark(sweep)
    unconstrained = ACSSolver(OBJECTIVE).solve()

    rows = []
    for deadline, plan in zip(DEADLINES, plans):
        if plan is None:
            rows.append([deadline, "-", "-", "-", "-", "infeasible"])
            continue
        rows.append(
            [
                deadline,
                plan.participants,
                plan.epochs,
                plan.rounds,
                f"{plan.energy:.2f}",
                "binding" if plan.binding else "slack",
            ]
        )
    emit(
        render_table(
            ["deadline T_max", "K", "E", "T", "energy (J)", "constraint"],
            rows,
            title=(
                "Extension — energy-latency Pareto frontier "
                f"(unconstrained optimum {unconstrained.energy_int:.2f} J "
                f"at T = {unconstrained.rounds_int})"
            ),
        )
    )

    feasible = [p for p in plans if p is not None]
    assert len(feasible) >= 4
    # Frontier shape: energy is non-increasing as the deadline loosens.
    energies = [p.energy for p in feasible]
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
    # The loosest deadline recovers the unconstrained optimum.
    assert feasible[-1].energy == pytest.approx(unconstrained.energy_int)
    # At least one deadline is binding and pays extra energy.
    binding = [p for p in feasible if p.binding]
    assert binding
    assert binding[0].energy > unconstrained.energy_int
