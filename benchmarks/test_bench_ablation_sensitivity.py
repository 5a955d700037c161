"""Ablation: how precisely must the constants be calibrated?

DESIGN.md's last ablation: perturb each calibrated constant by up to
2x, re-plan with the wrong constants, and price the wrong plan on the
true system.  The biconvex objective turns out to be *flat* around its
optimum — moderate calibration error costs little energy — which is why
the paper can get away with a least-squares fit over a 12-point grid.
"""

from __future__ import annotations

import pytest

from paper_report import emit
from repro.core.convergence import ConvergenceBound
from repro.core.energy_model import EnergyParams
from repro.core.objective import EnergyObjective
from repro.core.sensitivity import analyze_sensitivity
from repro.experiments.report import render_table

TRUE_OBJECTIVE = EnergyObjective(
    bound=ConvergenceBound(a0=5.0, a1=0.05, a2=2e-4),
    energy=EnergyParams(rho=1e-3, e_upload=2.0, n_samples=3000),
    epsilon=0.05,
    n_servers=20,
)


@pytest.mark.paper
def test_bench_calibration_sensitivity(benchmark) -> None:
    report = benchmark.pedantic(
        analyze_sensitivity,
        kwargs=dict(
            objective=TRUE_OBJECTIVE,
            factors=(0.5, 0.8, 1.25, 2.0),
        ),
        iterations=1,
        rounds=1,
    )
    rows = []
    for result in report.results:
        rows.append(
            [
                result.constant,
                f"{result.factor:g}x",
                f"({result.participants},{result.epochs})",
                f"{result.true_energy:.2f}" if result.true_energy is not None else "-",
                f"{100 * result.regret:.2f}%" if result.regret is not None else "inf",
            ]
        )
    emit(
        render_table(
            ["constant", "perturbation", "plan (K,E)", "true energy (J)", "regret"],
            rows,
            title=(
                "Ablation — plan regret under mis-calibration "
                f"(true optimum {report.optimal_energy:.2f} J)"
            ),
        )
    )
    # Flat-optimum claims: +-25% errors cost < 25% energy; even 2x
    # errors on any single constant keep regret below 100% here.
    moderate = [
        r.regret
        for r in report.results
        if r.factor in (0.8, 1.25) and r.regret is not None
    ]
    assert moderate and max(moderate) < 0.25
    finite = [r.regret for r in report.results if r.regret is not None]
    assert max(finite) < 1.0
    # A0 is a pure multiplicative factor of the *continuous* objective,
    # so it cannot move the continuous optimum; the integer plan can
    # still shift slightly because ceil(T*) plateau boundaries move.
    a0_regrets = [
        r.regret for r in report.results if r.constant == "a0" and r.regret is not None
    ]
    assert a0_regrets and max(a0_regrets) < 0.10
