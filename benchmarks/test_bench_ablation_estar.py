"""Ablation: exact E* (quadratic root) vs the paper's printed eq. (17).

DESIGN.md documents that the paper's closed form for ``E*`` does not
satisfy the first-order optimality condition of the objective it is
printed next to; the exact interior optimum solves the quadratic
``A2 K B0 E^2 + 2 A2 K B1 E - B1 C4 = 0``.  This bench quantifies how
much energy the printed formula leaves on the table across random
instances, which is exactly the kind of gap Fig. 6's "roundup" remark
glosses over.
"""

from __future__ import annotations

import numpy as np
import pytest

from paper_report import emit
from repro.core.closed_form import e_star
from repro.core.convergence import ConvergenceBound
from repro.core.energy_model import EnergyParams
from repro.core.objective import EnergyObjective
from repro.experiments.report import render_table


def _instances(n: int, seed: int = 3) -> list[EnergyObjective]:
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < n:
        bound = ConvergenceBound(
            a0=float(rng.uniform(1.0, 40.0)),
            a1=float(rng.uniform(0.01, 0.3)),
            # A drift term large enough that E* is interior.
            a2=float(rng.uniform(2e-4, 2e-3)),
        )
        energy = EnergyParams(
            rho=float(rng.uniform(1e-4, 5e-3)),
            e_upload=float(rng.uniform(0.5, 5.0)),
            n_samples=int(rng.integers(500, 5000)),
        )
        epsilon = bound.asymptotic_gap(1, 20) + float(rng.uniform(0.05, 0.4))
        instances.append(
            EnergyObjective(bound=bound, energy=energy, epsilon=epsilon, n_servers=20)
        )
    return instances


INSTANCES = _instances(10)
FIXED_K = 10.0


@pytest.mark.paper
def test_bench_estar_exact_vs_paper(benchmark) -> None:
    def exact_all() -> list[float]:
        return [e_star(obj, FIXED_K) for obj in INSTANCES]

    exact_values = benchmark(exact_all)
    rows = []
    excesses = []
    for obj, exact in zip(INSTANCES, exact_values):
        paper = e_star(obj, FIXED_K, paper_formula=True)
        energy_exact = obj.value(FIXED_K, exact)
        energy_paper = obj.value(FIXED_K, paper)
        excess = energy_paper / energy_exact - 1.0
        excesses.append(excess)
        rows.append(
            [
                f"{exact:.2f}",
                f"{paper:.2f}",
                f"{energy_exact:.4g}",
                f"{energy_paper:.4g}",
                f"{100 * excess:.2f}%",
            ]
        )
        # The exact root is never worse: it is the true stationary point
        # of a strictly convex slice.
        assert energy_exact <= energy_paper * (1 + 1e-9)
    emit(
        render_table(
            ["E* exact", "E* eq.(17)", "energy exact", "energy eq.(17)", "excess"],
            rows,
            title=f"Ablation — exact vs printed E* at K = {FIXED_K:.0f}",
        )
    )
    # On at least some instances the printed formula is measurably off.
    assert max(excesses) > 0.001
