"""Ablation: ACS vs exhaustive grid search vs random search.

DESIGN.md calls out the solver choice as a design decision worth
ablating: ACS exploits biconvexity (Theorem 1) to converge in a handful
of closed-form sweeps, where grid search pays thousands of objective
evaluations.  This bench verifies on a battery of random instances that
ACS (a) matches grid search's optimum and (b) is orders of magnitude
faster, and that random search with a comparable evaluation budget is
strictly worse on quality.
"""

from __future__ import annotations

import numpy as np
import pytest

from paper_report import emit
from repro.core.acs import ACSSolver
from repro.core.baselines import grid_search, random_search
from repro.core.convergence import ConvergenceBound
from repro.core.energy_model import EnergyParams
from repro.core.objective import EnergyObjective
from repro.experiments.report import render_table


def _instances(n: int, seed: int = 0) -> list[EnergyObjective]:
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < n:
        bound = ConvergenceBound(
            a0=float(rng.uniform(0.5, 50.0)),
            a1=float(rng.uniform(0.0, 0.4)),
            a2=float(rng.uniform(0.0, 8e-4)),
        )
        energy = EnergyParams(
            rho=float(rng.uniform(0.0, 0.01)),
            e_upload=float(rng.uniform(0.1, 5.0)),
            n_samples=int(rng.integers(100, 5000)),
        )
        n_servers = int(rng.integers(5, 40))
        epsilon = bound.asymptotic_gap(1, n_servers) + float(rng.uniform(0.02, 0.5))
        instances.append(
            EnergyObjective(
                bound=bound, energy=energy, epsilon=epsilon, n_servers=n_servers
            )
        )
    return instances


INSTANCES = _instances(12)


@pytest.mark.paper
def test_bench_acs_solver(benchmark) -> None:
    """Time ACS over the instance battery; assert optimality vs grid."""

    def solve_all() -> list:
        return [ACSSolver(obj).solve() for obj in INSTANCES]

    results = benchmark(solve_all)
    grid = [grid_search(obj, max_epochs=1500) for obj in INSTANCES]
    rows = []
    for i, (acs, best) in enumerate(zip(results, grid)):
        rows.append(
            [
                i,
                f"({acs.participants_int},{acs.epochs_int})",
                f"({best.participants},{best.epochs})",
                f"{acs.energy_int:.4g}",
                f"{best.energy:.4g}",
                best.evaluations,
                acs.n_iterations,
            ]
        )
        assert acs.energy_int == pytest.approx(best.energy, rel=1e-9)
    emit(
        render_table(
            [
                "instance",
                "ACS (K,E)",
                "grid (K,E)",
                "ACS energy",
                "grid energy",
                "grid evals",
                "ACS sweeps",
            ],
            rows,
            title="Ablation — ACS vs exhaustive grid search",
        )
    )


@pytest.mark.paper
def test_bench_grid_search(benchmark) -> None:
    """Grid-search timing on the same battery, for the speed comparison."""

    def solve_all() -> list:
        return [grid_search(obj, max_epochs=1500) for obj in INSTANCES]

    results = benchmark.pedantic(solve_all, iterations=1, rounds=3)
    assert all(r.energy > 0 for r in results)


@pytest.mark.paper
def test_bench_random_search_quality(benchmark) -> None:
    """Random search with a grid-sized budget still loses to ACS."""

    def run_random_searches() -> list:
        rng = np.random.default_rng(7)
        return [
            random_search(obj, n_trials=300, rng=rng, max_epochs=1500)
            for obj in INSTANCES
        ]

    randoms = benchmark.pedantic(run_random_searches, iterations=1, rounds=3)
    losses = 0
    rows = []
    for i, (obj, rand) in enumerate(zip(INSTANCES, randoms)):
        acs = ACSSolver(obj).solve()
        gap = rand.energy / acs.energy_int - 1.0
        rows.append([i, f"{acs.energy_int:.4g}", f"{rand.energy:.4g}", f"{100*gap:.1f}%"])
        if gap > 1e-9:
            losses += 1
    emit(
        render_table(
            ["instance", "ACS energy", "random energy", "random excess"],
            rows,
            title="Ablation — random search vs ACS (300 trials)",
        )
    )
    # Random search should be strictly worse on most instances.
    assert losses >= len(INSTANCES) // 2
