"""Benchmark: regenerate Fig. 5 (energy vs K, theory vs measured traces).

Paper shape: under the iid allocation both curves are minimised at
``K* = 1`` — a single participating edge server per round is the most
communication-efficient choice — and the theoretical bound follows the
same trend as the measured traces.
"""

from __future__ import annotations

import numpy as np
import pytest

from paper_report import emit
from repro.experiments.calibrate import CalibratedSystem
from repro.experiments.fig5 import run_fig5

pytestmark = pytest.mark.paper_smoke

K_VALUES = (1, 2, 4, 8, 12, 16, 20)
FIXED_E = 20


@pytest.mark.paper
def test_bench_fig5_energy_vs_k(benchmark, system: CalibratedSystem) -> None:
    result = benchmark.pedantic(
        run_fig5,
        kwargs=dict(system=system, epochs=FIXED_E, k_values=K_VALUES),
        iterations=1,
        rounds=1,
    )
    emit(result.report())

    # Shape: measured optimum at K = 1 (iid data).
    assert result.k_star_measured == 1
    # Shape: theory optimum also at the bottom of the range.
    theory_argmin = result.theory_argmin()
    assert theory_argmin is not None and theory_argmin <= 2
    assert result.k_star_theory <= 2.5

    # Shape: theory tracks measured (strong positive rank correlation).
    pairs = [
        (t, m)
        for t, m in zip(
            result.theory_energy.values(), result.measured_energy.values()
        )
        if t is not None and m is not None
    ]
    assert len(pairs) >= 4
    theory = np.array([p[0] for p in pairs])
    measured = np.array([p[1] for p in pairs])
    assert np.corrcoef(theory, measured)[0, 1] > 0.9

    # Energy grows steeply with K when data is iid: the paper's argument
    # that redundant participation wastes energy.
    measured_sorted = [
        result.measured_energy[k]
        for k in sorted(result.measured_energy)
        if result.measured_energy[k] is not None
    ]
    assert measured_sorted[-1] > 2.0 * measured_sorted[0]
