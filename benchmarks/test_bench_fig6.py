"""Benchmark: regenerate Fig. 6 (energy vs E, theory vs measured, savings).

Paper shape: the energy-to-target-accuracy curve over E is convex with
an interior optimum ``E*``, the theory bound shows the same trend as the
measured traces, and running at ``E*`` saves ~49.8 % of the energy of
the naive baseline policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from paper_report import emit
from repro.experiments.calibrate import CalibratedSystem
from repro.experiments.fig6 import run_fig6

pytestmark = pytest.mark.paper_smoke

E_VALUES = (1, 2, 5, 10, 20, 40, 60, 100)
FIXED_K = 1

# The headline as recorded; the run is deterministic and reads the same
# at one BLAS thread and at the default count, so the pins are tight.
PIN_REL = 1e-9
E_STAR = 60
BASELINE_E = 5
E_STAR_J = 13.168029983999999
BASELINE_J = 29.76049054720001
SAVING = 0.5575331675694135
# `e_star`'s cap: the TEST_SCALE fit returns A2 = 0 (DESIGN.md erratum 6).
E_STAR_THEORY = 1_000_000.0


@pytest.mark.paper
def test_bench_fig6_energy_vs_e(benchmark, system: CalibratedSystem) -> None:
    result = benchmark.pedantic(
        run_fig6,
        kwargs=dict(system=system, participants=FIXED_K, e_values=E_VALUES),
        iterations=1,
        rounds=1,
    )
    emit(result.report())

    measured = {e: v for e, v in result.measured_energy.items() if v is not None}
    assert len(measured) >= 4

    # Shape: interior measured optimum — neither the smallest convergent
    # E nor the largest swept E.
    assert result.e_star_measured is not None
    assert result.e_star_measured != max(E_VALUES) or (
        measured[result.e_star_measured] < measured[min(measured)]
    )
    assert measured[result.e_star_measured] < measured[min(measured)]

    # Shape: the theory integer argmin sits in the same region as the
    # measured optimum (within the neighbouring swept values).
    theory_argmin = result.theory_argmin()
    if theory_argmin is not None:
        swept = sorted(E_VALUES)
        idx_t = swept.index(theory_argmin)
        idx_m = swept.index(result.e_star_measured)
        assert abs(idx_t - idx_m) <= 2

    # Headline: the measured saving at E* vs the baseline (paper: 49.8 %
    # vs E = 1), pinned with E*, the baseline E and both energies.
    assert result.e_star_measured == E_STAR
    assert result.baseline_e == BASELINE_E
    assert theory_argmin == E_STAR
    assert result.e_star_theory == pytest.approx(E_STAR_THEORY, rel=PIN_REL)
    assert measured[E_STAR] == pytest.approx(E_STAR_J, rel=PIN_REL)
    assert measured[BASELINE_E] == pytest.approx(BASELINE_J, rel=PIN_REL)
    assert result.savings_measured == pytest.approx(SAVING, rel=PIN_REL)
    emit(
        f"headline: {100 * result.savings_measured:.1f}% measured saving at "
        f"E*={result.e_star_measured} vs baseline E={result.baseline_e} "
        "(paper reports 49.8%)"
    )
