"""Benchmark: regenerate Table I (step-(3) durations and the c0/c1 fit)."""

from __future__ import annotations

import pytest

from paper_report import emit
from repro.core import constants
from repro.core.calibration import fit_training_energy
from repro.experiments.table1 import run_table1
from repro.hardware.raspberry_pi import RaspberryPiEdgeServer

pytestmark = pytest.mark.paper_smoke

# The fit as recorded; the run is deterministic and reads the same at
# one BLAS thread and at the default count, so the pins are tight.
PIN_REL = 1e-9
C0_PIN = 7.790000000000008e-05
C1_PIN = 0.003340000000000019


@pytest.mark.paper
def test_bench_table1_reproduction(benchmark) -> None:
    """Time the full Table-I pipeline and verify the paper's shape."""
    result = benchmark(run_table1)
    emit(result.report())
    # Shape criteria: linear growth in E and n, <6 % deviation.
    assert result.max_relative_error() < 0.06
    # The paper's c0 and c1, pinned.
    assert result.fit.c0 == pytest.approx(C0_PIN, rel=PIN_REL)
    assert result.fit.c1 == pytest.approx(C1_PIN, rel=PIN_REL)
    assert C0_PIN == pytest.approx(constants.C0_JOULES_PER_SAMPLE_EPOCH)
    assert C1_PIN == pytest.approx(constants.C1_JOULES_PER_EPOCH)


@pytest.mark.paper
def test_bench_table1_fit_only(benchmark) -> None:
    """Micro-benchmark of the least-squares (c0, c1) fit itself."""
    durations = dict(constants.TABLE_I_DURATIONS)
    fit = benchmark(fit_training_energy, durations, constants.POWER_TRAINING_W)
    assert fit.c0 > 0 and fit.c1 > 0


@pytest.mark.paper
def test_bench_table1_duration_grid(benchmark) -> None:
    """Micro-benchmark of the device timing model over the full grid."""
    device = RaspberryPiEdgeServer(server_id=0)
    table = benchmark(
        device.duration_table, [10, 20, 40], [100, 500, 1000, 2000]
    )
    assert len(table) == 12
