"""Benchmark: regenerate Fig. 3 (two-round power trace of one Pi)."""

from __future__ import annotations

import pytest

from paper_report import emit
from repro.experiments.fig3 import run_fig3
from repro.hardware.power_model import RoundPhase

pytestmark = pytest.mark.paper_smoke


@pytest.mark.paper
def test_bench_fig3_power_trace(benchmark) -> None:
    """Record and segment the metered trace; verify the four plateaus."""
    result = benchmark.pedantic(
        run_fig3, kwargs={"epochs": 10, "n_rounds": 2}, iterations=1, rounds=3
    )
    emit(result.report())
    # Shape criteria: the four phase powers within 50 mW of the paper's.
    assert result.max_power_error_w() < 0.05
    # Ordering as in Fig. 3: waiting < downloading < uploading < training.
    measured = result.measured_powers
    assert (
        measured[RoundPhase.WAITING]
        < measured[RoundPhase.DOWNLOADING]
        < measured[RoundPhase.UPLOADING]
        < measured[RoundPhase.TRAINING]
    )


@pytest.mark.paper
def test_bench_fig3_sampling_rate(benchmark) -> None:
    """The 1 kHz meter keeps the energy integral within 1% of truth."""
    result = run_fig3(epochs=10, n_rounds=1)

    def integrate() -> float:
        return result.trace.energy()

    energy = benchmark(integrate)
    assert energy > 0
