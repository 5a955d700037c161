"""Extension bench: over-selection — trading energy for tail latency.

Production FL systems select ``K + m`` clients and aggregate the first
``K`` uploads, hiding stragglers.  On a jittery testbed this bench
quantifies the trade-off EE-FEI's energy accounting makes visible:
over-selection cuts wall-clock time per round (the coordinator stops
waiting for the slowest device) but burns energy in the discarded
updates — energy the paper's objective would rather save.
"""

from __future__ import annotations

import pytest

from paper_report import emit
from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.experiments.report import render_table
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig
from repro.hardware.raspberry_pi import PiTimingConfig

N_SERVERS = 12
K = 4
EPOCHS = 10
ROUNDS = 25
OVERSELECTIONS = (0, 1, 2, 4)


@pytest.fixture(scope="module")
def jittery_prototype() -> HardwarePrototype:
    train, test = load_synthetic_mnist(n_train=1200, n_test=300, seed=0)
    config = PrototypeConfig(
        n_servers=N_SERVERS,
        timing=PiTimingConfig(jitter_fraction=0.3),
        seed=0,
    )
    return HardwarePrototype(train, test, config)


@pytest.mark.paper
def test_bench_overselection_tradeoff(benchmark, jittery_prototype) -> None:
    def sweep():
        return {
            m: jittery_prototype.run(
                participants=K, epochs=EPOCHS, n_rounds=ROUNDS, overselection=m
            )
            for m in OVERSELECTIONS
        }

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)

    rows = []
    for m, result in sorted(results.items()):
        rows.append(
            [
                m,
                K + m,
                f"{result.total_energy_j:.1f}",
                f"{result.wall_clock_s:.1f}",
                f"{result.history.final_accuracy():.3f}",
            ]
        )
    emit(
        render_table(
            ["overselection m", "selected", "energy (J)", "wall clock (s)", "final acc"],
            rows,
            title=f"Extension — over-selection on a jittery testbed (K = {K})",
        )
    )

    plain = results[0]
    most = results[max(OVERSELECTIONS)]
    # Energy strictly grows with over-provisioning (stragglers train too).
    energies = [results[m].total_energy_j for m in OVERSELECTIONS]
    assert all(b > a for a, b in zip(energies, energies[1:]))
    # Tail latency shrinks: waiting for the 4 fastest of 8 beats waiting
    # for the slowest of 4 on a jittery fleet.
    assert most.wall_clock_s < plain.wall_clock_s
    # Learning quality is not destroyed (same K aggregated).
    assert most.history.final_accuracy() > plain.history.final_accuracy() - 0.1
