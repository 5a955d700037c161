"""Extension bench: synchronous FEI vs asynchronous (FedAsync-style).

The paper's synchronous loop pays a round barrier: every round waits for
its slowest participant plus the idle waiting phase.  Asynchronous
merging removes the barrier entirely.  This bench gives both the same
budget of local jobs on the same jittery, heterogeneous fleet and
compares wall-clock time, energy, and final accuracy.
"""

from __future__ import annotations

import pytest

from paper_report import emit
from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.experiments.report import render_table
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig
from repro.hardware.raspberry_pi import PiTimingConfig

N_SERVERS = 8
EPOCHS = 10
SYNC_ROUNDS = 10           # 8 clients x 10 rounds = 80 local jobs
ASYNC_UPDATES = N_SERVERS * SYNC_ROUNDS


@pytest.fixture(scope="module")
def fleet() -> HardwarePrototype:
    train, test = load_synthetic_mnist(n_train=1000, n_test=300, seed=0)
    config = PrototypeConfig(
        n_servers=N_SERVERS,
        timing=PiTimingConfig(jitter_fraction=0.25),
        heterogeneity=0.25,
        seed=0,
    )
    return HardwarePrototype(train, test, config)


@pytest.mark.paper
def test_bench_sync_vs_async(benchmark, fleet: HardwarePrototype) -> None:
    def run_both():
        sync = fleet.run(
            participants=N_SERVERS, epochs=EPOCHS, n_rounds=SYNC_ROUNDS
        )
        async_result, async_energy = fleet.run_async(
            max_updates=ASYNC_UPDATES, epochs=EPOCHS, eval_every=8
        )
        return sync, async_result, async_energy

    sync, async_result, async_energy = benchmark.pedantic(
        run_both, iterations=1, rounds=1
    )

    rows = [
        [
            "synchronous (paper)",
            N_SERVERS * SYNC_ROUNDS,
            f"{sync.wall_clock_s:.1f}",
            f"{sync.total_energy_j:.1f}",
            f"{sync.history.final_accuracy():.3f}",
        ],
        [
            "asynchronous (FedAsync-style)",
            async_result.updates,
            f"{async_result.wall_clock_s:.1f}",
            f"{async_energy:.1f}",
            f"{async_result.final_accuracy:.3f}",
        ],
    ]
    emit(
        render_table(
            ["mode", "local jobs", "wall clock (s)", "energy (J)", "final acc"],
            rows,
            title=(
                "Extension — sync vs async on a jittery heterogeneous fleet "
                f"(E = {EPOCHS})"
            ),
        )
    )

    # Same job budget: async removes the barrier, so it is faster on the
    # wall clock...
    assert async_result.wall_clock_s < sync.wall_clock_s
    # ...with comparable active energy (same local jobs) ...
    assert async_energy == pytest.approx(sync.total_energy_j, rel=0.35)
    # ...and a bounded accuracy penalty from staleness.
    assert async_result.final_accuracy > sync.history.final_accuracy() - 0.15
