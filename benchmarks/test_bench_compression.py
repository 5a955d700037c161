"""Extension bench: update compression vs the upload-energy term.

Compressing the uploaded model update shrinks ``e_k^U`` (and the upload
time), shifting the paper's communication/computation balance: ``B1``
falls, so the optimal ``E`` moves down and the total energy-to-target
drops — *if* the compression does not slow convergence more than it
saves.  This bench measures that trade on the simulated testbed.
"""

from __future__ import annotations

import pytest

from paper_report import emit
from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.experiments.report import render_table
from repro.fl.compression import (
    ErrorFeedback,
    TopKCompressor,
    UniformQuantizer,
)
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig
from repro.net.channel import ChannelConfig

N_SERVERS = 10
K = 2
EPOCHS = 20
TARGET = 0.80
MAX_ROUNDS = 150

# A slow uplink makes the upload term worth compressing (the default
# 20 Mbit/s WiFi makes e_U negligible for a 31 kB model).
SLOW_CHANNEL = ChannelConfig(rate_bps=250_000.0, latency_s=0.05)

SCHEMES = (
    ("dense (paper)", None),
    ("quantize 8-bit", UniformQuantizer(8)),
    ("quantize 4-bit", UniformQuantizer(4)),
    ("top-10% + EF", ErrorFeedback(TopKCompressor(0.10))),
)


@pytest.fixture(scope="module")
def prototype() -> HardwarePrototype:
    train, test = load_synthetic_mnist(n_train=1000, n_test=300, seed=0)
    config = PrototypeConfig(n_servers=N_SERVERS, channel=SLOW_CHANNEL, seed=0)
    return HardwarePrototype(train, test, config)


@pytest.mark.paper
def test_bench_compression_energy(benchmark, prototype) -> None:
    def sweep():
        results = {}
        for name, compressor in SCHEMES:
            if isinstance(compressor, ErrorFeedback):
                compressor.reset()
            results[name] = prototype.run(
                participants=K,
                epochs=EPOCHS,
                n_rounds=MAX_ROUNDS,
                target_accuracy=TARGET,
                update_compressor=compressor,
            )
        return results

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)

    rows = []
    for name, result in results.items():
        rows.append(
            [
                name,
                f"{result.total_energy_j:.2f}" if result.reached_target else "-",
                result.rounds,
                f"{result.wall_clock_s:.1f}",
                f"{result.history.final_accuracy():.3f}",
            ]
        )
    emit(
        render_table(
            ["upload scheme", "energy to target (J)", "T", "wall clock (s)", "final acc"],
            rows,
            title=(
                f"Extension — update compression on a slow uplink "
                f"(K={K}, E={EPOCHS}, target {TARGET})"
            ),
        )
    )

    dense = results["dense (paper)"]
    assert dense.reached_target
    # 8-bit quantisation is nearly lossless and must save energy on the
    # slow uplink.
    q8 = results["quantize 8-bit"]
    assert q8.reached_target
    assert q8.total_energy_j < dense.total_energy_j
    # It must not slow convergence materially (within ~30% extra rounds).
    assert q8.rounds <= 1.3 * dense.rounds + 1
