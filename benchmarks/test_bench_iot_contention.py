"""Benchmark: the IoT uplink substrate behind eq. (4)'s constant rho.

§IV-A argues the per-sample upload energy is constant even in the
unlicensed band, because fixed device locations give each device a fixed
success probability.  This bench sweeps the slotted-ALOHA contention
model, prints the resulting energy inflation per sample, and verifies
the classical shape: throughput peaks at ``q = 1/m`` and the inflation
factor grows with cell population.
"""

from __future__ import annotations

import numpy as np
import pytest

from paper_report import emit
from repro.experiments.report import render_table
from repro.iot.collision import SlottedAlohaModel
from repro.iot.device import IoTDevice
from repro.iot.network import IoTCluster

POPULATIONS = (1, 5, 10, 20, 50)
TRANSMIT_PROBABILITY = 0.02


@pytest.mark.paper
def test_bench_contention_rho_inflation(benchmark) -> None:
    def build_rhos() -> dict[int, float]:
        rhos = {}
        for m in POPULATIONS:
            contention = SlottedAlohaModel(m, TRANSMIT_PROBABILITY) if m > 1 else None
            cluster = IoTCluster(
                edge_server_id=0,
                devices=[IoTDevice(device_id=i) for i in range(max(m, 1))],
                contention=contention,
            )
            rhos[m] = cluster.rho
        return rhos

    rhos = benchmark(build_rhos)
    base = rhos[1]
    rows = [
        [m, f"{rhos[m]:.4f}", f"{rhos[m] / base:.3f}x"] for m in POPULATIONS
    ]
    emit(
        render_table(
            ["devices in cell", "rho (J/sample)", "inflation vs lone device"],
            rows,
            title="IoT uplink — per-sample energy vs cell population (eq. 4)",
        )
    )
    # Inflation is monotone in population and 1.0 for a lone device.
    values = [rhos[m] for m in POPULATIONS]
    assert values == sorted(values)
    assert rhos[1] == pytest.approx(base)


@pytest.mark.paper
def test_bench_contention_throughput_peak(benchmark) -> None:
    m = 20
    qs = np.linspace(0.005, 0.3, 60)

    def sweep_throughput() -> list[float]:
        return [SlottedAlohaModel(m, float(q)).throughput() for q in qs]

    throughputs = benchmark(sweep_throughput)
    best_q = float(qs[int(np.argmax(throughputs))])
    emit(
        f"ALOHA cell of {m} devices: throughput peaks at q = {best_q:.3f} "
        f"(theory: 1/m = {1/m:.3f})"
    )
    assert best_q == pytest.approx(1.0 / m, rel=0.25)


@pytest.mark.paper
def test_bench_collection_simulation(benchmark) -> None:
    """Monte-Carlo collection converges to the analytic eq. (4) energy."""
    contention = SlottedAlohaModel(10, 0.03)
    cluster = IoTCluster(
        edge_server_id=0,
        devices=[IoTDevice(device_id=i) for i in range(10)],
        contention=contention,
    )
    rng = np.random.default_rng(0)
    report = benchmark.pedantic(
        cluster.collect, args=(3000, rng), iterations=1, rounds=5
    )
    assert report.energy_j == pytest.approx(cluster.collection_energy(3000), rel=0.1)
