"""Ablation: the iid assumption behind Fig. 5's ``K* = 1``.

The paper attributes ``K* = 1`` to the iid data allocation.  This bench
repeats the energy-vs-K sweep under extreme label skew (one shard per
client) and quantifies how the picture changes:

* on energy alone, ``K* = 1`` survives skew (energy ~ linear in K beats
  the sub-linear round inflation), but the K = N penalty collapses from
  several-fold to nearly parity;
* the required round count at K = 1 balloons, so under a round deadline
  the optimal feasible participation jumps to full.
"""

from __future__ import annotations

import numpy as np
import pytest

from paper_report import emit
from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.experiments.report import render_table
from repro.fl.partition import partition_by_shards, partition_iid
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig

N_SERVERS = 10
K_VALUES = (1, 2, 4, 10)
EPOCHS = 20
TARGET = 0.75
MAX_ROUNDS = 200


def _build(skewed: bool) -> HardwarePrototype:
    train, test = load_synthetic_mnist(n_train=1500, n_test=400, seed=0)
    config = PrototypeConfig(n_servers=N_SERVERS, seed=0)
    rng = np.random.default_rng(0)
    partitions = (
        partition_by_shards(train, N_SERVERS, 1, rng)
        if skewed
        else partition_iid(train, N_SERVERS, rng)
    )
    return HardwarePrototype(train, test, config, partitions=partitions)


def _sweep(prototype: HardwarePrototype) -> dict[int, tuple[float, int] | None]:
    out: dict[int, tuple[float, int] | None] = {}
    for k in K_VALUES:
        run = prototype.run(
            participants=k, epochs=EPOCHS, n_rounds=MAX_ROUNDS, target_accuracy=TARGET
        )
        out[k] = (run.total_energy_j, run.rounds) if run.reached_target else None
    return out


@pytest.mark.paper
def test_bench_noniid_k_star(benchmark) -> None:
    def run_both() -> tuple[dict, dict]:
        return _sweep(_build(skewed=False)), _sweep(_build(skewed=True))

    iid, skew = benchmark.pedantic(run_both, iterations=1, rounds=1)

    rows = []
    for k in K_VALUES:
        rows.append(
            [
                k,
                f"{iid[k][0]:.1f}" if iid[k] else "-",
                iid[k][1] if iid[k] else "-",
                f"{skew[k][0]:.1f}" if skew[k] else "-",
                skew[k][1] if skew[k] else "-",
            ]
        )
    emit(
        render_table(
            ["K", "iid energy (J)", "iid T", "skew energy (J)", "skew T"],
            rows,
            title="Ablation — Fig. 5 sweep under iid vs 1-shard label skew",
        )
    )

    # iid shape: K* = 1 (Fig. 5's conclusion).
    iid_feasible = {k: v[0] for k, v in iid.items() if v}
    assert min(iid_feasible, key=iid_feasible.__getitem__) == 1

    # Skew inflates the rounds needed at K = 1 by a large factor.
    if iid[1] and skew[1]:
        assert skew[1][1] > 3 * iid[1][1]

    # The full-participation energy penalty collapses under skew.
    if iid[1] and iid[10] and skew[1] and skew[10]:
        iid_penalty = iid[10][0] / iid[1][0]
        skew_penalty = skew[10][0] / skew[1][0]
        assert skew_penalty < 0.6 * iid_penalty
