"""Statistical robustness: the headline results across seeds.

The paper reports single traces.  This bench repeats the two headline
quantities over independent seeds (dataset draw + client sampling) and
reports mean ± 95% CI:

* the measured ``K*`` of Fig. 5 (should be 1 on every seed), and
* the measured energy saving of the optimized ``E`` vs the smallest
  convergent ``E`` (the Fig. 6 headline, ~50 %).
"""

from __future__ import annotations

import pytest

from paper_report import emit
from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.experiments.stats import repeat_over_seeds, summarize
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig

pytestmark = pytest.mark.paper_smoke

N_SERVERS = 10
TARGET = 0.78
MAX_ROUNDS = 150
SEEDS = (0, 1, 2)
K_VALUES = (1, 2, 5, 10)
E_VALUES = (5, 20, 60)
FIXED_E = 20
# Each seed's saving as recorded; the runs are deterministic and read the
# same at one BLAS thread and at the default count.
SAVINGS_PIN = (0.37544807310029416, 0.39007648944953, 0.1604291495089477)
PIN_REL = 1e-9


def _prototype(seed: int) -> HardwarePrototype:
    train, test = load_synthetic_mnist(n_train=1000, n_test=300, seed=seed)
    return HardwarePrototype(
        train, test, PrototypeConfig(n_servers=N_SERVERS, seed=seed)
    )


def _measured_k_star(seed: int) -> float:
    prototype = _prototype(seed)
    energies = {}
    for k in K_VALUES:
        run = prototype.run(
            participants=k,
            epochs=FIXED_E,
            n_rounds=MAX_ROUNDS,
            target_accuracy=TARGET,
        )
        if run.reached_target:
            energies[k] = run.total_energy_j
    if not energies:
        raise RuntimeError(f"seed {seed}: no K reached the target")
    return float(min(energies, key=energies.__getitem__))


def _measured_saving(seed: int) -> float:
    prototype = _prototype(seed)
    energies = {}
    for e in E_VALUES:
        run = prototype.run(
            participants=1,
            epochs=e,
            n_rounds=MAX_ROUNDS,
            target_accuracy=TARGET,
        )
        if run.reached_target:
            energies[e] = run.total_energy_j
    if len(energies) < 2:
        raise RuntimeError(f"seed {seed}: fewer than two E values converged")
    baseline = energies[min(energies)]
    best = min(energies.values())
    return 1.0 - best / baseline


@pytest.mark.paper
def test_bench_headline_stability(benchmark) -> None:
    def run_all():
        k_stars = [_measured_k_star(seed) for seed in SEEDS]
        savings = [_measured_saving(seed) for seed in SEEDS]
        return k_stars, savings

    k_stars, savings = benchmark.pedantic(run_all, iterations=1, rounds=1)

    k_summary = summarize(k_stars)
    s_summary = summarize(savings)
    emit(
        f"K* across {len(SEEDS)} seeds: {k_summary.formatted()}  "
        f"(per-seed: {k_stars})\n"
        f"Fig.-6 saving across seeds: {s_summary.formatted()}  "
        f"(paper headline: 49.8%)"
    )

    # K* = 1 on every seed (the Fig. 5 conclusion is not a seed artifact).
    assert k_stars == [1.0] * len(SEEDS)
    # Each seed's saving, pinned.
    assert savings == pytest.approx(list(SAVINGS_PIN), rel=PIN_REL)


@pytest.mark.paper
def test_bench_repeat_over_seeds_helper(benchmark) -> None:
    """The stats helper itself, on a cheap deterministic experiment."""
    summary = benchmark(
        repeat_over_seeds, lambda seed: float(seed % 3), seeds=range(12)
    )
    assert summary.n == 12
    assert summary.ci_low <= summary.mean <= summary.ci_high
