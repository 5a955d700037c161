"""Benchmark: regenerate Fig. 4 (convergence vs T for varying K and E).

The paper's qualitative findings this bench reproduces:

* Fig. 4(a)/(b): at a loose accuracy target K barely matters; at a
  strict target, larger K reduces the required T.
* Fig. 4(c)/(d): the total local gradient count ``E x T`` at a target
  accuracy is non-monotone in E — an interior-optimal E exists.
"""

from __future__ import annotations

import pytest

from paper_report import emit
from repro.experiments.calibrate import CalibratedSystem
from repro.experiments.fig4 import run_fig4

# Reduced sweep for the benchmark scale (the paper uses E=40, K up to 20
# on MNIST).  The strict target must sit near the model's ceiling, as the
# paper's 0.90 does on MNIST: that is where the E*T series becomes
# non-monotone (at loose targets, small E always wins on gradient count).
K_VALUES = (1, 5, 10, 20)
E_VALUES = (5, 20, 40, 100)
FIXED_E = 20
FIXED_K = 10
MAX_ROUNDS = 250
LOOSE, STRICT = 0.80, 0.88


@pytest.mark.paper
def test_bench_fig4_convergence_sweeps(benchmark, system: CalibratedSystem) -> None:
    result = benchmark.pedantic(
        run_fig4,
        kwargs=dict(
            prototype=system.prototype,
            k_values=K_VALUES,
            e_values=E_VALUES,
            fixed_e=FIXED_E,
            fixed_k=FIXED_K,
            max_rounds=MAX_ROUNDS,
            loose_target=LOOSE,
            strict_target=STRICT,
        ),
        iterations=1,
        rounds=1,
    )
    emit(result.report())

    # --- Fig. 4(a)/(b) shape: strict-target T shrinks as K grows. ---
    strict_rounds = result.rounds_vs_k(STRICT)
    reached = {k: t for k, t in strict_rounds.items() if t is not None}
    if len(reached) >= 2:
        ks = sorted(reached)
        assert reached[ks[-1]] <= reached[ks[0]]

    # --- Fig. 4(c)/(d) shape: E*T non-monotone in E (interior optimum).
    # The paper reports 5 600 local gradients at E=20, 3 600 at E=40 and
    # 6 000 at E=100: a strict interior minimum.  The same shape must
    # hold here among the E values that reach the strict target (the
    # smallest swept E fails to converge at all, like the paper's E=1).
    gradients = result.local_gradients_vs_e(STRICT)
    reached_e = {e: g for e, g in gradients.items() if g is not None}
    assert len(reached_e) >= 3
    es = sorted(reached_e)
    best_e = min(reached_e, key=reached_e.__getitem__)
    assert best_e != es[-1], "E*T must rise again at large E (drift)"
    assert reached_e[es[-1]] > reached_e[best_e]

    # Loss curves decrease for every configuration.
    for history in list(result.fixed_e_histories.values()) + list(
        result.fixed_k_histories.values()
    ):
        assert history.final_loss() < history.losses[0]
