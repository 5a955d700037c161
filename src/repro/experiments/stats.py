"""Multi-seed statistics for the measured curves.

A single measured run of Fig. 5/6 carries sampling noise (client
selection, dataset draw).  This module repeats a scalar experiment
across seeds and summarises the distribution — mean, standard deviation
and a t-based confidence interval — which is what an honest reproduction
reports where the paper shows a single trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["SeedSummary", "summarize", "repeat_over_seeds"]


@dataclass(frozen=True)
class SeedSummary:
    """Distribution summary of one scalar metric across seeds.

    Attributes:
        values: the per-seed measurements (NaN-free).
        mean / std: sample statistics (ddof=1 for std when n > 1).
        ci_low / ci_high: two-sided Student-t confidence interval for the
            mean at the requested level (equal to the mean when n == 1).
        confidence: the CI level used.
    """

    values: tuple[float, ...]
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def n(self) -> int:
        return len(self.values)

    def half_width(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0

    def formatted(self, unit: str = "") -> str:
        """``"12.3 ± 1.4 J (95% CI, n=5)"``-style rendering."""
        suffix = f" {unit}" if unit else ""
        return (
            f"{self.mean:.4g} ± {self.half_width():.2g}{suffix} "
            f"({100 * self.confidence:.0f}% CI, n={self.n})"
        )


def summarize(values: Sequence[float], confidence: float = 0.95) -> SeedSummary:
    """Summarise per-seed measurements into a :class:`SeedSummary`.

    Raises ``ValueError`` on empty input or non-finite values (a failed
    run must be handled by the caller, not silently averaged).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1); got {confidence}")
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("no values to summarise")
    if not np.all(np.isfinite(array)):
        raise ValueError("values contain non-finite entries")
    mean = float(array.mean())
    if array.size == 1:
        return SeedSummary(
            values=tuple(array.tolist()),
            mean=mean,
            std=0.0,
            ci_low=mean,
            ci_high=mean,
            confidence=confidence,
        )
    from scipy import stats as scipy_stats

    std = float(array.std(ddof=1))
    sem = std / np.sqrt(array.size)
    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=array.size - 1))
    return SeedSummary(
        values=tuple(array.tolist()),
        mean=mean,
        std=std,
        ci_low=mean - t_crit * sem,
        ci_high=mean + t_crit * sem,
        confidence=confidence,
    )


def repeat_over_seeds(
    experiment: Callable[[int], float],
    seeds: Sequence[int],
    confidence: float = 0.95,
    skip_failures: bool = False,
) -> SeedSummary:
    """Run ``experiment(seed)`` for every seed and summarise the results.

    Args:
        experiment: maps a seed to a scalar measurement; may raise to
            signal a failed run.
        seeds: the seeds to use (must be non-empty and distinct).
        confidence: CI level.
        skip_failures: when True, runs that raise ``ValueError`` or
            ``RuntimeError`` are dropped (at least one must survive);
            when False, failures propagate.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    values = []
    for seed in seeds:
        try:
            values.append(float(experiment(seed)))
        except (ValueError, RuntimeError):
            if not skip_failures:
                raise
    if not values:
        raise ValueError("every seeded run failed")
    return summarize(values, confidence=confidence)
