"""Calibration: fitting model constants from measured traces — §VI-B.

Two fits are needed to instantiate the optimizer on a real system:

1. **Energy constants** ``(c0, c1)`` of eq. (5), fitted by least squares
   from the measured duration of the local-training step on a grid of
   ``(E, n_k)`` combinations (the paper's Table I) multiplied by the
   training power.  The paper reports ``c0 = 7.79e-5`` and
   ``c1 = 3.34e-3``.

2. **Convergence constants** ``(A0, A1, A2)`` of eq. (10), fitted by
   non-negative least squares from observed loss gaps at various
   ``(T, E, K)`` combinations — e.g. the training histories behind
   Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.convergence import ConvergenceBound
from repro.fl.metrics import TrainingHistory

__all__ = [
    "EnergyFit",
    "TimingFit",
    "GapObservation",
    "fit_training_energy",
    "fit_training_timing",
    "fit_convergence_constants",
    "gap_observations_from_history",
]


@dataclass(frozen=True)
class EnergyFit:
    """Least-squares fit of eq. (5): energy = c0*E*n + c1*E.

    Attributes:
        c0: joules per sample-epoch.
        c1: joules per epoch (data-size independent).
        rmse: root-mean-square residual of the fit, in joules.
    """

    c0: float
    c1: float
    rmse: float


@dataclass(frozen=True)
class TimingFit:
    """Least-squares fit of the timing law: duration = E*(tau0*n + tau1)."""

    tau0: float
    tau1: float
    rmse: float


@dataclass(frozen=True)
class GapObservation:
    """One observed loss gap at a parameter combination.

    Attributes:
        rounds: global rounds ``T`` completed when the gap was measured.
        epochs: local epochs ``E`` used throughout the run.
        participants: ``K`` used throughout the run.
        gap: observed ``F(w_T) - F(w*)`` (must be positive).
    """

    rounds: int
    epochs: int
    participants: int
    gap: float

    def __post_init__(self) -> None:
        if self.rounds < 1 or self.epochs < 1 or self.participants < 1:
            raise ValueError("rounds, epochs, participants must be >= 1")
        if self.gap <= 0:
            raise ValueError(f"gap must be positive; got {self.gap}")


def _duration_fit(
    durations: Mapping[tuple[int, int], float], scale: float
) -> tuple[float, float, float]:
    """Shared least-squares core for the timing and energy fits."""
    if len(durations) < 2:
        raise ValueError("need at least two (E, n) measurements to fit two constants")
    rows = []
    targets = []
    for (epochs, n_samples), seconds in durations.items():
        if epochs < 1 or n_samples < 1:
            raise ValueError(f"invalid measurement key (E={epochs}, n={n_samples})")
        if seconds <= 0:
            raise ValueError(f"duration must be positive; got {seconds}")
        rows.append([epochs * n_samples, epochs])
        targets.append(seconds * scale)
    design = np.array(rows, dtype=float)
    target = np.array(targets, dtype=float)
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)
    residuals = design @ solution - target
    rmse = float(np.sqrt(np.mean(residuals**2)))
    return float(solution[0]), float(solution[1]), rmse


def fit_training_energy(
    durations: Mapping[tuple[int, int], float], training_power_w: float
) -> EnergyFit:
    """Fit ``(c0, c1)`` from step-(3) durations and the training power.

    Args:
        durations: mapping ``(E, n_k) -> seconds`` (Table I format).
        training_power_w: average power during local training
            (paper: 5.553 W).
    """
    if training_power_w <= 0:
        raise ValueError(f"training power must be positive; got {training_power_w}")
    c0, c1, rmse = _duration_fit(durations, training_power_w)
    return EnergyFit(c0=c0, c1=c1, rmse=rmse)


def fit_training_timing(
    durations: Mapping[tuple[int, int], float]
) -> TimingFit:
    """Fit the timing constants ``(tau0, tau1)`` of the step-(3) duration law."""
    tau0, tau1, rmse = _duration_fit(durations, 1.0)
    return TimingFit(tau0=tau0, tau1=tau1, rmse=rmse)


def fit_convergence_constants(
    observations: Sequence[GapObservation],
    min_a0: float = 1e-12,
    weighting: str = "relative",
) -> ConvergenceBound:
    """Fit ``(A0, A1, A2)`` by non-negative least squares on eq. (10).

    Each observation contributes one row
    ``gap ~= A0/(T*E) + A1/K + A2*(E-1)``.  NNLS enforces the
    non-negativity the bound requires; ``A0`` is floored at ``min_a0`` to
    keep the returned :class:`ConvergenceBound` valid when the data do not
    identify the optimisation term.

    Args:
        observations: the measured gaps.
        min_a0: floor applied to the fitted ``A0``.
        weighting: ``"relative"`` scales each row by ``1/gap`` so the fit
            minimises *relative* error — essential because gaps span
            orders of magnitude between round 1 and round 100, and the
            optimizer cares about the small late-training gaps where the
            accuracy target lives.  ``"absolute"`` is the plain fit.
    """
    from scipy.optimize import nnls

    if len(observations) < 3:
        raise ValueError("need at least three observations to fit three constants")
    if weighting not in ("relative", "absolute"):
        raise ValueError(
            f"weighting must be 'relative' or 'absolute'; got {weighting!r}"
        )
    design = np.array(
        [
            [
                1.0 / (obs.rounds * obs.epochs),
                1.0 / obs.participants,
                float(obs.epochs - 1),
            ]
            for obs in observations
        ]
    )
    target = np.array([obs.gap for obs in observations])
    if weighting == "relative":
        weights = 1.0 / target
        design = design * weights[:, None]
        target = np.ones_like(target)
    solution, _ = nnls(design, target)
    a0 = max(float(solution[0]), min_a0)
    return ConvergenceBound(a0=a0, a1=float(solution[1]), a2=float(solution[2]))


def gap_observations_from_history(
    history: TrainingHistory,
    participants: int,
    f_star: float,
    stride: int = 1,
    min_gap: float = 1e-9,
    burn_in: int = 0,
) -> list[GapObservation]:
    """Convert a training history into gap observations for the fitter.

    Args:
        history: a recorded FedAvg run (fixed E and K throughout).
        participants: the ``K`` the run used.
        f_star: estimate of the minimum loss ``F(w*)`` (e.g. the loss of
            a long centralised run on the pooled data).
        stride: keep every ``stride``-th round to decorrelate samples.
        min_gap: rounds whose gap falls below this are dropped (they carry
            no information and would make the log-scale fit degenerate).
        burn_in: drop the first ``burn_in`` rounds.  Early rounds carry
            transients the three-term bound cannot represent (it has no
            K-dependent transient), and including them inflates the
            fitted ``A1``.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1; got {stride}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be non-negative; got {burn_in}")
    observations = []
    for record in history.records[burn_in::stride]:
        gap = record.train_loss - f_star
        if gap <= min_gap:
            continue
        observations.append(
            GapObservation(
                rounds=record.round_index + 1,
                epochs=record.local_epochs,
                participants=participants,
                gap=gap,
            )
        )
    return observations
