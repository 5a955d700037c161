"""A zoo of convergence-bound families — evaluating the paper's §V-A choice.

The paper adopts the Khaled–Mishchenko–Richtárik (KMR) bound and argues
it is the tightest available.  To make that claim testable, this module
implements the functional forms of the alternatives the related-work
section cites, behind one pluggable interface:

* :class:`KMRBoundModel` — eq. (10): ``A0/(TE) + A1/K + A2(E-1)``
  (wraps :class:`repro.core.convergence.ConvergenceBound`).
* :class:`StichBoundModel` — Stich, "Local SGD converges fast and
  communicates little" (ref. [7]): for strongly convex losses,
  ``S0/(K T E) + S1 / T^2`` — variance averaged over *all* ``K T E``
  gradients, plus a divergence term decaying with the square of the
  synchronisation count.
* :class:`KStepBoundModel` — Zhou & Cong's K-step-averaging analysis
  (ref. [6], non-convex rates): ``Z0 / sqrt(T E K) + Z1 (E - 1) / T``.

Every family is linear in its constants, so each can be fitted to the
same pilot observations by non-negative least squares and compared on
held-out operating points (``benchmarks/test_bench_bounds_zoo.py``).
Round-count inversion ``T*(eps, E, K)`` is generic bisection, since only
the KMR family has a closed form.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.calibration import GapObservation
from repro.core.convergence import ConvergenceBound

__all__ = [
    "ConvergenceModel",
    "KMRBoundModel",
    "StichBoundModel",
    "KStepBoundModel",
    "fit_model",
    "ALL_MODEL_FAMILIES",
]

_MAX_ROUNDS = 1e12


class ConvergenceModel(ABC):
    """A parameterised upper bound on the loss gap after training.

    Subclasses define the *feature map* ``phi(T, E, K)`` so that
    ``gap = theta . phi``; fitting is then shared NNLS machinery.
    """

    #: human-readable family name.
    name: str = "abstract"

    def __init__(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_parameters(),):
            raise ValueError(
                f"{type(self).__name__} needs {self.n_parameters()} "
                f"constants; got shape {theta.shape}"
            )
        if (theta < 0).any():
            raise ValueError("bound constants must be non-negative")
        self.theta = theta

    @classmethod
    @abstractmethod
    def n_parameters(cls) -> int:
        """Number of fitted constants."""

    @staticmethod
    @abstractmethod
    def features(rounds: float, epochs: float, participants: float) -> np.ndarray:
        """The feature vector ``phi(T, E, K)``."""

    # ------------------------------------------------------------------
    # Shared evaluation machinery.
    # ------------------------------------------------------------------
    def loss_gap(self, rounds: float, epochs: float, participants: float) -> float:
        """Evaluate the bound at ``(T, E, K)``."""
        if rounds <= 0 or epochs < 1 or participants < 1:
            raise ValueError(
                f"need T > 0, E >= 1, K >= 1; got ({rounds}, {epochs}, {participants})"
            )
        return float(self.theta @ self.features(rounds, epochs, participants))

    def asymptotic_gap(self, epochs: float, participants: float) -> float:
        """The floor the bound approaches as ``T -> inf``."""
        return self.loss_gap(_MAX_ROUNDS, epochs, participants)

    def is_feasible(self, epsilon: float, epochs: float, participants: float) -> bool:
        """Whether some finite ``T`` achieves the target gap."""
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive; got {epsilon}")
        return self.asymptotic_gap(epochs, participants) < epsilon

    def required_rounds(
        self, epsilon: float, epochs: float, participants: float
    ) -> float:
        """Smallest continuous ``T`` with ``gap <= epsilon`` (bisection).

        Every family is monotone non-increasing in ``T``, so bisection on
        ``[lo, hi]`` with geometric bracket growth is exact to ~1e-9
        relative tolerance.
        """
        if not self.is_feasible(epsilon, epochs, participants):
            raise ValueError(
                f"epsilon={epsilon} unreachable at E={epochs}, K={participants} "
                f"under the {self.name} bound"
            )
        if self.loss_gap(1e-12, epochs, participants) <= epsilon:
            return 1e-12
        lo, hi = 1e-12, 1.0
        while self.loss_gap(hi, epochs, participants) > epsilon:
            lo, hi = hi, hi * 2.0
            if hi > _MAX_ROUNDS:
                raise ValueError("required rounds exceed the search cap")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.loss_gap(mid, epochs, participants) > epsilon:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-9 * hi:
                break
        return hi

    def required_rounds_int(
        self, epsilon: float, epochs: float, participants: float
    ) -> int:
        """Integer rounds: ``max(1, ceil(T*))``."""
        return max(1, math.ceil(self.required_rounds(epsilon, epochs, participants)))

    # ------------------------------------------------------------------
    # Fit quality.
    # ------------------------------------------------------------------
    def relative_rmse(self, observations: Sequence[GapObservation]) -> float:
        """Root-mean-square *relative* error over observations."""
        if not observations:
            raise ValueError("need at least one observation")
        errors = []
        for obs in observations:
            predicted = self.loss_gap(obs.rounds, obs.epochs, obs.participants)
            errors.append((predicted - obs.gap) / obs.gap)
        return float(np.sqrt(np.mean(np.square(errors))))


class KMRBoundModel(ConvergenceModel):
    """The paper's bound (eq. (10)), in zoo clothing."""

    name = "KMR (paper)"

    @classmethod
    def n_parameters(cls) -> int:
        return 3

    @staticmethod
    def features(rounds: float, epochs: float, participants: float) -> np.ndarray:
        return np.array(
            [1.0 / (rounds * epochs), 1.0 / participants, epochs - 1.0]
        )

    def to_convergence_bound(self, min_a0: float = 1e-12) -> ConvergenceBound:
        """Convert to the closed-form :class:`ConvergenceBound`."""
        return ConvergenceBound(
            a0=max(float(self.theta[0]), min_a0),
            a1=float(self.theta[1]),
            a2=float(self.theta[2]),
        )


class StichBoundModel(ConvergenceModel):
    """Stich-style local-SGD bound: ``S0/(KTE) + S1/T^2``."""

    name = "Stich local-SGD"

    @classmethod
    def n_parameters(cls) -> int:
        return 2

    @staticmethod
    def features(rounds: float, epochs: float, participants: float) -> np.ndarray:
        return np.array(
            [1.0 / (participants * rounds * epochs), 1.0 / rounds**2]
        )


class KStepBoundModel(ConvergenceModel):
    """K-step-averaging-style bound: ``Z0/sqrt(TEK) + Z1 (E-1)/T``."""

    name = "K-step averaging"

    @classmethod
    def n_parameters(cls) -> int:
        return 2

    @staticmethod
    def features(rounds: float, epochs: float, participants: float) -> np.ndarray:
        return np.array(
            [
                1.0 / math.sqrt(rounds * epochs * participants),
                (epochs - 1.0) / rounds,
            ]
        )


ALL_MODEL_FAMILIES: tuple[type[ConvergenceModel], ...] = (
    KMRBoundModel,
    StichBoundModel,
    KStepBoundModel,
)


def fit_model(
    family: type[ConvergenceModel],
    observations: Sequence[GapObservation],
    weighting: str = "relative",
) -> ConvergenceModel:
    """Fit one bound family to observations by non-negative least squares.

    Args:
        family: the model class to fit.
        observations: measured loss gaps at ``(T, E, K)`` points.
        weighting: ``"relative"`` (rows scaled by ``1/gap``) or
            ``"absolute"`` — same semantics as
            :func:`repro.core.calibration.fit_convergence_constants`.
    """
    from scipy.optimize import nnls

    if len(observations) < family.n_parameters():
        raise ValueError(
            f"need at least {family.n_parameters()} observations to fit "
            f"{family.__name__}; got {len(observations)}"
        )
    if weighting not in ("relative", "absolute"):
        raise ValueError(
            f"weighting must be 'relative' or 'absolute'; got {weighting!r}"
        )
    design = np.array(
        [family.features(o.rounds, o.epochs, o.participants) for o in observations]
    )
    target = np.array([o.gap for o in observations])
    if weighting == "relative":
        weights = 1.0 / target
        design = design * weights[:, None]
        target = np.ones_like(target)
    theta, _ = nnls(design, target)
    return family(theta)
