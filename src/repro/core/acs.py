"""Alternate Convex Search — Algorithm 1 of the paper.

Theorem 1 establishes that the reduced objective (13a) is strictly
biconvex in ``(K, E)``.  ACS (Gorski, Pfeuffer & Klamroth 2007) exploits
this: alternately minimise the objective exactly in one variable while
holding the other fixed, using the closed-form per-variable optima of
eqs. (15)/(17), until the objective improves by less than a target
residual ``xi``.  Each sweep can only decrease the objective, so the
iteration converges to a partial optimum.

After the continuous search converges, the solver optionally *rounds to
integers*: it evaluates the objective (with integer ``T = ceil(T*)``) at
the four integer neighbours of the continuous solution and returns the
feasible minimiser — addressing the round-up gap the paper mentions when
comparing the analytic ``E*`` with the trace-measured optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.closed_form import e_star, k_star
from repro.core.objective import EnergyObjective

if TYPE_CHECKING:
    from repro.obs.observer import Observer

__all__ = ["ACSIterate", "ACSResult", "ACSSolver"]


@dataclass(frozen=True)
class ACSIterate:
    """One sweep of the ACS loop (after updating both K and E)."""

    iteration: int
    participants: float
    epochs: float
    objective_value: float


@dataclass(frozen=True)
class ACSResult:
    """Outcome of an ACS solve.

    Attributes:
        participants: continuous optimal ``K``.
        epochs: continuous optimal ``E``.
        objective_value: continuous objective at the solution.
        participants_int / epochs_int / rounds_int: integer plan obtained
            by neighbour rounding (``None`` if rounding was disabled).
        energy_int: objective value of the integer plan.
        converged: whether the residual criterion was met.
        iterates: full iterate history for convergence diagnostics.
    """

    participants: float
    epochs: float
    objective_value: float
    participants_int: int | None
    epochs_int: int | None
    rounds_int: int | None
    energy_int: float | None
    converged: bool
    iterates: tuple[ACSIterate, ...] = field(default_factory=tuple)

    @property
    def n_iterations(self) -> int:
        return len(self.iterates)


class ACSSolver:
    """Alternate Convex Search over the biconvex energy objective.

    Args:
        objective: the reduced objective ``E_hat(K, E)``.
        residual: stopping threshold ``xi`` on the objective improvement
            between successive sweeps (Algorithm 1's input).
        max_iterations: hard cap on sweeps (the paper's algorithm loops
            unboundedly; biconvexity makes a small cap sufficient).
        observer: optional telemetry sink; each sweep emits an
            ``acs.iteration`` event with the current objective value and
            updates the ``acs.objective`` gauge.
    """

    def __init__(
        self,
        objective: EnergyObjective,
        residual: float = 1e-9,
        max_iterations: int = 200,
        observer: "Observer | None" = None,
    ) -> None:
        if residual <= 0:
            raise ValueError(f"residual must be positive; got {residual}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1; got {max_iterations}")
        self.objective = objective
        self.residual = residual
        self.max_iterations = max_iterations
        self._observer = observer
        # Integer-plan energies already evaluated by the plateau walks;
        # distinct (K, E) pairs recur heavily across the K scan.
        self._energy_cache: dict[tuple[int, int], float] = {}

    def _initial_point(
        self, k0: float | None, e0: float | None
    ) -> tuple[float, float]:
        """Pick a feasible starting point, defaulting to (N, 1).

        ``E = 1`` is always inside the drift constraint and ``K = N`` is
        the most forgiving K, so (N, 1) is feasible whenever the problem
        is feasible at all.
        """
        e = 1.0 if e0 is None else float(e0)
        if k0 is None:
            lo, hi = self.objective.k_domain(e)
            k = hi
        else:
            k = float(k0)
        if not self.objective.is_feasible(k, e):
            raise ValueError(
                f"initial point (K={k}, E={e}) is infeasible for "
                f"epsilon={self.objective.epsilon}"
            )
        return k, e

    def solve(
        self,
        k0: float | None = None,
        e0: float | None = None,
        round_to_integers: bool = True,
    ) -> ACSResult:
        """Run Algorithm 1 from ``(k0, e0)`` and return the solution.

        Raises ``ValueError`` if the problem is infeasible (no ``(K, E)``
        with ``K <= N`` can reach the target accuracy).
        """
        obs = self._observer
        k, e = self._initial_point(k0, e0)
        value = self.objective.value(k, e)
        iterates: list[ACSIterate] = [ACSIterate(0, k, e, value)]
        converged = False
        if obs is not None:
            obs.emit(
                "acs.iteration", iteration=0, participants=k, epochs=e,
                objective=value,
            )

        for iteration in range(1, self.max_iterations + 1):
            # Step 1: exact minimisation in K at fixed E (eq. (15)).
            k = k_star(self.objective, e)
            # Step 2: exact minimisation in E at fixed K (eq. (17), exact root).
            e = e_star(self.objective, k)
            new_value = self.objective.value(k, e)
            iterates.append(ACSIterate(iteration, k, e, new_value))
            if obs is not None:
                obs.counter("acs.iterations").inc()
                obs.gauge("acs.objective").set(new_value)
                obs.emit(
                    "acs.iteration", iteration=iteration, participants=k,
                    epochs=e, objective=new_value,
                )
            if abs(value - new_value) <= self.residual:
                converged = True
                value = new_value
                break
            value = new_value

        result_int = self._round_solution(k, e) if round_to_integers else None
        if obs is not None:
            obs.emit(
                "acs.solve", converged=converged, iterations=len(iterates) - 1,
                participants=k, epochs=e, objective=value,
            )
        return ACSResult(
            participants=k,
            epochs=e,
            objective_value=value,
            participants_int=result_int[0] if result_int else None,
            epochs_int=result_int[1] if result_int else None,
            rounds_int=result_int[2] if result_int else None,
            energy_int=result_int[3] if result_int else None,
            converged=converged,
            iterates=tuple(iterates),
        )

    def _integer_energy(self, k: int, e: int) -> float | None:
        """Integer-plan energy, or ``None`` when ``(k, e)`` is infeasible."""
        if not self.objective.is_feasible(k, e):
            return None
        return self.objective.value_integer(k, e)

    def _min_epochs_for_rounds(self, k: int, rounds: int) -> int | None:
        """Smallest feasible integer E with ``T*(K, E) <= rounds``.

        The integer objective is piecewise in E: within the plateau where
        ``ceil(T*) == m`` the per-round cost ``K (B0 E + B1)`` grows
        linearly in E, so the best E on each plateau is its smallest
        member.  The plateau boundary solves the quadratic
        ``m A2 K E^2 - m C4 E + A0 K <= 0`` (from ``T*(E) <= m``), or the
        linear form when ``A2 = 0``.  Returns ``None`` for an empty
        plateau.
        """
        bound = self.objective.bound
        eps = self.objective.epsilon
        a0, a1, a2 = bound.a0, bound.a1, bound.a2
        c4 = eps * k - a1 + a2 * k
        if c4 <= 0:
            return None
        # Roots of (m A2 K) E^2 - (m C4) E + A0 K = 0.  The small root is
        # computed as 2c / (b + sqrt(D)) — the naive (b - sqrt(D)) / (2a)
        # cancels catastrophically when A2 is tiny.  An a-coefficient
        # that underflows to zero degrades to the A2 = 0 linear form.
        a_coef = rounds * a2 * k
        b_coef = rounds * c4
        c_coef = a0 * k
        if a_coef == 0.0:
            root_low = c_coef / (rounds * (eps * k - a1))
            candidate = max(1, math.ceil(root_low))
        else:
            disc = b_coef**2 - 4.0 * a_coef * c_coef
            if disc < 0:
                return None
            sqrt_disc = math.sqrt(disc)
            root_low = 2.0 * c_coef / (b_coef + sqrt_disc)
            root_high = (b_coef + sqrt_disc) / (2.0 * a_coef)
            candidate = max(1, math.ceil(root_low))
            if candidate > root_high:
                return None
        if not self.objective.is_feasible(k, candidate):
            return None
        if bound.required_rounds(eps, candidate, k) > rounds + 1e-9:
            return None
        return candidate

    def _plateau_epochs_batch(
        self, k: int, rounds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`_min_epochs_for_rounds` over many round counts.

        Returns ``(epochs, valid)`` arrays aligned with ``rounds``:
        ``epochs[i]`` is the plateau-minimal integer E for ``rounds[i]``
        wherever ``valid[i]``, matching the scalar method element for
        element (the arithmetic mirrors it term by term, including the
        cancellation-stable small quadratic root).
        """
        objective = self.objective
        bound = objective.bound
        eps = objective.epsilon
        a0, a1, a2 = bound.a0, bound.a1, bound.a2
        m = np.asarray(rounds, dtype=float)
        c4 = eps * k - a1 + a2 * k
        if c4 <= 0 or not 1 <= k <= objective.n_servers:
            return np.zeros(m.shape), np.zeros(m.shape, dtype=bool)
        a_coef = m * a2 * k
        b_coef = m * c4
        c_coef = a0 * k
        quadratic = a_coef != 0.0
        ok = np.ones(m.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            linear_root = c_coef / (m * (eps * k - a1))
            disc = b_coef**2 - 4.0 * a_coef * c_coef
            sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
            quad_low = 2.0 * c_coef / (b_coef + sqrt_disc)
            quad_high = (b_coef + sqrt_disc) / (2.0 * a_coef)
            root_low = np.where(quadratic, quad_low, linear_root)
            candidate = np.maximum(1.0, np.ceil(root_low))
            ok &= np.where(quadratic, disc >= 0, True)
            ok &= np.where(quadratic, candidate <= quad_high, True)
            # Feasibility of (k, candidate) — the scalar is_feasible check.
            ok &= eps > a1 / k + a2 * (candidate - 1.0)
            # T*(candidate) must actually fit within the plateau's rounds.
            denominator = (eps * k - a1 - a2 * k * (candidate - 1.0)) * candidate
            required = a0 * k / denominator
            ok &= ~(required > m + 1e-9)
        return candidate, ok

    # Plateau indices evaluated per vectorized batch of the walk below.
    _PLATEAU_CHUNK = 4096

    def _cached_integer_energy(self, k: int, epochs: int) -> float:
        key = (k, epochs)
        energy = self._energy_cache.get(key)
        if energy is None:
            energy = self.objective.value_integer(k, epochs)
            self._energy_cache[key] = energy
        return energy

    def _best_epochs_for_participants(
        self, k: int, max_plateaus: int = 200_000, patience: int = 1024
    ) -> tuple[int, float] | None:
        """Exact best integer ``E`` for a fixed integer ``K``.

        Walks the ``T = m`` plateaus in increasing ``m``, evaluating each
        plateau at its optimal (smallest) E.  The walk naturally ends at
        ``m = ceil(T*(E=1))``, where E has shrunk to 1 and further rounds
        only add cost.  The plateau-minimum sequence is *not* unimodal
        (the ceiling on E adds jitter, and with ``B1 ~ 0`` the tail can
        keep descending), so the walk is exhaustive up to that end point;
        ``patience`` only guards the pathological case where the end
        plateau exceeds ``max_plateaus``.

        Plateau boundaries are computed in vectorized chunks
        (:meth:`_plateau_epochs_batch`) and consecutive equal plateau-Es
        are dropped before evaluation — the same dedupe the scalar loop
        performed one ``m`` at a time.
        """
        best: tuple[int, float] | None = None
        worse_streak = 0
        previous_epochs: int | None = None
        start = 1
        while start <= max_plateaus:
            stop = min(start + self._PLATEAU_CHUNK, max_plateaus + 1)
            candidates, valid = self._plateau_epochs_batch(
                k, np.arange(start, stop, dtype=float)
            )
            start = stop
            if not valid.any():
                continue
            plateau_epochs = candidates[valid].astype(int)
            # Consecutive m with the same plateau-E: strictly more rounds
            # at the same per-round cost, never an improvement.
            keep = np.ones(plateau_epochs.shape, dtype=bool)
            keep[1:] = plateau_epochs[1:] != plateau_epochs[:-1]
            if previous_epochs is not None and plateau_epochs[0] == previous_epochs:
                keep[0] = False
            previous_epochs = int(plateau_epochs[-1])
            for epochs in plateau_epochs[keep]:
                epochs = int(epochs)
                energy = self._cached_integer_energy(k, epochs)
                if best is None or energy < best[1]:
                    best = (epochs, energy)
                    worse_streak = 0
                else:
                    worse_streak += 1
                if epochs == 1 or worse_streak >= patience:
                    return best
        return best

    def _seed_epochs(self, k: int, e_continuous: float) -> int:
        """Clamp the integer-search seed into the useful E range.

        With a weak drift term (``A2 ~ 0``) the continuous optimum in E
        runs off to the domain cap, but the *integer* objective provably
        increases once ``ceil(T*) == 1`` (energy is then ``K (B0 E + B1)``,
        linear in E).  Binary-search the smallest integer E whose required
        round count is already 1 and seed there instead, so the local
        descent starts within a few steps of the integer optimum.
        """
        bound = self.objective.bound
        epsilon = self.objective.epsilon
        seed = max(int(round(e_continuous)), 1)
        if not self.objective.is_feasible(k, seed):
            return 1
        if bound.required_rounds(epsilon, seed, k) >= 1.0:
            return seed
        lo, hi = 1, seed  # T*(lo) may be >= 1; T*(hi) < 1; T* decreasing in E
        while lo < hi:
            mid = (lo + hi) // 2
            if (
                self.objective.is_feasible(k, mid)
                and bound.required_rounds(epsilon, mid, k) < 1.0
            ):
                hi = mid
            else:
                lo = mid + 1
        return lo

    # K values on each side of the continuous optimum scanned when the
    # testbed is too large to scan exhaustively.
    _K_WINDOW = 8

    def _round_solution(self, k: float, e: float) -> tuple[int, int, int, float]:
        """Round the continuous optimum to the best integer plan.

        The *integer* objective uses ``T = ceil(T*)``, whose plateaus make
        the landscape non-convex: the best integer plan can sit well away
        from the continuous optimum (the "roundup" gap the paper notes in
        Fig. 6), and single-step descent gets trapped between plateaus.
        Instead, for each candidate K the exact best integer E is found by
        the plateau walk of :meth:`_best_epochs_for_participants`.  All K
        are scanned when the testbed is small; otherwise a window around
        the continuous ``K*`` (the objective is strictly convex in K, so
        the integer optimum in K stays near it).
        """
        n = self.objective.n_servers
        if n <= 4 * self._K_WINDOW:
            k_candidates = range(1, n + 1)
        else:
            center = int(round(k))
            lo = max(1, center - self._K_WINDOW)
            hi = min(n, center + self._K_WINDOW)
            k_candidates = range(lo, hi + 1)

        best: tuple[int, int, float] | None = None
        for ki in k_candidates:
            if not self.objective.is_feasible(ki, 1):
                # E = 1 is the most forgiving epoch count; if even that is
                # infeasible at this K, every E is (the drift floor only
                # grows with E).
                continue
            found = self._best_epochs_for_participants(ki)
            if found is None:
                continue
            epochs, energy = found
            if best is None or energy < best[2]:
                best = (ki, epochs, energy)
        if best is None:
            raise ValueError("no feasible integer plan exists")
        ki, ei, energy = best
        rounds = self.objective.bound.required_rounds_int(
            self.objective.epsilon, ei, ki
        )
        return ki, ei, rounds, energy
