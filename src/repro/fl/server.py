"""Coordinator: model aggregation and global state (steps (2) and (4)).

The coordinator dispatches the global model to the selected edge servers
at the beginning of each round and aggregates the returned local models.
The paper's aggregation rule (eq. (2)) is the unweighted mean over the
``K`` participating servers — valid because the prototype allocates equal
dataset sizes.  A sample-weighted variant (classic FedAvg) is provided
for the heterogeneous-size extension.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.fl.client import CohortUpdates, LocalUpdate
from repro.fl.model import LogisticRegressionConfig, LogisticRegressionModel

if TYPE_CHECKING:
    from repro.fl.population import AggregationTree
    from repro.obs.observer import Observer

__all__ = [
    "Coordinator",
    "NonFiniteUpdateError",
    "aggregate_mean",
    "aggregate_weighted",
]


class NonFiniteUpdateError(ValueError):
    """An uploaded update contained NaN/Inf parameters.

    Raised by :meth:`Coordinator.aggregate` before the poisoned vector
    can enter the global average.  Carries the offending client ids so
    the resilience layer can drop exactly those updates and retry the
    aggregation over the finite survivors.
    """

    def __init__(self, client_ids: list[int]) -> None:
        super().__init__(
            f"non-finite parameters in updates from clients {client_ids}"
        )
        self.client_ids = tuple(client_ids)


def aggregate_mean(updates: CohortUpdates | Sequence[LocalUpdate]) -> np.ndarray:
    """Unweighted average of local parameter vectors — eq. (2) of the paper.

    An axis-0 mean over the cohort's ``(K, P)`` rows, in row order.
    """
    cohort = CohortUpdates.from_updates(updates)
    if not len(cohort):
        raise ValueError("cannot aggregate an empty list of updates")
    return cohort.parameters.mean(axis=0)


def aggregate_weighted(
    updates: CohortUpdates | Sequence[LocalUpdate],
) -> np.ndarray:
    """Sample-count-weighted average (classic FedAvg aggregation)."""
    cohort = CohortUpdates.from_updates(updates)
    if not len(cohort):
        raise ValueError("cannot aggregate an empty list of updates")
    weights = cohort.n_samples.astype(float)
    total = weights.sum()
    if total <= 0:
        raise ValueError("total sample count across updates must be positive")
    return (weights[:, None] * cohort.parameters).sum(axis=0) / total


class Coordinator:
    """Holds the global model and applies the aggregation rule.

    Args:
        model_config: architecture of the shared model.
        aggregation: ``"mean"`` (paper's eq. (2)) or ``"weighted"``
            (classic FedAvg, weights by local dataset size).
        initial_parameters: optional starting point ``omega_0``; defaults
            to the zero vector, which for logistic regression is the
            conventional neutral initialisation.
        aggregation_tree: optional
            :class:`~repro.fl.population.AggregationTree`.  When set
            (and ``aggregation="mean"``), a round's updates fold through
            fog tier nodes before the cloud combines the tier partials —
            cloud fan-in ``min(tiers, K)`` instead of ``K``.  The tiered
            fold equals the flat mean to ``~1e-12`` (summation order
            differs), which is why it is opt-in rather than the default.
    """

    def __init__(
        self,
        model_config: LogisticRegressionConfig,
        aggregation: str = "mean",
        initial_parameters: np.ndarray | None = None,
        observer: Observer | None = None,
        aggregation_tree: "AggregationTree | None" = None,
    ) -> None:
        self._observer = observer
        if aggregation not in ("mean", "weighted"):
            raise ValueError(
                f"aggregation must be 'mean' or 'weighted'; got {aggregation!r}"
            )
        if aggregation_tree is not None and aggregation != "mean":
            raise ValueError(
                "aggregation_tree requires the 'mean' rule; "
                f"got aggregation={aggregation!r}"
            )
        self.model_config = model_config
        self.aggregation = aggregation
        self.aggregation_tree = aggregation_tree
        if initial_parameters is None:
            # The config's factory defines omega_0 (zeros for logistic
            # regression, deterministic He init for the MLP extension);
            # clients build from the same factory, so everyone agrees.
            self._parameters = model_config.build().get_parameters()
        else:
            initial_parameters = np.asarray(initial_parameters, dtype=float)
            if initial_parameters.shape != (model_config.n_parameters,):
                raise ValueError(
                    f"initial_parameters must have shape "
                    f"({model_config.n_parameters},); got {initial_parameters.shape}"
                )
            self._parameters = initial_parameters.copy()
        self.rounds_completed = 0
        # Bumped only when aggregation actually changes the model (a
        # skipped round carries the parameters forward unchanged), so
        # evaluation caches can key on it.
        self.parameters_version = 0

    @property
    def global_parameters(self) -> np.ndarray:
        """Copy of the current global parameter vector ``omega_t``."""
        return self._parameters.copy()

    def global_model(self, copy: bool = True) -> LogisticRegressionModel:
        """Materialise the global parameters as a model for evaluation.

        ``copy=False`` loads the coordinator's vector as a read-only
        view — safe for immediate evaluation, but the returned model
        must not be trained or kept across an aggregation.
        """
        model = self.model_config.build()
        model.set_parameters(self._parameters, copy=copy)
        return model

    def skip_round(self) -> np.ndarray:
        """Advance to round ``t + 1`` without touching the global model.

        The graceful-degradation path: when a round fails (every upload
        lost, or fewer survivors than the quorum), the coordinator
        carries the last good model forward instead of aggregating.
        Returns the (unchanged) global parameter vector.
        """
        self.rounds_completed += 1
        if self._observer is not None:
            self._observer.counter("fl.rounds_skipped").inc()
            self._observer.emit(
                "server.skip_round", round=self.rounds_completed - 1
            )
        return self.global_parameters

    def aggregate(
        self, updates: CohortUpdates | Sequence[LocalUpdate]
    ) -> np.ndarray:
        """Apply the aggregation rule and advance to round ``t + 1``.

        Takes the round's :class:`~repro.fl.client.CohortUpdates` (a
        list of :class:`LocalUpdate` is wrapped once).  Returns the new
        global parameter vector ``omega_{t+1}``.

        The finite check reads the ``(P,)`` aggregate, not the ``(K, P)``
        matrix: a NaN or infinity in any row makes its column of the
        mean, weighted sum or tier fold non-finite, so a finite
        aggregate proves every row finite.  Only a non-finite aggregate
        pays a pass over the rows to name the offenders (none when
        finite rows overflowed, which is accepted as before).

        Raises:
            NonFiniteUpdateError: when any update carries NaN/Inf
                parameters — a corrupted upload must never poison the
                global model.
        """
        started = time.perf_counter()
        cohort = CohortUpdates.from_updates(updates)
        with np.errstate(invalid="ignore"):
            if self.aggregation_tree is not None:
                parameters = self.aggregation_tree.fold_updates(cohort)
            elif self.aggregation == "mean":
                parameters = aggregate_mean(cohort)
            else:
                parameters = aggregate_weighted(cohort)
        if not np.isfinite(parameters).all():
            rows = np.flatnonzero(~np.isfinite(cohort.parameters).all(axis=1))
            poisoned = [int(c) for c in cohort.client_ids[rows]]
            if poisoned:
                if self._observer is not None:
                    self._observer.counter("fl.nonfinite_rejected").inc(
                        len(poisoned)
                    )
                    self._observer.emit(
                        "server.reject_nonfinite",
                        round=self.rounds_completed,
                        clients=poisoned,
                    )
                raise NonFiniteUpdateError(poisoned)
        self._parameters = parameters
        self.rounds_completed += 1
        self.parameters_version += 1
        if self._observer is not None:
            self._observer.counter("fl.aggregations").inc()
            if self.aggregation_tree is not None:
                self._observer.counter("fl.tree_aggregations").inc()
                self._observer.counter("fl.tree_fan_in").inc(
                    self.aggregation_tree.fan_in(len(cohort))
                )
            self._observer.histogram("profile.aggregate_s").observe(
                time.perf_counter() - started
            )
            self._observer.emit(
                "server.aggregate",
                round=self.rounds_completed - 1,
                n_updates=len(cohort),
                aggregation=self.aggregation,
            )
        return self.global_parameters
