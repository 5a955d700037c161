"""Asynchronous federated learning (FedAsync-style) on the event engine.

The paper's FEI loop is *synchronous*: every round waits for its slowest
participant.  The asynchronous alternative lets each edge server train
continuously at its own pace; the coordinator merges every arriving
update immediately with a staleness-discounted weight

    w_global <- (1 - alpha_s) * w_global + alpha_s * w_client,
    alpha_s = alpha * (1 + staleness)^(-beta),

where staleness is the number of global updates that happened since the
client downloaded its base model.  No device ever idles waiting for a
round barrier, so wall-clock time improves on jittery fleets — at the
cost of stale gradients.

The loop runs on :class:`repro.sim.engine.Simulator`: client completion
times are genuine events, so heterogeneous/jittered device speeds
translate directly into update interleavings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.client import EdgeServerClient, shared_model_config
from repro.fl.model import evaluation_rows
from repro.fl.sgd import SGDConfig
from repro.sim.engine import Simulator

__all__ = ["AsyncConfig", "AsyncUpdateRecord", "AsyncResult", "AsyncFederatedTrainer"]


@dataclass(frozen=True)
class AsyncConfig:
    """Hyper-parameters of one asynchronous training run.

    Attributes:
        max_updates: total number of merged updates (the async analogue
            of ``K x T``).
        local_epochs: epochs per local job ``E``.
        mixing_alpha: base mixing weight ``alpha`` in (0, 1].
        staleness_beta: polynomial staleness-discount exponent ``beta``
            (0 disables discounting).
        sgd: local optimizer settings (the learning rate decays per
            *merged update* rather than per round).
        eval_every: evaluate the global model every this many merges.
        target_accuracy: optional early stop.
        seed: randomness for anything the duration function leaves open.
    """

    max_updates: int
    local_epochs: int
    mixing_alpha: float = 0.6
    staleness_beta: float = 0.5
    sgd: SGDConfig = SGDConfig()
    eval_every: int = 1
    target_accuracy: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_updates < 1:
            raise ValueError(f"max_updates must be >= 1; got {self.max_updates}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1; got {self.local_epochs}")
        if not 0.0 < self.mixing_alpha <= 1.0:
            raise ValueError(
                f"mixing_alpha must be in (0, 1]; got {self.mixing_alpha}"
            )
        if self.staleness_beta < 0:
            raise ValueError(
                f"staleness_beta must be non-negative; got {self.staleness_beta}"
            )
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1; got {self.eval_every}")
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            raise ValueError(
                f"target_accuracy must be in (0, 1]; got {self.target_accuracy}"
            )


@dataclass(frozen=True)
class AsyncUpdateRecord:
    """One merged update."""

    update_index: int
    time_s: float
    client_id: int
    staleness: int
    mixing_weight: float
    train_loss: float | None
    test_accuracy: float | None


@dataclass(frozen=True)
class AsyncResult:
    """Outcome of an asynchronous run."""

    records: tuple[AsyncUpdateRecord, ...]
    wall_clock_s: float
    updates: int
    reached_target: bool
    final_loss: float
    final_accuracy: float

    def accuracy_at_time(self, time_s: float) -> float | None:
        """Last evaluated accuracy at or before ``time_s``."""
        best = None
        for record in self.records:
            if record.time_s > time_s:
                break
            if record.test_accuracy is not None:
                best = record.test_accuracy
        return best

    def time_to_accuracy(self, target: float) -> float | None:
        """Simulated seconds until the evaluated accuracy first hits target."""
        for record in self.records:
            if record.test_accuracy is not None and record.test_accuracy >= target:
                return record.time_s
        return None


class AsyncFederatedTrainer:
    """Continuous asynchronous training over a client fleet.

    Args:
        clients: the edge-server clients.
        config: async hyper-parameters.
        train_eval / test_eval: evaluation datasets.
        duration_fn: maps ``client_id -> seconds`` one local job takes
            (called per job, so jittered device models produce varying
            durations).  This is where the hardware substrate plugs in.
    """

    def __init__(
        self,
        clients: Sequence[EdgeServerClient],
        config: AsyncConfig,
        train_eval: Dataset,
        test_eval: Dataset,
        duration_fn: Callable[[int], float],
    ) -> None:
        if not clients:
            raise ValueError("need at least one client")
        self.clients = clients
        self.config = config
        self.train_eval = train_eval
        self.test_eval = test_eval
        self.duration_fn = duration_fn
        model_config = shared_model_config(clients)
        self._global = model_config.build().get_parameters()
        self._model_config = model_config
        self._version = 0
        self._records: list[AsyncUpdateRecord] = []
        self._stopped = False
        self._eval_sets: tuple[Dataset, Dataset] | None = None

    def _mixing_weight(self, staleness: int) -> float:
        return self.config.mixing_alpha * (1.0 + staleness) ** (
            -self.config.staleness_beta
        )

    def _evaluate(self) -> tuple[float, float]:
        # Evaluation rows, built at the first evaluation and then held
        # (see repro.fl.model.evaluation_rows).
        if self._eval_sets is None:
            self._eval_sets = tuple(
                Dataset(
                    evaluation_rows(
                        data.features,
                        self._model_config,
                        self.config.max_updates // self.config.eval_every + 1,
                    ),
                    data.labels,
                    data.n_classes,
                )
                for data in (self.train_eval, self.test_eval)
            )
        train_eval, test_eval = self._eval_sets
        model = self._model_config.build()
        model.set_parameters(self._global)
        loss = model.loss(train_eval.features, train_eval.labels)
        accuracy = model.accuracy(test_eval.features, test_eval.labels)
        return loss, accuracy

    def run(self) -> AsyncResult:
        """Run until ``max_updates`` merges (or the accuracy target)."""
        config = self.config
        simulator = Simulator()

        def start_job(client_id: int) -> Callable[[Simulator], None]:
            base_version = self._version
            base_parameters = self._global.copy()

            def complete(sim: Simulator) -> None:
                if self._stopped:
                    return
                client = self.clients[client_id]
                learning_rate = config.sgd.rate_at_round(self._version)
                update = client.train(
                    base_parameters,
                    epochs=config.local_epochs,
                    learning_rate=learning_rate,
                    sgd=config.sgd,
                )
                staleness = self._version - base_version
                weight = self._mixing_weight(staleness)
                self._global = (
                    1.0 - weight
                ) * self._global + weight * update.parameters
                self._version += 1

                evaluate = (
                    self._version % config.eval_every == 0
                    or self._version >= config.max_updates
                )
                loss = accuracy = None
                if evaluate:
                    loss, accuracy = self._evaluate()
                self._records.append(
                    AsyncUpdateRecord(
                        update_index=self._version - 1,
                        time_s=sim.now,
                        client_id=client_id,
                        staleness=staleness,
                        mixing_weight=weight,
                        train_loss=loss,
                        test_accuracy=accuracy,
                    )
                )
                hit_target = (
                    config.target_accuracy is not None
                    and accuracy is not None
                    and accuracy >= config.target_accuracy
                )
                if self._version >= config.max_updates or hit_target:
                    self._stopped = True
                    return
                sim.schedule(
                    self.duration_fn(client_id), start_job(client_id)
                )

            return complete

        for client_id in range(len(self.clients)):
            simulator.schedule(self.duration_fn(client_id), start_job(client_id))
        try:
            simulator.run()
        finally:
            # ``start_job`` reaches itself through its closure; break the
            # cycle so the trainer is freed without waiting for the GC.
            del start_job

        final_loss, final_accuracy = self._evaluate()
        reached = (
            config.target_accuracy is not None
            and final_accuracy >= config.target_accuracy
        )
        return AsyncResult(
            records=tuple(self._records),
            wall_clock_s=simulator.now,
            updates=self._version,
            reached_target=reached,
            final_loss=final_loss,
            final_accuracy=final_accuracy,
        )
