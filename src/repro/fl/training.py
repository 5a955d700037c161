"""The federated training loop (FedAvg over edge servers, §III-A).

This ties the substrate together: a :class:`Coordinator`, a population of
:class:`EdgeServerClient` objects, a :class:`ClientSampler`, and the SGD
schedule.  Each global round executes the paper's four steps:

1. *data collection* happens up-front (datasets are pre-loaded, as in the
   prototype);
2. a subset ``K_t`` of edge servers receives ``omega_t`` and runs ``E``
   local epochs;
3. updated local models are uploaded;
4. the coordinator aggregates them into ``omega_{t+1}``.

The loop optionally injects client *dropouts* (stragglers that fail to
upload), an extension used by the failure-injection tests: FedAvg then
aggregates over the surviving subset.

Beyond the simple Bernoulli dropout, the loop integrates the full fault
subsystem (:mod:`repro.faults`): a :class:`~repro.faults.FaultInjector`
decides crashes, slowdowns, burst loss, battery deaths and corrupted
payloads, while a :class:`~repro.faults.ResilienceConfig` governs how
the round survives them — upload retries with capped backoff, per-upload
timeouts, a round deadline with partial aggregation, a minimum quorum
with graceful degradation (the last good model is carried forward via
:meth:`~repro.fl.server.Coordinator.skip_round`), and deterministic
resampling of crashed clients.  All randomness runs on independent
named streams (sampling, dropout, faults), so enabling one failure mode
never perturbs another's draws.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.faults.models import substream
from repro.faults.policies import (
    ResilienceConfig,
    RoundResilienceReport,
    simulate_upload,
)
from repro.fl.client import ClientFleet, EdgeServerClient, shared_model_config
from repro.fl.compression import ErrorFeedback
from repro.fl.engine import AUTO_BACKEND, BACKENDS, create_engine
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro.fl.model import LogisticRegressionConfig, evaluation_rows
from repro.fl.partition import Partitions
from repro.fl.sampling import ClientSampler, UniformSampler
from repro.fl.server import Coordinator
from repro.fl.sgd import LearningRateSchedule, SGDConfig
from repro.net.channel import ChannelConfig
from repro.perf.cache import EvalCache
from repro.perf.cancel import check_cancelled

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.fl.compression import Compressor
    from repro.obs.observer import Observer

__all__ = ["FederatedConfig", "FederatedTrainer", "build_clients"]


@dataclass(frozen=True)
class FederatedConfig:
    """Hyper-parameters of one federated training run.

    Attributes:
        n_rounds: maximum number of global coordination rounds ``T``.
        participants_per_round: the paper's ``K``.
        local_epochs: the paper's ``E``.
        sgd: local optimizer configuration.
        target_accuracy: optional early-stopping threshold; when set, the
            loop stops at the first round whose test accuracy reaches it
            (this is how "required T for a target accuracy" is measured).
        dropout_probability: probability that a selected client fails to
            upload its update in a given round (failure injection; the
            paper's prototype has no failures, so the default is 0).
        proximal_mu: FedProx proximal strength forwarded to every client
            (0 = plain FedAvg, the paper's algorithm).
        overselection: extra clients selected per round beyond ``K``
            (production-FL straggler mitigation): ``K + overselection``
            clients train, but only the ``K`` fastest uploads are
            aggregated.  Which clients count as fastest is decided by the
            trainer's ``completion_ranker`` (arrival order by default).
            Over-selected stragglers still burn energy — the trade-off
            the extension benchmarks quantify.
        seed: seed for sampling and dropout randomness.
        backend: execution engine for the round's local training —
            ``"sequential"`` (reference), ``"population"`` (vectorized
            struct-of-arrays cohort training; equivalent to sequential
            to ``atol=1e-10``), ``"batched"`` (deprecated spelling of
            ``"population"``, always float64), ``"pool"`` (a spelling
            of ``"sequential"``, kept because backend names are hashed
            into unit keys), or ``"auto"`` (``"population"`` where the
            spec is vectorizable, ``"sequential"`` otherwise).  See
            :mod:`repro.fl.engine`.
        population_dtype: compute dtype of the ``"population"``
            backend — ``"float64"`` (default, equivalence-tested) or
            ``"float32"`` (accuracy delta measured by
            ``benchmarks/bench_population.py``).  The pooled rows keep
            their stored dtype either way.
    """

    n_rounds: int
    participants_per_round: int
    local_epochs: int
    sgd: SGDConfig = field(default_factory=SGDConfig)
    target_accuracy: float | None = None
    dropout_probability: float = 0.0
    proximal_mu: float = 0.0
    overselection: int = 0
    seed: int = 0
    backend: str = "sequential"
    population_dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1; got {self.n_rounds}")
        if self.participants_per_round < 1:
            raise ValueError(
                "participants_per_round must be >= 1; "
                f"got {self.participants_per_round}"
            )
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1; got {self.local_epochs}")
        if not 0.0 <= self.dropout_probability < 1.0:
            raise ValueError(
                f"dropout_probability must be in [0, 1); got {self.dropout_probability}"
            )
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            raise ValueError(
                f"target_accuracy must be in (0, 1]; got {self.target_accuracy}"
            )
        if self.overselection < 0:
            raise ValueError(
                f"overselection must be non-negative; got {self.overselection}"
            )
        if self.proximal_mu < 0:
            raise ValueError(
                f"proximal_mu must be non-negative; got {self.proximal_mu}"
            )
        if self.backend not in BACKENDS and self.backend != AUTO_BACKEND:
            raise ValueError(
                f"backend must be one of {BACKENDS} or {AUTO_BACKEND!r}; "
                f"got {self.backend!r}"
            )
        if self.population_dtype not in ("float64", "float32"):
            raise ValueError(
                "population_dtype must be 'float64' or 'float32'; "
                f"got {self.population_dtype!r}"
            )


def build_clients(
    partitions: "Partitions | list[Dataset]",
    model_config: LogisticRegressionConfig,
    seed: int = 0,
) -> ClientFleet:
    """One :class:`EdgeServerClient` per partition, each built on first use.

    A list of partition datasets is pooled into one
    :class:`~repro.fl.partition.Partitions` table first, so every
    caller takes the same path.
    """
    return ClientFleet(Partitions.from_datasets(partitions), model_config, seed)


class FederatedTrainer:
    """Runs FedAvg rounds and records a :class:`TrainingHistory`."""

    def __init__(
        self,
        clients: Sequence[EdgeServerClient],
        config: FederatedConfig,
        train_eval: Dataset,
        test_eval: Dataset,
        sampler: ClientSampler | None = None,
        coordinator: Coordinator | None = None,
        completion_ranker: Callable[[int, list[int]], list[int]] | None = None,
        update_compressor: Compressor | ErrorFeedback | None = None,
        observer: Observer | None = None,
        fault_injector: FaultInjector | None = None,
        resilience: ResilienceConfig | None = None,
        upload_channel: ChannelConfig | None = None,
        client_time_fn: Callable[[int, int], float] | None = None,
    ) -> None:
        if not clients:
            raise ValueError("need at least one client")
        selected_per_round = config.participants_per_round + config.overselection
        if selected_per_round > len(clients):
            raise ValueError(
                f"K + overselection = {selected_per_round} exceeds the "
                f"number of edge servers N = {len(clients)}"
            )
        self.clients = clients
        self.model_config = shared_model_config(clients)
        self.config = config
        self.train_eval = train_eval
        self.test_eval = test_eval
        # Independent named RNG streams: the sampler owns `self._rng`
        # exclusively; dropout and the fault machinery draw from their
        # own streams, so turning either on cannot change which clients
        # later rounds sample (the stream-coupling bug this fixes).
        self._rng = np.random.default_rng(config.seed)
        self._dropout_rng = substream(config.seed, "dropout")
        self._resilience_rng = substream(config.seed, "resilience")
        self.sampler = sampler or UniformSampler(
            len(clients), selected_per_round, self._rng
        )
        if self.sampler.k != selected_per_round:
            raise ValueError(
                f"sampler selects {self.sampler.k} clients but the config "
                f"needs K + overselection = {selected_per_round}"
            )
        if fault_injector is not None and fault_injector.n_clients != len(clients):
            raise ValueError(
                f"fault injector covers {fault_injector.n_clients} clients "
                f"but the trainer has {len(clients)}"
            )
        self._observer = observer
        self.coordinator = coordinator or Coordinator(
            self.model_config, observer=observer
        )
        self.completion_ranker = completion_ranker
        self.update_compressor = update_compressor
        self.fault_injector = fault_injector
        self.resilience = resilience
        self.upload_channel = upload_channel or ChannelConfig()
        self.client_time_fn = client_time_fn
        self.resilience_log: list[RoundResilienceReport] = []
        self.history = TrainingHistory()
        self._schedule = LearningRateSchedule(config.sgd)
        # "auto" resolves once per trainer so the whole run uses one
        # engine, and the resolved choice is observable for tests/logs.
        self._engine = create_engine(
            config.backend, clients, config, self._observer
        )
        self.resolved_backend = self._engine.name
        self._eval_cache = EvalCache()
        self._eval_sets: tuple[Dataset, Dataset] | None = None
        self.total_gradient_steps = 0
        self.total_uploads = 0
        self.total_upload_bytes = 0

    @property
    def last_resilience_report(self) -> RoundResilienceReport | None:
        """The most recent round's fault/retry report (``None`` if none)."""
        return self.resilience_log[-1] if self.resilience_log else None

    @property
    def n_clients(self) -> int:
        """Number of edge servers ``N`` in the system."""
        return len(self.clients)

    def _evaluation_sets(self) -> tuple[Dataset, Dataset]:
        """``(train_eval, test_eval)`` as evaluation rows.

        See :func:`~repro.fl.model.evaluation_rows`: the logistic
        head's large sets are held transposed when the run has rounds
        enough to repay the build, and otherwise scored from their
        stored rows, widened a block at a time; the MLP's are widened.
        Built at the first evaluation rather than in ``__init__``, so
        set-up time does not move, and then held: rebuilding on every
        call would cost as much as the matmul it saves.
        """
        if self._eval_sets is None:
            self._eval_sets = tuple(
                Dataset(
                    evaluation_rows(
                        data.features, self.model_config, self.config.n_rounds
                    ),
                    data.labels,
                    data.n_classes,
                )
                for data in (self.train_eval, self.test_eval)
            )
        return self._eval_sets

    def _apply_compression(
        self,
        client_id: int,
        parameters: np.ndarray,
        global_params: np.ndarray,
    ) -> np.ndarray:
        """Compress the uploaded *delta* and account for the wire bytes.

        Returns what the server reconstructs, ``global +
        decompressed_delta``; without a compressor ``parameters`` itself,
        counted at dense float32 size.
        """
        if self.update_compressor is None:
            self.total_upload_bytes += parameters.size * 4
            return parameters
        delta = parameters - global_params
        if isinstance(self.update_compressor, ErrorFeedback):
            compressed = self.update_compressor.compress(client_id, delta)
        else:
            compressed = self.update_compressor.compress(delta)
        self.total_upload_bytes += compressed.payload_bytes
        return global_params + compressed.dense

    def _draw_dropouts(self, k: int) -> np.ndarray:
        """Which of the round's ``k`` participants fail to upload.

        One ``random(k)`` vector: it consumes the dropout stream exactly
        as ``k`` scalar ``random()`` calls do, one per participant in
        order.  Nothing is drawn when dropout is off.
        """
        probability = self.config.dropout_probability
        if probability <= 0:
            return np.zeros(k, dtype=bool)
        return self._dropout_rng.random(k) < probability

    def _select_participants(
        self, selected: list[int], round_index: int
    ) -> tuple[list[int], list[int], list[int]]:
        """Apply crash faults to the sampled set, resampling replacements.

        Returns ``(participants, crashed, replacements)``: the clients
        that will actually train this round, the sampled clients that
        were down, and the deterministically resampled substitutes
        (drawn from the trainer's dedicated resilience stream, never the
        sampler's).
        """
        injector = self.fault_injector
        if injector is None:
            return list(selected), [], []
        alive = [c for c in selected if not injector.crashed(c, round_index)]
        alive_set = set(alive)
        crashed = [c for c in selected if c not in alive_set]
        replacements: list[int] = []
        resample = (
            self.resilience.resample_crashed if self.resilience is not None else True
        )
        if crashed and resample:
            taken = set(selected)
            pool = [
                c
                for c in range(self.n_clients)
                if c not in taken and injector.available(c, round_index)
            ]
            n_replace = min(len(crashed), len(pool))
            if n_replace > 0:
                chosen = self._resilience_rng.choice(
                    pool, size=n_replace, replace=False
                )
                replacements = sorted(int(c) for c in chosen)
        return alive + replacements, crashed, replacements

    def _nominal_compute_s(self, client_id: int, round_index: int) -> float:
        """Simulated local-job duration used for round-deadline checks."""
        if self.client_time_fn is not None:
            return float(self.client_time_fn(client_id, round_index))
        nominal = (
            self.resilience.nominal_train_s if self.resilience is not None else 1.0
        )
        return nominal * self.config.local_epochs

    def _simulate_resilient_upload(
        self, client_id: int, round_index: int, upload_bytes: int
    ):
        """Run one upload through the timeout/retry state machine.

        Attempt losses come from the client's Gilbert–Elliott burst
        channel when the fault plan declares one (drawn from that
        client's dedicated stream); without one the upload is lossless.
        Backoff jitter draws from the trainer's resilience stream.
        """
        assert self.resilience is not None
        injector = self.fault_injector
        attempt_lost = None
        tally = {"lost": 0}
        if injector is not None:
            loss_model = injector.upload_loss_model(client_id, round_index)
            if loss_model is not None:
                channel_rng = injector.channel_rng(client_id)

                def attempt_lost() -> bool:
                    lost = loss_model.attempt_lost(channel_rng)
                    if lost:
                        tally["lost"] += 1
                    return lost

        outcome = simulate_upload(
            self.upload_channel,
            upload_bytes,
            self.resilience.retry,
            self._resilience_rng,
            timeout_s=self.resilience.upload_timeout_s,
            attempt_lost=attempt_lost,
        )
        if injector is not None and tally["lost"] > 0:
            injector.record_burst_loss(client_id, round_index, tally["lost"])
        return outcome

    def run_round(self) -> RoundRecord:
        """Execute one global coordination round and record its outcome."""
        obs = self._observer
        injector = self.fault_injector
        resilience = self.resilience
        resilient = injector is not None or resilience is not None
        round_started = time.perf_counter()
        round_index = self.coordinator.rounds_completed
        learning_rate = self._schedule.current_rate
        selected = [int(c) for c in self.sampler.select(round_index)]
        participants, crashed, replacements = self._select_participants(
            selected, round_index
        )
        global_params = self.coordinator.global_parameters
        if obs is not None:
            obs.emit(
                "round.start",
                round=round_index,
                learning_rate=learning_rate,
                selected=list(participants),
            )
            round_span = obs.tracer.span("round", round=round_index)
            round_span.__enter__()

        try:
            slowdowns: dict[int, float] = {}
            upload_attempts: dict[int, int] = {}
            backoff_log: dict[int, float] = {}
            failed: list[int] = []
            corrupted_ids: list[int] = []
            late: list[int] = []
            cohort = self._engine.train_round(
                participants, global_params, round_index, learning_rate
            )
            dropped = self._draw_dropouts(len(cohort))
            self.total_gradient_steps += int(cohort.gradient_steps.sum())
            # Rows whose upload reached the server, in participant order.
            # A payload the server receives altered (compressed or
            # corrupted) is written into its row of the cohort matrix.
            delivered: list[int] = []
            for row, client_id in enumerate(participants):
                slowdown = 1.0
                if injector is not None:
                    injector.note_participation(client_id, round_index)
                    slowdown = injector.slowdown(client_id, round_index)
                    if slowdown > 1.0:
                        slowdowns[client_id] = slowdown
                if obs is not None:
                    steps = int(cohort.gradient_steps[row])
                    duration_s = float(cohort.durations_s[row])
                    obs.histogram("profile.client_train_s").observe(duration_s)
                    obs.counter("fl.gradient_steps").inc(steps)
                    obs.emit(
                        "client.train",
                        round=round_index,
                        client=int(client_id),
                        gradient_steps=steps,
                        epochs=int(cohort.epochs[row]),
                        final_local_loss=float(cohort.losses[row]),
                        duration_s=duration_s,
                        dropped=bool(dropped[row]),
                    )
                if dropped[row]:
                    continue
                trained = cohort.parameters[row]
                bytes_before = self.total_upload_bytes
                parameters = self._apply_compression(
                    client_id, trained, global_params
                )
                upload_bytes = self.total_upload_bytes - bytes_before
                if injector is not None:
                    corruption = injector.corrupts(client_id, round_index)
                    if corruption is not None:
                        parameters = injector.corrupt_payload(
                            parameters, corruption
                        )
                        corrupted_ids.append(client_id)
                if parameters is not trained:
                    trained[:] = parameters
                if resilience is not None:
                    outcome = self._simulate_resilient_upload(
                        client_id, round_index, upload_bytes
                    )
                    upload_attempts[client_id] = outcome.attempts
                    if outcome.backoff_s > 0:
                        backoff_log[client_id] = outcome.backoff_s
                    if obs is not None and outcome.retries > 0:
                        obs.counter("fl.retries").inc(outcome.retries)
                        obs.emit(
                            "client.upload_retry",
                            round=round_index,
                            client=int(client_id),
                            attempts=outcome.attempts,
                            backoff_s=outcome.backoff_s,
                            delivered=outcome.delivered,
                        )
                    if not outcome.delivered:
                        failed.append(client_id)
                        if obs is not None:
                            obs.counter("fl.failed_uploads").inc()
                            obs.emit(
                                "client.upload_failed",
                                round=round_index,
                                client=int(client_id),
                                attempts=outcome.attempts,
                                timed_out=outcome.timed_out,
                            )
                        continue
                    if resilience.round_deadline_s is not None:
                        arrival_s = (
                            self._nominal_compute_s(client_id, round_index)
                            * slowdown
                            + outcome.total_s
                        )
                        if arrival_s > resilience.round_deadline_s:
                            late.append(client_id)
                            if obs is not None:
                                obs.counter("fl.late_uploads").inc()
                                obs.emit(
                                    "client.late",
                                    round=round_index,
                                    client=int(client_id),
                                    arrival_s=arrival_s,
                                    deadline_s=resilience.round_deadline_s,
                                )
                            continue
                delivered.append(row)
                self.total_uploads += 1
                if obs is not None:
                    obs.counter("fl.uploads").inc()
                    obs.counter("fl.upload_bytes").inc(upload_bytes)
                    obs.emit(
                        "client.upload",
                        round=round_index,
                        client=int(client_id),
                        upload_bytes=upload_bytes,
                    )

            # Over-selection: keep only the first K arrivals among survivors.
            if self.completion_ranker is None:
                arrivals = delivered
            else:
                row_of = {cid: row for row, cid in enumerate(participants)}
                reached = set(delivered)
                arrivals = [
                    row_of[cid]
                    for cid in self.completion_ranker(
                        round_index, list(participants)
                    )
                    if row_of[cid] in reached
                ]
            kept = cohort.take(arrivals[: self.config.participants_per_round])
            if resilience is not None and resilience.reject_nonfinite:
                finite = np.isfinite(kept.parameters).all(axis=1)
                if not finite.all():
                    if obs is not None:
                        for client_id in kept.client_ids[~finite]:
                            obs.counter("fl.nonfinite_rejected").inc()
                            obs.emit(
                                "client.reject_nonfinite",
                                round=round_index,
                                client=int(client_id),
                            )
                    kept = kept.take(np.flatnonzero(finite))
            kept_ids = kept.client_ids.tolist()

            quorum = resilience.min_quorum if resilience is not None else 1
            degraded = len(kept) < max(1, quorum)
            if degraded:
                # Graceful degradation: too few survivors — carry the
                # last good model forward and mark the round degraded.
                self.coordinator.skip_round()
                kept_ids = []
                if obs is not None:
                    obs.counter("fl.rounds_degraded").inc()
                    obs.emit(
                        "round.degraded",
                        round=round_index,
                        survivors=len(kept),
                        quorum=quorum,
                    )
            else:
                self.coordinator.aggregate(kept)
            self._schedule.advance()

            # Evaluation is cached on the coordinator's parameter
            # version: a degraded round carries the model forward
            # unchanged, so the previous round's numbers are exact.
            version = self.coordinator.parameters_version
            evaluation = self._eval_cache.lookup(version)
            if evaluation is None:
                model = self.coordinator.global_model(copy=False)
                train_eval, test_eval = self._evaluation_sets()
                evaluation = (
                    model.loss(train_eval.features, train_eval.labels),
                    model.accuracy(test_eval.features, test_eval.labels),
                )
                self._eval_cache.store(version, evaluation)
            elif obs is not None:
                obs.counter("engine.cache_hits", cache="eval").inc()
            train_loss, test_accuracy = evaluation
            record = RoundRecord(
                round_index=round_index,
                train_loss=train_loss,
                test_accuracy=test_accuracy,
                participants=tuple(participants),
                local_epochs=self.config.local_epochs,
                learning_rate=learning_rate,
                aggregated=tuple(sorted(kept_ids)),
                degraded=degraded,
            )
            self.history.append(record)
            if resilient:
                report = RoundResilienceReport(
                    round_index=round_index,
                    selected=tuple(selected),
                    crashed=tuple(crashed),
                    replacements=tuple(replacements),
                    slowdowns=slowdowns,
                    upload_attempts=upload_attempts,
                    backoff_s=backoff_log,
                    failed_uploads=tuple(failed),
                    corrupted=tuple(corrupted_ids),
                    late=tuple(late),
                    degraded=degraded,
                    quorum=quorum,
                    n_aggregated=len(kept_ids),
                )
                self.resilience_log.append(report)
                if obs is not None:
                    obs.emit("round.resilience", **report.to_dict())
        except BaseException:
            # Close the span with the real exception info so the trace
            # records the failure (contextmanager __exit__ re-raises).
            if obs is not None:
                round_span.__exit__(*sys.exc_info())
            raise
        else:
            if obs is not None:
                round_span.__exit__(None, None, None)
        if obs is not None:
            duration_s = time.perf_counter() - round_started
            obs.counter("fl.rounds").inc()
            obs.histogram("round.duration_s").observe(duration_s)
            # The round.end payload is exactly RoundRecord.to_dict(), so
            # the event log and history_io share one serialisation shape.
            obs.emit("round.end", duration_s=duration_s, **record.to_dict())
        return record

    def run(
        self, on_round: Callable[[RoundRecord], None] | None = None
    ) -> TrainingHistory:
        """Run rounds until ``n_rounds`` or the target accuracy is reached.

        A cancelled campaign pass stops the loop between rounds.
        ``on_round``, when given, is called with each finished round's
        record (the hardware prototype prices the round there).
        """
        for _ in range(self.config.n_rounds):
            check_cancelled()
            record = self.run_round()
            if on_round is not None:
                on_round(record)
            if (
                self.config.target_accuracy is not None
                and record.test_accuracy >= self.config.target_accuracy
            ):
                break
        return self.history
