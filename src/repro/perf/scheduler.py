"""Parallel scheduling of independent campaign units across processes.

A campaign grid is embarrassingly parallel: every unit trains from a
fresh, independently seeded prototype and touches no shared mutable
state except the campaign store — whose index updates are atomic in
either backend (flock-serialised manifest rewrites for JSON,
single-row WAL transactions for SQLite; see
:mod:`repro.campaign.repository`).  This module provides the generic
scheduling half of that story:

* a **cost model** derived from the paper's timing law
  ``t = E * (tau0 * n + tau1)``: one round costs ``K * E * n`` local
  work (K participants, E local epochs, n samples per client), so a
  whole unit is estimated at ``rounds * K * E * n``.  Units are
  dispatched longest-first, which keeps the makespan near-optimal for
  the wide/short mix a (K, E) grid produces.
* a **process scheduler** (:class:`ParallelUnitScheduler`) that fans the
  ordered units out over a ``ProcessPoolExecutor``, drains gracefully on
  interrupt (running units finish, queued units are cancelled), and
  reports per-unit outcomes so the caller can decide what a failure
  means.
* a **supervised mode** (:meth:`ParallelUnitScheduler.run_supervised`)
  for fleets where worker death is routine: per-unit bounded retries
  with deterministic capped-exponential-jitter backoff, a watchdog that
  reclaims hung workers via cost-model deadlines and spool-heartbeat
  staleness, ``BrokenProcessPool`` recovery (rebuild the executor,
  charge the guilty unit one attempt, resubmit the innocent survivors),
  and quarantine for units whose retry budget is exhausted — the batch
  completes degraded instead of aborting.

Determinism is the caller's contract: each worker must derive all
randomness from its own unit's seed, and all result recording must be
safe under concurrent writers.  Under that contract the set of bytes a
parallel run produces is identical to a sequential run's — only the
completion *order* differs, which is why the store's canonical index
document is key-sorted.  Supervision preserves the contract: retry
backoff jitter derives from ``(unit key, attempt)`` alone, so a resumed
campaign replays the same schedule decisions.

The module deliberately knows nothing about campaign types — the cost
function is duck-typed over ``max_rounds`` / ``participants`` /
``epochs`` / ``n_train`` / ``n_servers`` attributes, and supervision
identifies units by caller-supplied opaque keys — so ``repro.perf``
stays import-cycle-free below ``repro.campaign``.
"""

from __future__ import annotations

import json
import os
import signal
import time
import traceback as traceback_module
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.faults.models import substream
from repro.faults.policies import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.observer import Observer

__all__ = [
    "BACKEND_COST_FACTORS",
    "ScheduleOutcome",
    "SupervisionPolicy",
    "UnitFailure",
    "ParallelUnitScheduler",
    "estimate_unit_cost",
    "order_longest_first",
]


# Per-backend wall-clock efficiency relative to sequential execution,
# calibrated against benchmarks/bench_engine.py's headline (the
# vectorized engine trains the K=20/E=16 cell ~4.2x faster at IoT
# scale).  Factors are deliberately conservative — at BLAS-bound paper
# scale (784x10) vectorization only buys ~1.1x, and an *under*-estimated
# cost would tighten watchdog deadlines, so we err toward
# sequential-like cost.  Pool stays at 1.0 so the deadline covers a
# host with a single core.
BACKEND_COST_FACTORS = {
    "sequential": 1.0,
    # "batched" is a spelling of the population engine.
    "batched": 0.2,
    "pool": 1.0,
    "population": 0.2,
    # "auto" resolves to the population engine whenever the workload
    # supports one.
    "auto": 0.2,
}


def estimate_unit_cost(unit) -> float:
    """Estimated local-compute cost of one campaign unit.

    Applies the calibrated timing law ``t = E * (tau0 * n + tau1)`` per
    participant per round: with ``K`` participants on ``n = n_train /
    n_servers`` samples each for ``rounds`` rounds, total work scales as
    ``rounds * K * E * n``.  The constant factors (tau0, tau1) cancel in
    the longest-first comparison, so they are omitted.

    Units that train as stacked tensors finish well before sequential
    units of the same (rounds, K, E, n) — without a correction, a mixed
    backends-axis campaign would schedule vectorized units as if they
    were long and derive watchdog deadlines from a blended throughput.
    The per-backend factor (:data:`BACKEND_COST_FACTORS`) keeps both
    the longest-first order and the deadline derivation honest.

    The unit is duck-typed: anything exposing ``max_rounds``,
    ``participants``, ``epochs``, ``n_train`` and ``n_servers`` works;
    an optional ``backend`` attribute selects the efficiency factor
    (unknown or absent backends count as sequential).
    """
    samples_per_client = unit.n_train / max(1, unit.n_servers)
    factor = BACKEND_COST_FACTORS.get(
        getattr(unit, "backend", "sequential"), 1.0
    )
    return (
        float(unit.max_rounds)
        * float(unit.participants)
        * float(unit.epochs)
        * samples_per_client
        * factor
    )


def order_longest_first(units: Sequence) -> list[int]:
    """Indices of ``units`` ordered by descending estimated cost.

    Ties break on the original index so the dispatch order is fully
    deterministic for a given grid.
    """
    return sorted(
        range(len(units)),
        key=lambda i: (-estimate_unit_cost(units[i]), i),
    )


@dataclass(frozen=True)
class SupervisionPolicy:
    """How :meth:`ParallelUnitScheduler.run_supervised` handles failure.

    Attributes:
        retry: per-unit bounded retry budget with capped-exponential
            backoff — :class:`repro.faults.RetryPolicy` reused at the
            unit level.  ``max_retries`` retries means ``max_retries+1``
            total attempts before quarantine.
        unit_timeout_s: hard per-unit deadline (the ``--unit-timeout``
            CLI override).  ``None`` derives deadlines from the cost
            model instead.
        deadline_factor: derived deadline = ``deadline_factor`` × the
            unit's predicted duration (its cost over the observed
            throughput of completed units).  Generous by design: a
            deadline only needs to beat "hung forever", not model
            variance.
        min_deadline_s: floor under derived deadlines so tiny units
            are not killed by scheduling noise.
        heartbeat_timeout_s: a running unit whose telemetry spool has
            not grown for this long is declared hung even without a
            deadline (``None`` disables; only applies to units that
            write spools).
        kill_grace_s: how long a hard-cancel waits between SIGTERM and
            SIGKILL when terminating workers.
        seed: seed of the backoff-jitter RNG stream.  Jitter derives
            from ``(seed, unit key, attempt)`` alone, so schedules are
            reproducible across resumes.
    """

    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_retries=2, base_backoff_s=0.05, max_backoff_s=1.0
        )
    )
    unit_timeout_s: float | None = None
    deadline_factor: float = 8.0
    min_deadline_s: float = 30.0
    heartbeat_timeout_s: float | None = None
    kill_grace_s: float = 5.0
    seed: int = 0

    @property
    def max_attempts(self) -> int:
        """Total attempts before a unit is quarantined."""
        return self.retry.max_retries + 1

    def backoff_s(self, key: str, failed_attempts: int) -> float:
        """Deterministic backoff before re-running ``key``.

        ``failed_attempts`` is how many attempts have failed so far
        (>= 1); jitter comes from an RNG stream named by the unit key
        and that count, so the wait is a pure function of
        ``(seed, key, attempt)`` — identical across resumed runs.
        """
        rng = substream(self.seed, "unit-retry", key, failed_attempts)
        return self.retry.backoff_s(failed_attempts - 1, rng)

    def deadline_s(self, cost: float | None, rate: float | None) -> float | None:
        """The watchdog deadline for a unit of ``cost``, if derivable."""
        if self.unit_timeout_s is not None:
            return self.unit_timeout_s
        if cost is None or rate is None or rate <= 0:
            return None
        return max(self.min_deadline_s, self.deadline_factor * cost / rate)


@dataclass(frozen=True)
class UnitFailure:
    """One failed attempt of one supervised unit.

    Attributes:
        index: the unit's index into the submitted payload sequence.
        key: the unit's opaque identity key.
        attempt: cumulative failed-attempt count after this failure
            (1-based).
        kind: ``error`` (the worker raised), ``timeout`` (watchdog
            deadline or heartbeat staleness), or ``worker-lost`` (the
            worker process died without raising — segfault/OOM-kill).
        error: ``repr`` of the failure.
        traceback: formatted traceback when the worker raised, else
            ``None``.
        quarantined: the retry budget is exhausted; the unit will not
            be resubmitted.
    """

    index: int
    key: str
    attempt: int
    kind: str
    error: str
    traceback: str | None = None
    quarantined: bool = False


@dataclass
class ScheduleOutcome:
    """What happened to one scheduled batch of units.

    Attributes:
        completed: indices (into the submitted sequence) that finished.
        results: ``index -> worker return value`` for completed units
            (``None`` when completion was detected via the caller's
            ``completed_check`` after a pool break ate the future).
        failed: ``index -> repr(exception)`` for units that ended the
            batch failed but not quarantined (in supervised mode this
            only happens when an interrupt cut retries short).
        quarantined: ``index -> last error`` for units whose supervised
            retry budget was exhausted.
        attempts: ``index -> cumulative attempts consumed`` (including
            the succeeding one) for every unit supervision touched.
        cancelled: indices drained without running (interrupt).
        interrupted: True when a KeyboardInterrupt triggered draining.
        hard_cancelled: a second interrupt arrived during the graceful
            drain and workers were terminated instead of awaited.
        pool_rebuilds: how many times a broken process pool was rebuilt.
        timeouts: how many watchdog kills were issued.
        wall_clock_s: scheduler wall-clock for the whole batch.
    """

    completed: list[int] = field(default_factory=list)
    results: dict[int, object] = field(default_factory=dict)
    failed: dict[int, str] = field(default_factory=dict)
    quarantined: dict[int, str] = field(default_factory=dict)
    attempts: dict[int, int] = field(default_factory=dict)
    cancelled: list[int] = field(default_factory=list)
    interrupted: bool = False
    hard_cancelled: bool = False
    pool_rebuilds: int = 0
    timeouts: int = 0
    wall_clock_s: float = 0.0


def _raise_keyboard_interrupt(signum, frame):  # pragma: no cover - signal path
    raise KeyboardInterrupt


def _worker_initializer() -> None:  # pragma: no cover - runs in workers
    """Make SIGTERM unwind the worker like Ctrl-C would.

    Installed in every pool worker so a hard-cancel's SIGTERM (or a
    cluster preemption fanned out by the executor) raises through the
    unit's ``finally`` blocks — engines close, shared-memory segments
    unlink — instead of killing the process with artifacts half-torn.
    """
    try:
        signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except (ValueError, OSError):
        pass


def _read_json(path: Path) -> dict | None:
    """Best-effort JSON read; ``None`` on any miss or parse failure."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _format_remote_traceback(error: BaseException) -> str:
    """Traceback text of a worker-raised exception, cause included."""
    return "".join(
        traceback_module.format_exception(
            type(error), error, error.__traceback__
        )
    )


class ParallelUnitScheduler:
    """Longest-first fan-out of independent unit payloads over processes.

    The scheduler is generic: it receives opaque payloads plus a
    *picklable, module-level* worker callable and never interprets
    results beyond success/failure.  Workers are expected to persist
    their own results (e.g. through the campaign repository API); the
    scheduler only tracks outcomes, so a killed run loses nothing that
    completed.
    """

    def __init__(
        self, jobs: int, observer: "Observer | None" = None
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1; got {jobs}")
        self.jobs = int(jobs)
        self._observer = observer

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_worker_initializer
        )

    def _hard_cancel(
        self, executor: ProcessPoolExecutor, grace_s: float = 5.0
    ) -> None:
        """Terminate the pool now instead of waiting for in-flight units.

        SIGTERM first — workers convert it to :class:`KeyboardInterrupt`
        (see :func:`_worker_initializer`), so engines tear down and
        shared-memory segments are released — then SIGKILL whatever is
        still alive after the grace period.
        """
        # Snapshot the worker processes *before* shutdown: the executor
        # drops its _processes reference (sets it to None) as part of
        # shutting down, even with wait=False.
        processes = [
            proc
            for proc in (getattr(executor, "_processes", None) or {}).values()
            if proc is not None
        ]
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        for proc in processes:
            try:
                if proc.is_alive():
                    proc.terminate()
            except Exception:  # pragma: no cover - racing process death
                pass
        deadline = time.monotonic() + grace_s
        for proc in processes:
            try:
                proc.join(max(0.0, deadline - time.monotonic()))
            except Exception:  # pragma: no cover - racing process death
                pass
        for proc in processes:
            try:
                if proc.is_alive():
                    proc.kill()
                    proc.join(1.0)
            except Exception:  # pragma: no cover - racing process death
                pass

    def run(
        self,
        payloads: Sequence,
        worker: Callable,
        costs: Sequence[float] | None = None,
        poll: Callable[[], object] | None = None,
    ) -> ScheduleOutcome:
        """Execute ``worker(payload)`` for every payload across processes.

        Payloads are dispatched in descending ``costs`` order (submission
        order when ``costs`` is None).  On KeyboardInterrupt the queue is
        drained: queued payloads are cancelled, in-flight ones are
        allowed to finish, and the outcome records all three buckets.  A
        *second* interrupt during the drain hard-cancels instead:
        workers are SIGTERMed (releasing shared memory via their
        interrupt handlers), then SIGKILLed after a grace period, and
        the outcome reports ``hard_cancelled=True``.

        ``poll``, when given, is invoked from the scheduling loop while
        units are in flight (the wait then uses a short timeout instead
        of blocking indefinitely) and once more after the batch drains —
        the hook the campaign runner uses to tail worker telemetry
        spools live.  It runs in the parent process and must not raise.
        """
        outcome = ScheduleOutcome()
        if not payloads:
            return outcome
        order = list(range(len(payloads)))
        if costs is not None:
            if len(costs) != len(payloads):
                raise ValueError("costs must match payloads one-to-one")
            order.sort(key=lambda i: (-costs[i], i))
        observer = self._observer
        if observer is not None:
            observer.emit(
                "scheduler.start",
                jobs=self.jobs,
                units=len(payloads),
            )
            observer.counter("scheduler.units_submitted").inc(len(payloads))
        started = time.perf_counter()
        executor = self._new_executor()
        futures = {}
        try:
            for index in order:
                futures[executor.submit(worker, payloads[index])] = index
            pending = set(futures)
            while pending:
                done, pending = wait(
                    pending,
                    timeout=0.2 if poll is not None else None,
                    return_when=FIRST_COMPLETED,
                )
                if poll is not None:
                    poll()
                for future in done:
                    index = futures[future]
                    error = future.exception()
                    if error is None:
                        outcome.completed.append(index)
                        outcome.results[index] = future.result()
                        if observer is not None:
                            observer.counter(
                                "scheduler.units_completed"
                            ).inc()
                    else:
                        outcome.failed[index] = repr(error)
                        if observer is not None:
                            observer.counter("scheduler.units_failed").inc()
        except KeyboardInterrupt:
            outcome.interrupted = True
            if observer is not None:
                observer.counter("scheduler.interrupts").inc()
            # Graceful drain: cancel whatever has not started, then wait
            # for in-flight units so their store writes complete.  A
            # second Ctrl-C during that wait must not escape into the
            # finally below (whose blocking shutdown would just hang
            # again) — it means "stop waiting", so terminate the pool.
            try:
                executor.shutdown(wait=True, cancel_futures=True)
            except KeyboardInterrupt:
                outcome.hard_cancelled = True
                if observer is not None:
                    observer.counter("scheduler.hard_cancels").inc()
                self._hard_cancel(executor)
            for future, index in futures.items():
                if future.cancelled():
                    outcome.cancelled.append(index)
                elif future.done() and index not in outcome.failed:
                    if index not in outcome.completed:
                        if future.exception() is None:
                            outcome.completed.append(index)
                            outcome.results[index] = future.result()
                        else:
                            outcome.failed[index] = repr(future.exception())
                elif not future.done():
                    # Hard-cancelled mid-flight: the worker was killed
                    # before the future could resolve.
                    outcome.cancelled.append(index)
        finally:
            if not outcome.hard_cancelled:
                try:
                    executor.shutdown(wait=True)
                except KeyboardInterrupt:
                    outcome.hard_cancelled = True
                    if observer is not None:
                        observer.counter("scheduler.hard_cancels").inc()
                    self._hard_cancel(executor)
            if poll is not None:
                # One final poll after every worker has exited, so the
                # spools' last flushed lines are merged before the
                # outcome is interpreted.
                poll()
        outcome.completed.sort()
        outcome.cancelled.sort()
        outcome.wall_clock_s = time.perf_counter() - started
        if observer is not None:
            observer.emit(
                "scheduler.end",
                completed=len(outcome.completed),
                failed=len(outcome.failed),
                cancelled=len(outcome.cancelled),
                interrupted=outcome.interrupted,
                wall_clock_s=round(outcome.wall_clock_s, 6),
            )
            observer.histogram("scheduler.batch_duration_s").observe(
                outcome.wall_clock_s
            )
        return outcome

    # ------------------------------------------------------------------
    # Supervised mode.
    # ------------------------------------------------------------------
    def run_supervised(
        self,
        payloads: Sequence,
        worker: Callable,
        *,
        supervision: SupervisionPolicy,
        costs: Sequence[float] | None = None,
        keys: Sequence[str] | None = None,
        initial_attempts: Sequence[int] | None = None,
        make_payload: Callable[[int, int], object] | None = None,
        on_failure: Callable[[UnitFailure], None] | None = None,
        completed_check: Callable[[int], bool] | None = None,
        heartbeat_dir: str | Path | None = None,
        spool_dir: str | Path | None = None,
        poll: Callable[[], object] | None = None,
    ) -> ScheduleOutcome:
        """Supervised fan-out: retries, watchdog, pool recovery, quarantine.

        Same dispatch semantics as :meth:`run`, plus the failure
        handling a long campaign on flaky hardware needs:

        * a unit whose worker **raises** is retried after a
          deterministic backoff (``supervision.retry``), up to the
          attempt budget, then quarantined;
        * a unit whose worker **dies** (segfault, OOM-kill) breaks the
          ``ProcessPoolExecutor``; the scheduler identifies the guilty
          unit via worker exit codes plus the heartbeat files under
          ``heartbeat_dir`` (SIGKILLed pid ↔ unit key), charges it one
          attempt, rebuilds the executor, and resubmits the innocent
          survivors at no attempt cost;
        * a unit that **hangs** is detected by the watchdog — deadline
          from the cost model and observed throughput (or the hard
          ``unit_timeout_s``), or spool staleness under ``spool_dir`` —
          its worker is SIGKILLed, and the kill is charged to it as a
          ``timeout`` attempt via the same pool-break recovery path.

        Args:
            payloads: opaque per-unit payloads (used when
                ``make_payload`` is None).
            worker: picklable module-level callable.
            supervision: the retry/deadline policy.
            costs: dispatch ordering and deadline derivation.
            keys: stable per-unit identity keys (backoff jitter,
                heartbeat/spool file names).  Defaults to stringified
                indices.
            initial_attempts: failed attempts already on record per
                unit — the resume path; attempt numbering continues
                from here.
            make_payload: ``(index, attempt) -> payload``, letting the
                caller embed the attempt number in what workers see.
            on_failure: called once per failed attempt with a
                :class:`UnitFailure` (the campaign runner persists
                failure records and emits telemetry from it).  Must not
                raise.
            completed_check: ``index -> bool`` consulted for pool-break
                survivors; units whose side effects are already durable
                (e.g. checkpointed in the store) are marked complete
                instead of re-run.
            heartbeat_dir: directory of ``<key>.json`` heartbeat files
                written by workers (pid/attempt/done).
            spool_dir: directory of ``<key>.jsonl`` telemetry spools,
                for staleness detection.
            poll: as in :meth:`run`.
        """
        outcome = ScheduleOutcome()
        total = len(payloads)
        if total == 0:
            return outcome
        if costs is not None and len(costs) != total:
            raise ValueError("costs must match payloads one-to-one")
        if keys is None:
            keys = [str(index) for index in range(total)]
        elif len(keys) != total:
            raise ValueError("keys must match payloads one-to-one")
        if initial_attempts is None:
            initial_attempts = [0] * total
        elif len(initial_attempts) != total:
            raise ValueError("initial_attempts must match payloads one-to-one")
        if make_payload is None:
            make_payload = lambda index, attempt: payloads[index]  # noqa: E731
        heartbeat_dir = Path(heartbeat_dir) if heartbeat_dir is not None else None
        spool_dir = Path(spool_dir) if spool_dir is not None else None

        observer = self._observer
        if observer is not None:
            observer.emit(
                "scheduler.start",
                jobs=self.jobs,
                units=total,
                supervised=True,
                max_attempts=supervision.max_attempts,
            )
            observer.counter("scheduler.units_submitted").inc(total)
        started = time.perf_counter()

        attempts_failed = list(initial_attempts)
        last_error: dict[int, str] = {}
        not_before = {index: 0.0 for index in range(total)}
        waiting = list(range(total))
        waiting.sort(
            key=lambda i: (-(costs[i] if costs is not None else 0.0), i)
        )
        in_flight: dict[object, int] = {}
        first_running: dict[int, float] = {}
        watchdog_marked: set[int] = set()
        known_procs: dict[int, object] = {}
        observations: list[tuple[float, float]] = []
        submit_time: dict[int, float] = {}
        done_set: set[int] = set()

        def observed_rate() -> float | None:
            cost_sum = sum(cost for cost, _ in observations)
            time_sum = sum(duration for _, duration in observations)
            if time_sum <= 0 or cost_sum <= 0:
                return None
            return cost_sum / time_sum

        def read_heartbeat(index: int) -> dict | None:
            if heartbeat_dir is None:
                return None
            return _read_json(heartbeat_dir / f"{keys[index]}.json")

        def charge(
            index: int,
            kind: str,
            error: str,
            traceback_text: str | None = None,
            reschedule: bool = True,
        ) -> None:
            attempts_failed[index] += 1
            last_error[index] = error
            quarantined = attempts_failed[index] >= supervision.max_attempts
            if observer is not None:
                observer.counter("scheduler.units_failed").inc()
            failure = UnitFailure(
                index=index,
                key=keys[index],
                attempt=attempts_failed[index],
                kind=kind,
                error=error,
                traceback=traceback_text,
                quarantined=quarantined,
            )
            if on_failure is not None:
                try:
                    on_failure(failure)
                except Exception:  # pragma: no cover - callback bug guard
                    pass
            if quarantined:
                outcome.quarantined[index] = error
            elif reschedule:
                not_before[index] = time.monotonic() + supervision.backoff_s(
                    keys[index], attempts_failed[index]
                )
                waiting.append(index)
                waiting.sort(
                    key=lambda i: (
                        -(costs[i] if costs is not None else 0.0),
                        i,
                    )
                )

        def mark_completed(index: int, result: object) -> None:
            done_set.add(index)
            watchdog_marked.discard(index)
            outcome.completed.append(index)
            outcome.results[index] = result
            if observer is not None:
                observer.counter("scheduler.units_completed").inc()

        def recover_pool(
            executor: ProcessPoolExecutor, survivors: list[int]
        ) -> ProcessPoolExecutor:
            """Attribute guilt, charge attempts, rebuild, resubmit."""
            now = time.monotonic()
            for proc in known_procs.values():
                try:
                    proc.join(0.5)
                except Exception:  # pragma: no cover - racing death
                    pass
            killed_pids = {
                pid
                for pid, proc in known_procs.items()
                if proc.exitcode == -signal.SIGKILL
            }
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - defensive
                pass
            known_procs.clear()
            outcome.pool_rebuilds += 1
            if observer is not None:
                observer.counter("scheduler.pool_rebuilds").inc()
                observer.emit(
                    "scheduler.pool_rebuild",
                    survivors=len(survivors),
                    killed_pids=sorted(killed_pids),
                )
            for index in survivors:
                first_running.pop(index, None)
                if completed_check is not None and completed_check(index):
                    # The worker finished its durable write before the
                    # pool broke; the future just never resolved.
                    mark_completed(index, None)
                    continue
                heartbeat = read_heartbeat(index)
                lost_worker = (
                    heartbeat is not None
                    and not heartbeat.get("done")
                    and heartbeat.get("pid") in killed_pids
                    and heartbeat.get("attempt") == attempts_failed[index]
                )
                if index in watchdog_marked:
                    charge(
                        index,
                        kind="timeout",
                        error=last_error.get(
                            index, "watchdog: unit exceeded its deadline"
                        ),
                    )
                elif lost_worker:
                    charge(
                        index,
                        kind="worker-lost",
                        error=(
                            "worker process killed "
                            f"(pid {heartbeat.get('pid')}, SIGKILL) while "
                            f"executing attempt {attempts_failed[index]}"
                        ),
                    )
                else:
                    # Innocent bystander: resubmit at no attempt cost.
                    not_before[index] = now
                    waiting.append(index)
            waiting.sort(
                key=lambda i: (-(costs[i] if costs is not None else 0.0), i)
            )
            watchdog_marked.clear()
            return self._new_executor()

        def watchdog_pass(now: float) -> bool:
            """Kill overdue workers; True when a kill was issued."""
            rate = observed_rate()
            killed_any = False
            for future, index in list(in_flight.items()):
                if index in watchdog_marked:
                    continue
                if not future.running():
                    continue
                began = first_running.get(index)
                if began is None:
                    first_running[index] = now
                    continue
                elapsed = now - began
                cost = costs[index] if costs is not None else None
                deadline = supervision.deadline_s(cost, rate)
                reason = None
                if deadline is not None and elapsed > deadline:
                    reason = (
                        f"exceeded its {deadline:.1f}s deadline "
                        f"(running {elapsed:.1f}s)"
                    )
                elif (
                    supervision.heartbeat_timeout_s is not None
                    and spool_dir is not None
                    and elapsed > supervision.heartbeat_timeout_s
                ):
                    spool_path = spool_dir / f"{keys[index]}.jsonl"
                    try:
                        stale_s = now_wall - spool_path.stat().st_mtime
                    except OSError:
                        stale_s = None
                    if (
                        stale_s is not None
                        and stale_s > supervision.heartbeat_timeout_s
                    ):
                        reason = (
                            f"telemetry spool silent for {stale_s:.1f}s "
                            f"(heartbeat timeout "
                            f"{supervision.heartbeat_timeout_s:.1f}s)"
                        )
                if reason is None:
                    continue
                outcome.timeouts += 1
                watchdog_marked.add(index)
                last_error[index] = f"watchdog: unit {reason}"
                if observer is not None:
                    observer.counter("watchdog.timeouts").inc()
                    observer.emit(
                        "watchdog.timeout",
                        key=keys[index],
                        reason=reason,
                    )
                heartbeat = read_heartbeat(index)
                pid = None
                if (
                    heartbeat is not None
                    and not heartbeat.get("done")
                    and heartbeat.get("attempt") == attempts_failed[index]
                ):
                    pid = heartbeat.get("pid")
                targets = (
                    [pid]
                    if isinstance(pid, int)
                    else [
                        known
                        for known, proc in known_procs.items()
                        if proc.is_alive()
                    ]
                )
                for target in targets:
                    try:
                        os.kill(target, signal.SIGKILL)
                        killed_any = True
                    except (ProcessLookupError, PermissionError, OSError):
                        pass
            return killed_any

        executor = self._new_executor()
        try:
            while waiting or in_flight:
                now = time.monotonic()
                now_wall = time.time()
                # Submit everything whose backoff gate has passed, in
                # cost order (the list is kept sorted).
                eligible = [i for i in waiting if not_before[i] <= now]
                for index in eligible:
                    waiting.remove(index)
                    future = executor.submit(
                        worker, make_payload(index, attempts_failed[index])
                    )
                    in_flight[future] = index
                    submit_time[index] = now
                for pid, proc in getattr(executor, "_processes", {}).items():
                    known_procs.setdefault(pid, proc)
                if not in_flight:
                    # Everything is waiting out a backoff.
                    gate = min(not_before[i] for i in waiting)
                    time.sleep(min(0.2, max(0.01, gate - now)))
                    if poll is not None:
                        poll()
                    continue
                done, _ = wait(
                    set(in_flight), timeout=0.2, return_when=FIRST_COMPLETED
                )
                if poll is not None:
                    poll()
                now = time.monotonic()
                broken_indices: list[int] = []
                pool_broken = False
                for future in done:
                    index = in_flight.pop(future)
                    error = future.exception()
                    if error is None:
                        duration = now - first_running.pop(
                            index, submit_time[index]
                        )
                        if costs is not None and duration > 0:
                            observations.append((costs[index], duration))
                        mark_completed(index, future.result())
                    elif isinstance(error, BrokenProcessPool):
                        pool_broken = True
                        broken_indices.append(index)
                    else:
                        first_running.pop(index, None)
                        charge(
                            index,
                            kind="error",
                            error=repr(error),
                            traceback_text=_format_remote_traceback(error),
                        )
                if pool_broken:
                    survivors = broken_indices + list(in_flight.values())
                    in_flight.clear()
                    executor = recover_pool(executor, survivors)
                    continue
                if watchdog_pass(now):
                    # The kill breaks the pool; the next wait() returns
                    # the broken futures and the recovery path runs.
                    continue
        except KeyboardInterrupt:
            outcome.interrupted = True
            if observer is not None:
                observer.counter("scheduler.interrupts").inc()
            try:
                executor.shutdown(wait=True, cancel_futures=True)
            except KeyboardInterrupt:
                outcome.hard_cancelled = True
                if observer is not None:
                    observer.counter("scheduler.hard_cancels").inc()
                self._hard_cancel(executor, supervision.kill_grace_s)
            for future, index in in_flight.items():
                if future.cancelled() or not future.done():
                    outcome.cancelled.append(index)
                    continue
                error = future.exception()
                if error is None:
                    mark_completed(index, future.result())
                elif isinstance(error, BrokenProcessPool):
                    outcome.cancelled.append(index)
                else:
                    # A real failure during the drain still earns its
                    # failure record, so a resumed run keeps counting
                    # attempts from the durable trail.
                    charge(
                        index,
                        kind="error",
                        error=repr(error),
                        traceback_text=_format_remote_traceback(error),
                        reschedule=False,
                    )
            outcome.cancelled.extend(
                index for index in waiting if index not in done_set
            )
        finally:
            if not outcome.hard_cancelled:
                try:
                    executor.shutdown(wait=True, cancel_futures=True)
                except KeyboardInterrupt:
                    outcome.hard_cancelled = True
                    if observer is not None:
                        observer.counter("scheduler.hard_cancels").inc()
                    self._hard_cancel(executor, supervision.kill_grace_s)
            if poll is not None:
                poll()
        for index in range(total):
            consumed = attempts_failed[index] - initial_attempts[index]
            if index in done_set:
                consumed += 1
            if consumed > 0 or index in done_set:
                outcome.attempts[index] = attempts_failed[index] + (
                    1 if index in done_set else 0
                )
            if (
                index in last_error
                and index not in done_set
                and index not in outcome.quarantined
            ):
                outcome.failed[index] = last_error[index]
        outcome.completed.sort()
        outcome.cancelled = sorted(set(outcome.cancelled))
        outcome.wall_clock_s = time.perf_counter() - started
        if observer is not None:
            observer.emit(
                "scheduler.end",
                completed=len(outcome.completed),
                failed=len(outcome.failed),
                quarantined=len(outcome.quarantined),
                cancelled=len(outcome.cancelled),
                interrupted=outcome.interrupted,
                pool_rebuilds=outcome.pool_rebuilds,
                timeouts=outcome.timeouts,
                wall_clock_s=round(outcome.wall_clock_s, 6),
            )
            observer.histogram("scheduler.batch_duration_s").observe(
                outcome.wall_clock_s
            )
        return outcome
