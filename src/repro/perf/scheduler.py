"""Parallel scheduling of independent campaign units across processes.

A campaign grid is embarrassingly parallel: every unit trains from a
fresh, independently seeded prototype and touches no shared mutable
state except the campaign store — whose index updates are atomic
single-row SQLite transactions (see :mod:`repro.campaign.store`).  This module provides the generic
scheduling half of that story:

* a **cost model** derived from the paper's timing law
  ``t = E * (tau0 * n + tau1)``: one round costs ``K * E * n`` local
  work (K participants, E local epochs, n samples per client), so a
  whole unit is estimated at ``rounds * K * E * n``.  Units are
  dispatched longest-first, which keeps the makespan near-optimal for
  the wide/short mix a (K, E) grid produces.
* a **supervision loop** (:meth:`ParallelUnitScheduler.run`), the one
  loop every ``--jobs`` value goes through.  An executor seam runs
  units inline for ``jobs=1`` and over :func:`process_executor` above.
  Per-unit bounded retries use deterministic capped-exponential-jitter
  backoff; units whose retry budget is exhausted are quarantined, so the
  batch completes degraded instead of aborting.  Process pools add a
  watchdog that reclaims hung workers via cost-model deadlines and
  spool-heartbeat staleness, and ``BrokenProcessPool`` recovery
  (rebuild the executor, charge the guilty unit one attempt, resubmit
  the innocent survivors).
* **cooperative cancellation** (:mod:`repro.perf.cancel`): the loop
  checks a token between units; once cancelled nothing new starts and
  in-flight units are awaited, so a drain never tears a store write.
* the **process seam** every worker process of the package comes
  from: :func:`process_executor` starts workers whose signals count on
  a cancel token, and :func:`terminate_workers` is the one forced
  teardown.

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
import multiprocessing.context
import os
import signal
import time
import traceback as traceback_module
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.faults.models import substream
from repro.faults.policies import RetryPolicy
from repro.perf.cancel import (
    Cancelled,
    CancelToken,
    activate,
    forking_worker,
    install_in_worker,
)
from repro.perf.cpu import set_sibling_workers

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
    "process_executor",
    "terminate_workers",
]


# Per-backend wall-clock efficiency relative to sequential execution,
# calibrated against benchmarks/bench_engine.py's headline (the
# vectorized engine trains the K=20/E=16 cell ~4.2x faster at IoT
# scale).  Factors are deliberately conservative — at BLAS-bound paper
# scale (784x10) vectorization only buys ~1.1x, and an *under*-estimated
# cost would tighten watchdog deadlines, so we err toward
# sequential-like cost.  "pool" is a spelling of the sequential engine.
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
    """How :meth:`ParallelUnitScheduler.run` handles failure.

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
        kill_grace_s: how long a hard cancel waits for workers to
            unwind before SIGKILLing them.
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
        exception: the exception object when the worker raised, else
            ``None``.
    """

    index: int
    key: str
    attempt: int
    kind: str
    error: str
    traceback: str | None = None
    quarantined: bool = False
    exception: BaseException | None = None


@dataclass
class ScheduleOutcome:
    """What happened to one scheduled batch of units.

    Attributes:
        completed: indices (into the submitted sequence) that finished.
        results: ``index -> worker return value`` for completed units
            (``None`` when completion was detected via the caller's
            ``completed_check`` after a pool break ate the future).
        failed: ``index -> repr(exception)`` for units that ended the
            batch failed but not quarantined (without supervision, or
            when a cancellation cut retries short).
        quarantined: ``index -> last error`` for units whose supervised
            retry budget was exhausted.
        attempts: ``index -> cumulative attempts consumed`` (including
            the succeeding one) for every unit supervision touched.
        cancelled: indices drained without running, or whose unit
            discarded its partial work on cancellation.
        interrupted: cancellation left some unit unfinished (cancelled,
            or failed with retry budget left).
        hard_cancelled: a hard cancel arrived during the drain and
            workers were terminated instead of awaited.
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


def _init_worker(
    initializer: Callable | None, initargs: tuple, workers: int
) -> None:  # pragma: no cover - runs in workers
    install_in_worker()
    set_sibling_workers(workers)
    if initializer is not None:
        initializer(*initargs)


class _WorkerProcess(multiprocessing.context.ForkProcess):
    """A forked pool worker: its signals wait for its token."""

    def start(self) -> None:
        with forking_worker():
            super().start()


class _WorkerContext(multiprocessing.context.ForkContext):
    Process = _WorkerProcess


def process_executor(
    max_workers: int,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> ProcessPoolExecutor:
    """The one way this package starts worker processes.

    Each worker first routes SIGINT/SIGTERM to a cancel token of its own
    (:func:`~repro.perf.cancel.install_in_worker`), then runs the
    caller's ``initializer``.  A signal sent to the whole process group
    therefore does not kill a started worker: it finishes or discards
    its task, and the owner shuts the executor down with
    ``shutdown(wait=True)``.  Each worker also records its
    ``max_workers`` siblings, so its :func:`~repro.perf.cpu.cpu_budget`
    is its share of the mask, not the whole mask.  A forked worker keeps
    SIGINT and SIGTERM blocked until its token is installed, so a group
    signal that lands during its start is a request, not a death that
    breaks the pool (:func:`~repro.perf.cancel.forking_worker`).
    """
    forked = multiprocessing.get_start_method() == "fork"
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=_WorkerContext() if forked else None,
        initializer=_init_worker,
        initargs=(initializer, tuple(initargs), max_workers),
    )


def terminate_workers(executor, grace_s: float = 5.0) -> None:
    """The one forced teardown: end an executor's workers now.

    Every worker gets SIGINT and SIGTERM together.  Two distinct signals
    cannot coalesce into one handler call, so the worker's token sees a
    second request and unwinds its task through its ``finally`` blocks
    (see :func:`~repro.perf.cancel.install_in_worker`): engines tear
    down and release what they hold.  SIGKILL follows for
    whatever is still alive after ``grace_s``, so every worker is joined
    within about ``grace_s``: one in a task that never polls its token
    too, and one a broken executor only sent SIGTERM.
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
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                if proc.is_alive():
                    os.kill(proc.pid, signum)
            except OSError:  # pragma: no cover - racing process death
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


class _InlineExecutor:
    """The ``jobs=1`` side of the executor seam: units run in this process.

    ``submit`` runs the call to completion and returns an already
    resolved future, so the supervision loop books an inline unit
    exactly like a pool unit that finished instantly.  There is no
    worker process, hence no heartbeat, no watchdog and no worker-lost
    path: a cancelled inline unit stops at its next round boundary.
    """

    def submit(self, fn: Callable, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except (Exception, Cancelled, KeyboardInterrupt) as error:
            future.set_exception(error)
        return future

    def shutdown(
        self, wait: bool = True, cancel_futures: bool = False
    ) -> None:
        pass


class ParallelUnitScheduler:
    """Longest-first supervision of independent unit payloads.

    The scheduler is generic: it receives opaque payloads plus a
    *picklable, module-level* worker callable and never interprets
    results beyond success/failure.  Workers are expected to persist
    their own results (e.g. through the campaign repository API); the
    scheduler only tracks outcomes, so a killed run loses nothing that
    completed.  ``jobs=1`` runs units inline in this process, ``jobs>1``
    over :func:`process_executor`; both go through the one loop in
    :meth:`run`.
    """

    def __init__(
        self, jobs: int, observer: "Observer | None" = None
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1; got {jobs}")
        self.jobs = int(jobs)
        self._observer = observer

    def _new_executor(self) -> ProcessPoolExecutor | _InlineExecutor:
        if self.jobs == 1:
            return _InlineExecutor()
        return process_executor(self.jobs)

    def run(
        self,
        payloads: Sequence,
        worker: Callable,
        costs: Sequence[float] | None = None,
        poll: Callable[[], object] | None = None,
        *,
        supervision: SupervisionPolicy | None = None,
        keys: Sequence[str] | None = None,
        initial_attempts: Sequence[int] | None = None,
        make_payload: Callable[[int, int], object] | None = None,
        on_failure: Callable[[UnitFailure], None] | None = None,
        completed_check: Callable[[int], bool] | None = None,
        heartbeat_dir: str | Path | None = None,
        spool_dir: str | Path | None = None,
        token: CancelToken | None = None,
    ) -> ScheduleOutcome:
        """Run ``worker(payload)`` for every payload, supervised.

        Payloads are dispatched longest-first by ``costs`` (submission
        order when ``costs`` is None), at most ``jobs`` at a time:

        * a unit whose worker **raises** is retried after a
          deterministic backoff (``supervision.retry``), up to the
          attempt budget, then quarantined;
        * a unit whose worker **dies** (segfault, OOM-kill) breaks the
          pool; the loop identifies the guilty unit via worker exit
          codes plus the heartbeat files under ``heartbeat_dir``
          (SIGKILLed pid ↔ unit key), charges it one attempt, rebuilds
          the executor, and resubmits the innocent survivors at no
          attempt cost;
        * a unit that **hangs** is detected by the watchdog — deadline
          from the cost model and observed throughput (or the hard
          ``unit_timeout_s``), or spool staleness under ``spool_dir`` —
          its worker is SIGKILLed, and the kill is charged to it as a
          ``timeout`` attempt via the same pool-break recovery path.

        Without ``supervision`` every unit gets one attempt and no
        watchdog; a failed unit ends in ``failed`` while the rest run.
        Inline (``jobs=1``) units have no process to lose or kill.

        Cancellation is cooperative.  ``token`` (a fresh one when None)
        is checked between units: once cancelled nothing new starts,
        in-flight units are awaited and the outcome reports
        ``interrupted``.  A ``KeyboardInterrupt`` reaching the loop (no
        signal handler installed) counts as the first request.  A hard
        cancel during that wait terminates the workers instead and
        reports ``hard_cancelled``.

        Args:
            payloads: opaque per-unit payloads (used when
                ``make_payload`` is None).
            worker: picklable module-level callable.
            costs: dispatch ordering and deadline derivation.
            poll: invoked from the loop while units are in flight and
                once after the batch drains — the hook the campaign
                runner uses to tail worker telemetry spools.  Runs in
                this process and must not raise.
            supervision: the retry/deadline policy; None for one attempt.
            keys: stable per-unit identity keys (backoff jitter,
                heartbeat/spool file names).  Defaults to stringified
                indices.
            initial_attempts: failed attempts already on record per
                unit — the resume path; attempt numbering continues
                from here.
            make_payload: ``(index, attempt) -> payload``, letting the
                caller embed the attempt number in what workers see.
            on_failure: called once per failed attempt with a
                :class:`UnitFailure`.  Must not raise.
            completed_check: ``index -> bool`` consulted for pool-break
                survivors; units whose side effects are already durable
                (e.g. checkpointed in the store) are marked complete
                instead of re-run.
            heartbeat_dir: directory of ``<key>.json`` heartbeat files
                written by workers (pid/attempt/done).
            spool_dir: directory of ``<key>.jsonl`` telemetry spools,
                for staleness detection.
            token: the pass's :class:`~repro.perf.cancel.CancelToken`.
        """
        outcome = ScheduleOutcome()
        total = len(payloads)
        if total == 0:
            return outcome
        for name, values in (
            ("costs", costs),
            ("keys", keys),
            ("initial_attempts", initial_attempts),
        ):
            if values is not None and len(values) != total:
                raise ValueError(f"{name} must match payloads one-to-one")
        observer = self._observer
        if observer is not None:
            observer.emit(
                "scheduler.start",
                jobs=self.jobs,
                units=total,
                supervised=supervision is not None,
            )
            observer.counter("scheduler.units_submitted").inc(total)
        started = time.perf_counter()
        batch = _Batch(
            self,
            outcome,
            worker,
            make_payload or (lambda index, attempt: payloads[index]),
            keys=(
                list(keys)
                if keys is not None
                else [str(index) for index in range(total)]
            ),
            costs=costs,
            attempts=list(initial_attempts or [0] * total),
            supervision=supervision,
            poll=poll,
            on_failure=on_failure,
            completed_check=completed_check,
            heartbeat_dir=(
                Path(heartbeat_dir) if heartbeat_dir is not None else None
            ),
            spool_dir=Path(spool_dir) if spool_dir is not None else None,
            token=token if token is not None else CancelToken(),
        )
        with activate(batch.token):
            batch.run()
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


class _Batch:
    """The state of one :meth:`ParallelUnitScheduler.run` call."""

    def __init__(
        self,
        scheduler: ParallelUnitScheduler,
        outcome: ScheduleOutcome,
        worker: Callable,
        make_payload: Callable[[int, int], object],
        *,
        keys: list[str],
        costs: Sequence[float] | None,
        attempts: list[int],
        supervision: SupervisionPolicy | None,
        poll: Callable[[], object] | None,
        on_failure: Callable[[UnitFailure], None] | None,
        completed_check: Callable[[int], bool] | None,
        heartbeat_dir: Path | None,
        spool_dir: Path | None,
        token: CancelToken,
    ) -> None:
        self.scheduler = scheduler
        self.observer = scheduler._observer
        self.outcome = outcome
        self.worker = worker
        self.make_payload = make_payload
        self.keys = keys
        self.costs = costs
        self.initial = list(attempts)
        self.attempts = attempts  # failed attempts so far, per unit
        self.supervision = supervision
        self.max_attempts = supervision.max_attempts if supervision else 1
        self.poll = poll
        self.on_failure = on_failure
        self.completed_check = completed_check
        self.heartbeat_dir = heartbeat_dir
        self.spool_dir = spool_dir
        self.token = token
        # The watchdog needs a process to kill and a policy to time it.
        self.watchdog = supervision is not None and scheduler.jobs > 1
        self.waiting = list(range(len(keys)))
        self._sort_waiting()
        self.not_before = [0.0] * len(keys)
        self.in_flight: dict[Future, int] = {}
        self.submitted: dict[int, float] = {}
        self.done: set[int] = set()
        self.last_error: dict[int, str] = {}
        self.watchdog_marked: set[int] = set()
        self.known_procs: dict[int, object] = {}
        self.observations: list[tuple[float, float]] = []
        self.executor = None

    def _count(self, name: str) -> None:
        if self.observer is not None:
            self.observer.counter(name).inc()

    def _sort_waiting(self) -> None:
        costs = self.costs
        self.waiting.sort(key=lambda i: (-(costs[i] if costs else 0.0), i))

    def _requeue(self, index: int, not_before: float) -> None:
        self.not_before[index] = not_before
        self.waiting.append(index)
        self._sort_waiting()

    def _poll(self) -> None:
        if self.poll is not None:
            self.poll()

    def _durable(self, index: int) -> bool:
        """The unit's side effects are durable though its future broke."""
        return self.completed_check is not None and self.completed_check(index)

    # ------------------------------------------------------------------
    # The loop.
    # ------------------------------------------------------------------
    def run(self) -> None:
        self.executor = self.scheduler._new_executor()
        try:
            try:
                while self.waiting or self.in_flight:
                    if self.token.cancelled:
                        break
                    self._step()
            except KeyboardInterrupt:
                self._request_cancel()
            if self.waiting or self.in_flight:  # cancelled with work left
                self._drain()
        finally:
            if not self.outcome.hard_cancelled:
                self._await_in_flight()
            # One final poll after every worker has exited, so the
            # spools' last flushed lines are merged.
            self._poll()
        self._finish()

    def _request_cancel(self) -> None:
        if not self.token.cancelled:
            self.token.cancel()

    def _step(self) -> None:
        now = time.monotonic()
        for index in [i for i in self.waiting if self.not_before[i] <= now]:
            if self.token.cancelled:
                break
            if len(self.in_flight) >= self.scheduler.jobs:
                break
            self.waiting.remove(index)
            self.submitted[index] = now
            try:
                future = self.executor.submit(
                    self.worker, self.make_payload(index, self.attempts[index])
                )
            except BrokenProcessPool:
                # A worker died before its future resolved: this unit
                # waits, uncharged, for the rebuild those futures bring.
                self.submitted.pop(index)
                self._requeue(index, now)
                if not self.in_flight:
                    self._recover([])
                break
            self.in_flight[future] = index
        processes = getattr(self.executor, "_processes", None) or {}
        for pid, proc in processes.items():
            self.known_procs.setdefault(pid, proc)
        if not self.in_flight:
            if self.waiting:  # everything is waiting out a backoff
                gate = min(self.not_before[i] for i in self.waiting)
                time.sleep(min(0.2, max(0.01, gate - now)))
            self._poll()
            return
        done, _ = wait(
            set(self.in_flight), timeout=0.2, return_when=FIRST_COMPLETED
        )
        self._poll()
        broken = [
            index for index in map(self._settle, done) if index is not None
        ]
        if broken:
            survivors = broken + list(self.in_flight.values())
            self.in_flight.clear()
            self._recover(survivors)
        elif self.watchdog:
            # A kill breaks the pool; the next wait() returns the broken
            # futures and the recovery path charges the unit.
            self._watchdog_pass(time.monotonic())

    def _settle(self, future: Future) -> int | None:
        """Book one resolved future; its index when the pool broke under it."""
        index = self.in_flight.pop(future)
        error = future.exception()
        if error is None:
            duration = time.monotonic() - self.submitted.pop(index)
            if self.costs is not None and duration > 0:
                self.observations.append((self.costs[index], duration))
            self._complete(index, future.result())
        elif isinstance(error, BrokenProcessPool):
            return index
        elif isinstance(error, (Cancelled, KeyboardInterrupt)):
            # The unit saw a cancellation and discarded its partial
            # work; the pass stops at this unit boundary.
            self.outcome.cancelled.append(index)
            self._request_cancel()
        else:
            self._charge(index, "error", repr(error), error)
        return None

    def _complete(self, index: int, result: object) -> None:
        self.done.add(index)
        self.outcome.completed.append(index)
        self.outcome.results[index] = result
        self._count("scheduler.units_completed")

    def _charge(
        self,
        index: int,
        kind: str,
        error: str,
        exception: BaseException | None = None,
    ) -> None:
        """One failed attempt: record it, then retry, quarantine or fail."""
        self.attempts[index] += 1
        self.last_error[index] = error
        exhausted = self.attempts[index] >= self.max_attempts
        quarantined = exhausted and self.supervision is not None
        self._count("scheduler.units_failed")
        if self.on_failure is not None:
            try:
                self.on_failure(
                    UnitFailure(
                        index=index,
                        key=self.keys[index],
                        attempt=self.attempts[index],
                        kind=kind,
                        error=error,
                        traceback=(
                            _format_remote_traceback(exception)
                            if exception is not None
                            else None
                        ),
                        quarantined=quarantined,
                        exception=exception,
                    )
                )
            except Exception:  # pragma: no cover - callback bug guard
                pass
        if quarantined:
            self.outcome.quarantined[index] = error
        elif not exhausted and not self.token.cancelled:
            self._requeue(
                index,
                time.monotonic()
                + self.supervision.backoff_s(
                    self.keys[index], self.attempts[index]
                ),
            )

    # ------------------------------------------------------------------
    # Pool recovery and the watchdog (process pools only).
    # ------------------------------------------------------------------
    def _heartbeat(self, index: int) -> dict | None:
        """The unit's live heartbeat for its current attempt, if any."""
        if self.heartbeat_dir is None:
            return None
        heartbeat = _read_json(self.heartbeat_dir / f"{self.keys[index]}.json")
        if (
            heartbeat is None
            or heartbeat.get("done")
            or heartbeat.get("attempt") != self.attempts[index]
        ):
            return None
        return heartbeat

    def _recover(self, survivors: list[int]) -> None:
        """Attribute guilt, charge attempts, rebuild, resubmit."""
        now = time.monotonic()
        for proc in self.known_procs.values():
            try:
                proc.join(0.5)
            except Exception:  # pragma: no cover - racing death
                pass
        killed_pids = {
            pid
            for pid, proc in self.known_procs.items()
            if proc.exitcode == -signal.SIGKILL
        }
        # Survivors are resubmitted, so their workers are interrupted.
        self._retire()
        self.known_procs.clear()
        self.outcome.pool_rebuilds += 1
        if self.observer is not None:
            self.observer.counter("scheduler.pool_rebuilds").inc()
            self.observer.emit(
                "scheduler.pool_rebuild",
                survivors=len(survivors),
                killed_pids=sorted(killed_pids),
            )
        for index in survivors:
            self.submitted.pop(index, None)
            if self._durable(index):
                # The worker finished its durable write before the pool
                # broke; the future just never resolved.
                self._complete(index, None)
                continue
            heartbeat = self._heartbeat(index)
            if index in self.watchdog_marked:
                self._charge(index, "timeout", self.last_error[index])
            elif heartbeat is not None and heartbeat.get("pid") in killed_pids:
                self._charge(
                    index,
                    "worker-lost",
                    "worker process killed "
                    f"(pid {heartbeat.get('pid')}, SIGKILL) while "
                    f"executing attempt {self.attempts[index]}",
                )
            else:
                # Innocent bystander: resubmit at no attempt cost.
                self._requeue(index, now)
        self.watchdog_marked.clear()
        self.executor = self.scheduler._new_executor()

    def _observed_rate(self) -> float | None:
        cost_sum = sum(cost for cost, _ in self.observations)
        time_sum = sum(duration for _, duration in self.observations)
        if time_sum <= 0 or cost_sum <= 0:
            return None
        return cost_sum / time_sum

    def _watchdog_pass(self, now: float) -> None:
        """SIGKILL the workers of overdue or silent units."""
        policy = self.supervision
        rate = self._observed_rate()
        now_wall = time.time()
        for index in list(self.in_flight.values()):
            if index in self.watchdog_marked:
                continue
            elapsed = now - self.submitted[index]
            cost = self.costs[index] if self.costs is not None else None
            deadline = policy.deadline_s(cost, rate)
            reason = None
            if deadline is not None and elapsed > deadline:
                reason = (
                    f"exceeded its {deadline:.1f}s deadline "
                    f"(running {elapsed:.1f}s)"
                )
            elif (
                policy.heartbeat_timeout_s is not None
                and self.spool_dir is not None
                and elapsed > policy.heartbeat_timeout_s
            ):
                spool_path = self.spool_dir / f"{self.keys[index]}.jsonl"
                try:
                    stale_s = now_wall - spool_path.stat().st_mtime
                except OSError:
                    stale_s = None
                if (
                    stale_s is not None
                    and stale_s > policy.heartbeat_timeout_s
                ):
                    reason = (
                        f"telemetry spool silent for {stale_s:.1f}s "
                        f"(heartbeat timeout "
                        f"{policy.heartbeat_timeout_s:.1f}s)"
                    )
            if reason is None:
                continue
            self.outcome.timeouts += 1
            self.watchdog_marked.add(index)
            self.last_error[index] = f"watchdog: unit {reason}"
            if self.observer is not None:
                self.observer.counter("watchdog.timeouts").inc()
                self.observer.emit(
                    "watchdog.timeout", key=self.keys[index], reason=reason
                )
            heartbeat = self._heartbeat(index)
            pid = heartbeat.get("pid") if heartbeat is not None else None
            targets = (
                [pid]
                if isinstance(pid, int)
                else [
                    known
                    for known, proc in self.known_procs.items()
                    if proc.is_alive()
                ]
            )
            for target in targets:
                try:
                    os.kill(target, signal.SIGKILL)
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Cancellation.
    # ------------------------------------------------------------------
    def _retire(self) -> None:
        """Interrupt the executor's workers and SIGKILL them after the
        kill grace: a rebuild's and a hard cancel's one teardown."""
        terminate_workers(
            self.executor,
            self.supervision.kill_grace_s if self.supervision else 5.0,
        )

    def _await_in_flight(self) -> None:
        """Wait for in-flight units; a hard cancel terminates them instead.

        ``shutdown(wait=True)`` returns only once the executor has
        joined every worker, so no worker outlives a drain or a return.
        """
        try:
            with self.token.interruptible():
                self.executor.shutdown(wait=True, cancel_futures=True)
        except KeyboardInterrupt:
            self.outcome.hard_cancelled = True
            self._count("scheduler.hard_cancels")
            self._retire()

    def _drain(self) -> None:
        """Nothing new starts; book what the in-flight units did."""
        self._count("scheduler.interrupts")
        self._await_in_flight()
        for future, index in list(self.in_flight.items()):
            if not future.done() or future.cancelled():
                self.in_flight.pop(future)
                self.outcome.cancelled.append(index)
            elif self._settle(future) is not None:
                # The pool broke under the unit during the drain.
                if self._durable(index):
                    self._complete(index, None)
                else:
                    self.outcome.cancelled.append(index)
        self.outcome.cancelled.extend(self.waiting)
        self.waiting.clear()

    def _finish(self) -> None:
        outcome = self.outcome
        for index in range(len(self.keys)):
            done = index in self.done
            if done or self.attempts[index] > self.initial[index]:
                outcome.attempts[index] = self.attempts[index] + int(done)
            if (
                index in self.last_error
                and not done
                and index not in outcome.quarantined
            ):
                outcome.failed[index] = self.last_error[index]
        outcome.completed.sort()
        outcome.cancelled = sorted(set(outcome.cancelled))
        # Interrupted: some unit was left without a terminal outcome.
        outcome.interrupted = bool(outcome.cancelled) or any(
            self.attempts[index] < self.max_attempts
            for index in outcome.failed
        )
