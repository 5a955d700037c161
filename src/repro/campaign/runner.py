"""Campaign execution: run every unit once, checkpoint, resume.

:class:`CampaignRunner` turns a :class:`~repro.campaign.spec.CampaignSpec`
into completed artifacts.  The execution contract that makes campaigns
interruptible is *unit independence*: every unit is executed on a
freshly built :class:`~repro.hardware.prototype.HardwarePrototype`
(fresh devices, fresh clients, fresh RNG streams derived only from the
unit's own seed), so a unit's results depend on nothing but its
:class:`~repro.campaign.spec.RunSpec`.  Datasets — which are immutable —
are the only state shared across units, cached per
``(n_train, n_test, seed, noise_std)`` signature to avoid regenerating
the same synthetic MNIST for every grid cell.

Consequences:

* killing a campaign after N units and resuming it produces artifacts
  bit-identical to an uninterrupted run (the resume test in
  ``tests/campaign/`` byte-compares the histories);
* a unit's execution backend (``sequential`` / ``population`` /
  ``pool`` ...) is part of its spec — and hence its key — so artifacts
  always record the engine that produced them (the vectorized engine is
  numerically, not byte-, identical to the reference); result-neutral
  knobs such as ``telemetry`` and ``pool_workers`` are excluded from
  the key, so toggling them never invalidates finished work;
* completed units are skipped by content key, never re-trained — the
  report stage (:mod:`repro.campaign.report`) regenerates every table
  from the store alone.
"""

from __future__ import annotations

import json
import os
import signal
import time
import traceback as traceback_module
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from repro.campaign.spec import CampaignSpec, RunSpec
from repro.campaign.store import ArtifactStore, _atomic_write
from repro.data.dataset import Dataset
from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.faults.chaos import ChaosPlan
from repro.faults.models import FaultPlan
from repro.faults.policies import ResilienceConfig
from repro.hardware.prototype import (
    HardwarePrototype,
    PrototypeConfig,
    PrototypeResult,
)
from repro.obs.observer import Observer, active_or_none
from repro.obs.sink import (
    SpoolObserver,
    TelemetryCollector,
    TelemetrySpool,
    clear_spool_context,
    read_spool_tail,
    set_spool_context,
)
from repro.perf.scheduler import (
    ParallelUnitScheduler,
    SupervisionPolicy,
    UnitFailure,
    estimate_unit_cost,
)

__all__ = [
    "CampaignRunner",
    "UnitOutcome",
    "CampaignRunSummary",
    "ParallelUnitError",
    "UnitVerificationError",
    "UnitPayload",
    "DEFAULT_SUPERVISION",
    "execute_unit",
]

# The supervision applied when ``CampaignRunner.run`` is called without
# an explicit policy: a small bounded retry budget with fast backoff.
# Pass ``supervision=None`` to restore the unsupervised fail-fast
# behaviour (failures raise instead of quarantining).
DEFAULT_SUPERVISION = SupervisionPolicy()


class ParallelUnitError(RuntimeError):
    """One or more units raised during an *unsupervised* parallel pass.

    Raised after the scheduler has drained, so every unit that finished
    cleanly is already checkpointed in the store — re-running the
    campaign resumes past them and retries only the failed units.
    Supervised passes (the default) never raise this: failed units are
    retried and, at budget exhaustion, quarantined instead.
    """


class UnitVerificationError(RuntimeError):
    """A just-recorded unit failed its verify-after-write re-hash.

    The artifact bytes on disk do not match the checksums the manifest
    recorded moments ago — a torn or corrupted write.  Raised from the
    worker so supervision charges the attempt and either retries (the
    rewrite replaces the bad bytes) or quarantines the unit.
    """


@dataclass(frozen=True)
class UnitOutcome:
    """What happened to one unit during a runner pass.

    Attributes:
        key: the unit's content key.
        name: the unit's human-readable name.
        skipped: the unit was already complete in the store (or already
            quarantined by a previous pass).
        duration_s: real (not simulated) execution time; 0 when skipped.
        quarantined: the unit exhausted its supervised retry budget;
            a terminal failure record sits under ``quarantine/<key>/``.
        attempts: attempts consumed over the unit's lifetime (failed
            attempts on record, plus the succeeding one if any).
    """

    key: str
    name: str
    skipped: bool
    duration_s: float = 0.0
    quarantined: bool = False
    attempts: int = 0


@dataclass(frozen=True)
class CampaignRunSummary:
    """Aggregate of one :meth:`CampaignRunner.run` pass.

    Attributes:
        outcomes: per-unit outcomes in execution order.
        interrupted: the pass stopped early (unit cap reached,
            ``KeyboardInterrupt``, or ``SIGTERM``); completed units are
            checkpointed and a later pass will resume after them.
    """

    outcomes: tuple[UnitOutcome, ...]
    interrupted: bool = False

    @property
    def executed(self) -> int:
        """Units actually trained this pass."""
        return sum(
            1 for o in self.outcomes if not o.skipped and not o.quarantined
        )

    @property
    def skipped(self) -> int:
        """Units skipped because their artifacts already existed."""
        return sum(1 for o in self.outcomes if o.skipped)

    @property
    def quarantined(self) -> int:
        """Units given up on after exhausting their retry budget."""
        return sum(1 for o in self.outcomes if o.quarantined)

    @property
    def degraded(self) -> bool:
        """The campaign completed but not every unit has artifacts."""
        return self.quarantined > 0


# ----------------------------------------------------------------------
# Unit execution.  Module-level (and hence picklable) so the parallel
# scheduler can ship units to worker processes; the sequential runner
# goes through the same code path, which is what makes the two modes
# byte-identical.
# ----------------------------------------------------------------------

# Per-process dataset cache.  Datasets are immutable and keyed only on
# their generation signature, so a scheduler worker regenerates each
# distinct dataset at most once no matter how many units it executes.
_WORKER_DATASETS: dict[tuple, tuple[Dataset, Dataset]] = {}


def _unit_datasets(spec: RunSpec) -> tuple[Dataset, Dataset]:
    signature = (spec.n_train, spec.n_test, spec.seed, spec.noise_std)
    if signature not in _WORKER_DATASETS:
        _WORKER_DATASETS[signature] = load_synthetic_mnist(
            n_train=spec.n_train,
            n_test=spec.n_test,
            seed=spec.seed,
            noise_std=spec.noise_std,
        )
    return _WORKER_DATASETS[signature]


def execute_unit(
    spec: RunSpec,
    datasets: tuple[Dataset, Dataset] | None = None,
    observer: Observer | None = None,
) -> PrototypeResult:
    """Execute one unit on a fresh, independently seeded testbed.

    All randomness derives from ``spec.seed`` alone, so the result is
    identical no matter which process runs the unit or in what order
    units run — the property the parallel scheduler relies on.
    """
    train, test = datasets if datasets is not None else _unit_datasets(spec)
    scale = spec.scale()
    prototype = HardwarePrototype(
        train,
        test,
        PrototypeConfig(
            n_servers=spec.n_servers,
            model=scale.model_config(),
            sgd=scale.sgd_config(),
            seed=spec.seed,
            backend=spec.backend,
            aggregation_tiers=spec.tiers,
        ),
        observer=observer,
    )
    # The spec's full FederatedConfig projection is handed to the
    # trainer, so every training knob the spec declares — including
    # dropout_probability, proximal_mu, and pool_workers, which the
    # loop arguments cannot express — is honored exactly as the
    # stored spec.json records it.
    return prototype.run(
        federated_config=spec.federated_config(),
        fault_plan=spec.fault_plan,
        resilience=spec.resilience,
    )


def _unit_spool_observer(spec: RunSpec, spool_dir: str) -> SpoolObserver:
    """Build a spooling observer for one unit's execution.

    The spool file is named by the unit's content key (unique within a
    campaign, filesystem-safe) and labelled with the unit's readable
    name; the spool *context* is set so nested worker tiers — the pool
    engine forked inside this process — stream their own telemetry into
    the same directory under the same unit label.
    """
    spool = TelemetrySpool(
        Path(spool_dir) / f"{spec.key()}.jsonl", unit=spec.name, role="unit"
    )
    set_spool_context(spool_dir, spec.name)
    return SpoolObserver(spool)


@dataclass(frozen=True)
class UnitPayload:
    """Everything a scheduler worker needs to execute one unit attempt.

    Attributes:
        spec: the unit to train.
        store_root: artifact store root (a string so the payload stays
            trivially picklable).
        spool_dir: telemetry spool directory, or ``None`` to keep unit
            telemetry in-process.
        attempt: 0-based attempt number — carried so saboteurs act
            deterministically per attempt and heartbeat files name the
            attempt they belong to.
        chaos: optional saboteur plan (testing/benchmarks only).
        heartbeat: write a ``heartbeats/<key>.json`` liveness file so
            the supervising parent can map this worker's pid back to
            the unit.
    """

    spec: RunSpec
    store_root: str
    spool_dir: str | None = None
    attempt: int = 0
    chaos: ChaosPlan | None = None
    heartbeat: bool = False


def _coerce_payload(payload) -> UnitPayload:
    """Accept the legacy ``(spec, store_root[, spool_dir])`` tuple form."""
    if isinstance(payload, UnitPayload):
        return payload
    spec, store_root, *rest = payload
    return UnitPayload(
        spec=spec,
        store_root=str(store_root),
        spool_dir=rest[0] if rest else None,
    )


def _heartbeat_path(store: ArtifactStore, key: str) -> Path:
    return store.heartbeat_dir / f"{key}.json"


def _write_heartbeat(
    store: ArtifactStore, spec: RunSpec, attempt: int, done: bool = False
) -> None:
    """Record who is executing this unit attempt.

    Heartbeats are runtime state, like spools: pid + attempt let the
    supervising scheduler attribute a dead worker to its unit and aim
    watchdog kills.  A *successful* attempt deletes its heartbeat (see
    :func:`_clear_heartbeat`) — completion is already durable in the
    manifest, and removing the file keeps a supervised store
    byte-identical to an unsupervised one.
    """
    store.heartbeat_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(
        _heartbeat_path(store, spec.key()),
        json.dumps(
            {
                "key": spec.key(),
                "unit": spec.name,
                "pid": os.getpid(),
                "attempt": int(attempt),
                "started_unix": time.time(),
                "done": bool(done),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )


def _clear_heartbeat(store: ArtifactStore, key: str) -> None:
    """Remove a unit's heartbeat after its store write became durable.

    Besides keeping the store clean, this is what exonerates a finished
    unit when the pool breaks moments later: no heartbeat, no blame —
    the supervisor's ``completed_check`` finds the manifest entry
    instead.
    """
    try:
        _heartbeat_path(store, key).unlink()
    except FileNotFoundError:
        pass


def _execute_and_record(payload) -> dict:
    """Scheduler worker: run one unit and checkpoint it into the store.

    Workers open the shared store through the repository API (the
    backend is auto-detected from the index file the parent created),
    so a campaign killed mid-parallel-run keeps every unit that
    finished — exactly the sequential crash contract.  Returns a small
    summary the parent uses for telemetry and outcome accounting.

    The payload is a :class:`UnitPayload` (or the legacy ``(spec,
    store_root[, spool_dir])`` tuple); with a spool directory and
    ``spec.telemetry`` on, the unit's observer streams every event live
    into a spool file the parent tails while the unit is still training.

    After the store write the unit's artifacts are immediately re-hashed
    against the manifest (verify-after-write): torn or corrupted bytes
    fail *this attempt* with :class:`UnitVerificationError` instead of
    surfacing hours later in a resume check or a report.
    """
    unit = _coerce_payload(payload)
    spec = unit.spec
    key = spec.key()
    store = ArtifactStore(unit.store_root)
    saboteur = (
        unit.chaos.saboteur_for(spec.name) if unit.chaos is not None else None
    )
    if unit.heartbeat:
        _write_heartbeat(store, spec, unit.attempt, done=False)
    observer: Observer | None = None
    if spec.telemetry:
        if unit.spool_dir is not None:
            observer = _unit_spool_observer(spec, unit.spool_dir)
        else:
            observer = Observer()
    started = time.perf_counter()
    try:
        if observer is not None:
            observer.emit(
                "unit.start",
                unit=spec.name,
                key=key,
                rounds_planned=spec.max_rounds,
                cost=estimate_unit_cost(spec),
                attempt=unit.attempt,
            )
        if saboteur is not None:
            saboteur.on_start(unit.attempt)
        result = execute_unit(spec, observer=observer)
        duration_s = time.perf_counter() - started
        telemetry_jsonl = None
        if observer is not None:
            observer.emit(
                "unit.end",
                unit=spec.name,
                key=key,
                rounds=int(result.rounds),
                duration_s=duration_s,
            )
            observer.emit("metrics.snapshot", **observer.snapshot())
            telemetry_jsonl = observer.events.to_jsonl()
        store.record_unit(
            spec,
            result.history,
            _result_document(spec, result),
            telemetry_jsonl=telemetry_jsonl,
        )
        if saboteur is not None:
            saboteur.corrupt_artifacts(store.unit_dir(key), unit.attempt)
        problems = store.verify_unit(key)
        if problems:
            raise UnitVerificationError(
                f"unit {spec.name} failed verify-after-write: "
                + "; ".join(problems)
            )
    except BaseException:
        if isinstance(observer, SpoolObserver):
            observer.finalize(status="error")
        raise
    finally:
        clear_spool_context()
    if unit.heartbeat:
        _clear_heartbeat(store, key)
    if isinstance(observer, SpoolObserver):
        # Sealed only after the store write: a spool without its "end"
        # record means the unit is still running (or died) — exactly
        # what the status display needs to distinguish.
        observer.finalize(duration_s=duration_s)
    return {
        "key": key,
        "name": spec.name,
        "duration_s": duration_s,
        "rounds": int(result.rounds),
        "total_energy_j": float(result.total_energy_j),
        "reached_target": bool(result.reached_target),
    }


def _result_document(spec: RunSpec, result: PrototypeResult) -> dict:
    """The ``result.json`` measurement snapshot for one completed unit."""
    return {
        "name": spec.name,
        "participants": int(result.participants),
        "epochs": int(result.epochs),
        "seed": int(spec.seed),
        "backend": spec.backend,
        "train_to_target": bool(spec.train_to_target),
        "rounds": int(result.rounds),
        "reached_target": bool(result.reached_target),
        "final_accuracy": float(result.history.final_accuracy()),
        "final_loss": float(result.history.final_loss()),
        "total_energy_j": float(result.total_energy_j),
        "energy_per_round_j": [float(e) for e in result.energy_per_round_j],
        "wasted_energy_j": float(result.wasted_energy_j),
        "degraded_rounds": int(result.degraded_rounds),
        "wall_clock_s": float(result.wall_clock_s),
        "iot_energy_j": float(result.iot_energy_j),
        "tiers": int(spec.tiers),
        "aggregation_energy_j": float(result.aggregation_energy_j),
    }


@contextmanager
def _sigterm_as_interrupt():
    """Map ``SIGTERM`` onto ``KeyboardInterrupt`` for the duration.

    Cluster schedulers preempt with SIGTERM; converting it lets a
    campaign pass take the exact same graceful-drain-and-checkpoint
    path as Ctrl-C.  Installing a handler is only legal from the main
    thread — anywhere else (e.g. a runner driven from a worker thread
    in tests) the conversion is silently skipped.
    """
    installed = False
    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _sigterm_handler)
        installed = True
    except ValueError:  # not the main thread
        pass
    try:
        yield
    finally:
        if installed:
            signal.signal(
                signal.SIGTERM,
                previous if previous is not None else signal.SIG_DFL,
            )


def _sigterm_handler(signum, frame):  # pragma: no cover - signal path
    raise KeyboardInterrupt(f"terminated by signal {signum}")


class CampaignRunner:
    """Executes a campaign against an artifact store, resumably.

    Args:
        campaign: the grid to execute.
        store: artifact store (a path or an :class:`ArtifactStore`);
            initialised/bound to the campaign on construction.
        observer: optional campaign-level telemetry sink — receives
            ``campaign.start`` / ``campaign.unit`` / ``campaign.end``
            events and the ``campaign.units_run`` / ``campaign.units_skipped``
            counters.  Per-unit *training* telemetry is controlled by
            each unit's ``RunSpec.telemetry`` flag and lands in the
            unit's artifact directory instead.
        backend_override: run every unit on this execution backend
            regardless of what its spec says (the ``--backend`` CLI
            flag).  Applied by rewriting the *campaign* — the backend
            axis collapses onto the overridden base — and expanding the
            unit list from the rewritten campaign, so the stored
            ``campaign.json``, the unit count, and every unit's
            name/key all describe exactly what runs (a multi-backend
            axis deduplicates to one unit instead of running identical
            work under stale labels).
        fault_plan_override: inject this fault plan into every unit
            (rewrites the campaign, collapsing the fault axis, like
            ``backend_override``).
        population_dtype_override: force every unit's population-backend
            compute dtype (the ``--population-dtype`` CLI flag; rewrites
            the campaign base — there is no dtype axis to collapse).
        quorum_override: force ``min_quorum`` on every unit.  A
            labelled resilience axis is preserved — each point keeps
            its label and other policy fields and only ``min_quorum``
            is rewritten; without an axis the base spec's resilience
            config is rewritten (attaching a default one if missing).
        chaos: optional saboteur plan shipped to every unit worker —
            the process-level fault-injection hook the ``chaos_smoke``
            suite and ``bench_chaos.py`` drive.  Chaos never touches
            what a *successful* attempt computes, so artifacts stay
            byte-identical to a fault-free run.
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        store: ArtifactStore | str,
        observer: Observer | None = None,
        backend_override: str | None = None,
        fault_plan_override: FaultPlan | None = None,
        quorum_override: int | None = None,
        chaos: ChaosPlan | None = None,
        population_dtype_override: str | None = None,
    ) -> None:
        self.store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        self._observer = active_or_none(observer)
        self._chaos = chaos
        self._dataset_cache: dict[tuple, tuple[Dataset, Dataset]] = {}
        # Overrides rewrite the campaign itself, and the unit list is
        # always the rewritten campaign's own expansion — so the stored
        # spec, len(campaign), and every unit name/key agree with what
        # actually runs (and an overridden multi-point axis collapses
        # instead of running identical work under stale labels).
        self.campaign = self._overridden_campaign(
            campaign,
            backend_override,
            fault_plan_override,
            quorum_override,
            population_dtype_override,
        )
        self.units = self.campaign.expand()
        self.store.initialize(self.campaign)

    @staticmethod
    def _overridden_campaign(
        campaign: CampaignSpec,
        backend: str | None,
        fault_plan: FaultPlan | None,
        quorum: int | None,
        population_dtype: str | None = None,
    ) -> CampaignSpec:
        if (
            backend is None
            and fault_plan is None
            and quorum is None
            and population_dtype is None
        ):
            return campaign
        base_changes: dict = {}
        axis_changes: dict = {}
        if backend is not None:
            base_changes["backend"] = backend
            axis_changes["backends"] = ()
        if population_dtype is not None:
            base_changes["population_dtype"] = population_dtype
        if fault_plan is not None:
            base_changes["fault_plan"] = fault_plan
            axis_changes["faults"] = ()
        if quorum is not None:
            if campaign.resiliences:
                # Keep the labelled axis: only min_quorum is forced,
                # every other policy field (and the labels the unit
                # names embed) survives.
                axis_changes["resiliences"] = tuple(
                    replace(
                        point,
                        config=replace(
                            point.config or ResilienceConfig(),
                            min_quorum=quorum,
                        ),
                    )
                    for point in campaign.resiliences
                )
            else:
                base_changes["resilience"] = replace(
                    campaign.base.resilience or ResilienceConfig(),
                    min_quorum=quorum,
                )
        return replace(
            campaign,
            base=replace(campaign.base, **base_changes),
            **axis_changes,
        )

    # ------------------------------------------------------------------
    # Unit execution.
    # ------------------------------------------------------------------
    def _datasets(self, spec: RunSpec) -> tuple[Dataset, Dataset]:
        signature = (spec.n_train, spec.n_test, spec.seed, spec.noise_std)
        if signature not in self._dataset_cache:
            self._dataset_cache[signature] = load_synthetic_mnist(
                n_train=spec.n_train,
                n_test=spec.n_test,
                seed=spec.seed,
                noise_std=spec.noise_std,
            )
        return self._dataset_cache[signature]

    def run_unit(self, spec: RunSpec) -> PrototypeResult:
        """Execute one unit on a fresh, independently seeded testbed."""
        return execute_unit(
            spec,
            datasets=self._datasets(spec),
            observer=self._unit_observer(spec),
        )

    def _unit_observer(self, spec: RunSpec) -> Observer | None:
        self._active_unit_observer = Observer() if spec.telemetry else None
        return self._active_unit_observer

    def _drain_unit_telemetry(self) -> str | None:
        observer = getattr(self, "_active_unit_observer", None)
        if observer is None:
            return None
        self._active_unit_observer = None
        observer.emit("metrics.snapshot", **observer.snapshot())
        return observer.events.to_jsonl()

    # ------------------------------------------------------------------
    # Failure accounting.
    # ------------------------------------------------------------------
    def _record_unit_failure(
        self,
        spec: RunSpec,
        attempt: int,
        kind: str,
        error: str,
        quarantined: bool,
        traceback_text: str | None = None,
    ) -> None:
        """Persist one failed attempt and emit its telemetry.

        Writes the durable ``quarantine/<key>/attempt-N.json`` record
        (exception repr, traceback, the tail of the unit's telemetry
        spool, wall timestamps) — the trail that makes attempt counting
        survive a killed campaign — and, for a quarantined unit whose
        corrupt artifacts made it into the manifest, evicts them.
        """
        key = spec.key()
        now = time.time()
        self.store.record_failure(
            key,
            {
                "unit": spec.name,
                "kind": kind,
                "error": error,
                "traceback": traceback_text,
                "spool_tail": read_spool_tail(
                    self.store.spool_dir / f"{key}.jsonl"
                ),
                "quarantined": bool(quarantined),
                "wall_time_unix": now,
                "wall_time_iso": datetime.fromtimestamp(
                    now, tz=timezone.utc
                ).isoformat(),
            },
        )
        if quarantined and self.store.contains(key):
            # The failure was detected *after* the manifest write (a
            # corrupt artifact); evict the bad bytes from the store.
            self.store.quarantine_unit(key)
        obs = self._observer
        if obs is not None:
            category = "unit.quarantined" if quarantined else "unit.retry"
            obs.counter(category).inc()
            obs.emit(
                category,
                campaign=self.campaign.name,
                unit=spec.name,
                key=key,
                attempt=attempt,
                kind=kind,
                error=error,
            )

    # ------------------------------------------------------------------
    # The campaign loop.
    # ------------------------------------------------------------------
    def run(
        self,
        max_units: int | None = None,
        jobs: int = 1,
        supervision: SupervisionPolicy | None = DEFAULT_SUPERVISION,
        retry_quarantined: bool = False,
    ) -> CampaignRunSummary:
        """Execute every incomplete unit, checkpointing each.

        Args:
            max_units: stop (gracefully, with everything so far
                checkpointed) after training this many units — the
                hook the kill-and-resume tests use.  Skipped units do
                not count against the cap.
            jobs: worker processes for unit execution.  ``1`` (the
                default) runs units sequentially in this process;
                ``>1`` fans incomplete units out longest-first over a
                :class:`~repro.perf.scheduler.ParallelUnitScheduler`.
                Because every unit seeds itself and workers checkpoint
                through the shared store's repository API, both modes
                produce byte-identical artifacts.
            supervision: failure policy.  The default retries a failed
                unit with deterministic backoff and, once the attempt
                budget is spent, *quarantines* it (durable failure
                record, campaign completes degraded).  In parallel mode
                it additionally arms the watchdog and broken-pool
                recovery.  ``None`` restores fail-fast: the first
                failure raises (:class:`ParallelUnitError` after the
                drain, in parallel mode).
            retry_quarantined: forget existing failure trails first, so
                previously quarantined units get a fresh budget.

        A ``KeyboardInterrupt`` mid-unit is absorbed gracefully: the
        summary reports ``interrupted=True`` and the partially-run
        unit's artifacts are simply absent, so the next pass re-runs it
        from scratch (deterministically, to the same bytes).  For the
        duration of the pass ``SIGTERM`` is mapped onto the same path,
        so cluster preemption checkpoints instead of killing mid-write.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1; got {jobs}")
        with _sigterm_as_interrupt():
            return self._run(max_units, jobs, supervision, retry_quarantined)

    def _run(
        self,
        max_units: int | None,
        jobs: int,
        supervision: SupervisionPolicy | None,
        retry_quarantined: bool,
    ) -> CampaignRunSummary:
        obs = self._observer
        collector = (
            TelemetryCollector(self.store.spool_dir, observer=obs)
            if obs is not None
            else None
        )
        if retry_quarantined:
            for key in self.store.quarantined_keys():
                self.store.clear_failures(key)
        completed = self.store.completed_keys()
        quarantined_keys = (
            self.store.quarantined_keys() if supervision is not None else set()
        )
        outcomes: list[UnitOutcome] = []
        interrupted = False
        executed = 0
        if obs is not None:
            obs.emit(
                "campaign.start",
                campaign=self.campaign.name,
                key=self.campaign.key(),
                units=len(self.units),
                already_complete=len(completed),
                quarantined=len(quarantined_keys),
                jobs=jobs,
            )
        if jobs > 1:
            return self._run_parallel(
                max_units,
                jobs,
                completed,
                quarantined_keys,
                collector,
                supervision,
            )
        spool_dir = str(self.store.spool_dir)
        try:
            for spec in self.units:
                key = spec.key()
                if key in completed:
                    outcomes.append(
                        UnitOutcome(key=key, name=spec.name, skipped=True)
                    )
                    if obs is not None:
                        obs.counter("campaign.units_skipped").inc()
                        obs.emit(
                            "campaign.unit",
                            campaign=self.campaign.name,
                            unit=spec.name,
                            key=key,
                            skipped=True,
                        )
                    continue
                if key in quarantined_keys:
                    # Quarantine is durable: the unit stays out of the way
                    # until the operator grants a fresh budget.
                    outcomes.append(
                        UnitOutcome(
                            key=key,
                            name=spec.name,
                            skipped=True,
                            quarantined=True,
                            attempts=self.store.attempts_used(key),
                        )
                    )
                    if obs is not None:
                        obs.emit(
                            "campaign.unit",
                            campaign=self.campaign.name,
                            unit=spec.name,
                            key=key,
                            skipped=True,
                            quarantined=True,
                        )
                    continue
                if max_units is not None and executed >= max_units:
                    interrupted = True
                    break
                # The sequential loop runs the *same* module-level worker
                # function as the parallel scheduler — one code path, so
                # both modes emit the identical unit event stream and write
                # identical artifacts.  Attempt numbering continues from
                # the durable failure trail, so a killed-and-resumed retry
                # sequence is indistinguishable from an uninterrupted one.
                attempt = (
                    self.store.attempts_used(key) if supervision is not None else 0
                )
                unit_summary = None
                quarantined_now = False
                while True:
                    try:
                        unit_summary = _execute_and_record(
                            UnitPayload(
                                spec=spec,
                                store_root=str(self.store.root),
                                spool_dir=spool_dir,
                                attempt=attempt,
                                chaos=self._chaos,
                            )
                        )
                    except KeyboardInterrupt:
                        interrupted = True
                    except Exception as error:
                        if supervision is None:
                            if collector is not None:
                                collector.poll()
                            raise
                        attempt += 1
                        quarantined_now = attempt >= supervision.max_attempts
                        self._record_unit_failure(
                            spec,
                            attempt,
                            "error",
                            repr(error),
                            quarantined_now,
                            traceback_module.format_exc(),
                        )
                    finally:
                        if collector is not None:
                            try:
                                collector.poll()
                            except KeyboardInterrupt:
                                # The unit (if it finished) is already
                                # durably checkpointed; remember the
                                # interrupt but keep its summary.
                                interrupted = True
                    if unit_summary is not None or interrupted or quarantined_now:
                        break
                    try:
                        time.sleep(supervision.backoff_s(key, attempt))
                    except KeyboardInterrupt:
                        # Ctrl-C / SIGTERM during a backoff wait checkpoints
                        # exactly like an interrupt during the unit itself.
                        interrupted = True
                        break
                if unit_summary is not None:
                    # Bookkeeping for a completed unit runs before any
                    # interrupt is honored: the store already holds the
                    # artifact, so the summary must count it — otherwise
                    # a drain landing between checkpoint and accounting
                    # under-reports `executed` relative to the store.
                    duration_s = float(unit_summary["duration_s"])
                    executed += 1
                    outcomes.append(
                        UnitOutcome(
                            key=key,
                            name=spec.name,
                            skipped=False,
                            duration_s=duration_s,
                            attempts=attempt + 1,
                        )
                    )
                    try:
                        if obs is not None:
                            obs.counter("campaign.units_run").inc()
                            obs.histogram("campaign.unit_duration_s").observe(
                                duration_s
                            )
                            obs.emit(
                                "campaign.unit",
                                campaign=self.campaign.name,
                                unit=spec.name,
                                key=key,
                                skipped=False,
                                duration_s=duration_s,
                                rounds=unit_summary["rounds"],
                                total_energy_j=unit_summary["total_energy_j"],
                                reached_target=unit_summary["reached_target"],
                            )
                    except KeyboardInterrupt:
                        interrupted = True
                    if interrupted:
                        break
                    continue
                if interrupted:
                    break
                if quarantined_now:
                    outcomes.append(
                        UnitOutcome(
                            key=key,
                            name=spec.name,
                            skipped=False,
                            quarantined=True,
                            attempts=attempt,
                        )
                    )
                    if obs is not None:
                        obs.emit(
                            "campaign.unit",
                            campaign=self.campaign.name,
                            unit=spec.name,
                            key=key,
                            skipped=False,
                            quarantined=True,
                            attempts=attempt,
                        )
                    continue
        except KeyboardInterrupt:
            # An interrupt landing *between* units (skip bookkeeping,
            # attempts lookups, telemetry emits) checkpoints exactly
            # like one mid-unit: everything recorded so far is durable.
            interrupted = True
        summary = CampaignRunSummary(
            outcomes=tuple(outcomes), interrupted=interrupted
        )
        if obs is not None:
            obs.emit(
                "campaign.end",
                campaign=self.campaign.name,
                executed=summary.executed,
                skipped=summary.skipped,
                quarantined=summary.quarantined,
                interrupted=summary.interrupted,
            )
        return summary

    def _run_parallel(
        self,
        max_units: int | None,
        jobs: int,
        completed: set[str],
        quarantined_keys: set[str],
        collector: TelemetryCollector | None = None,
        supervision: SupervisionPolicy | None = None,
    ) -> CampaignRunSummary:
        """Fan incomplete units out over a process scheduler.

        Unit independence does the heavy lifting: each worker seeds its
        own prototype from the unit's spec and checkpoints straight
        into the shared store (each index update is atomic in either
        backend), so the artifact bytes are identical to a sequential
        pass regardless of completion order.
        ``max_units`` caps *pending* units in unit order — the same
        semantics (and kill-and-resume hook) as the sequential loop.

        With ``supervision`` the pass runs under
        :meth:`~repro.perf.scheduler.ParallelUnitScheduler.run_supervised`:
        failed attempts are retried with deterministic backoff, hung or
        overdue workers are killed by the watchdog, a broken pool is
        rebuilt with survivors resubmitted, and budget-exhausted units
        are quarantined — the pass completes degraded instead of
        raising.
        """
        obs = self._observer
        outcomes: list[UnitOutcome] = []
        skipped_outcomes: dict[str, UnitOutcome] = {}
        pending: list[RunSpec] = []
        for spec in self.units:
            key = spec.key()
            if key in completed:
                skipped_outcomes[key] = UnitOutcome(
                    key=key, name=spec.name, skipped=True
                )
                if obs is not None:
                    obs.counter("campaign.units_skipped").inc()
                    obs.emit(
                        "campaign.unit",
                        campaign=self.campaign.name,
                        unit=spec.name,
                        key=key,
                        skipped=True,
                    )
            elif key in quarantined_keys:
                skipped_outcomes[key] = UnitOutcome(
                    key=key,
                    name=spec.name,
                    skipped=True,
                    quarantined=True,
                    attempts=self.store.attempts_used(key),
                )
                if obs is not None:
                    obs.emit(
                        "campaign.unit",
                        campaign=self.campaign.name,
                        unit=spec.name,
                        key=key,
                        skipped=True,
                        quarantined=True,
                    )
            else:
                pending.append(spec)
        interrupted = False
        if max_units is not None and len(pending) > max_units:
            pending = pending[:max_units]
            interrupted = True
        scheduler = ParallelUnitScheduler(jobs, observer=obs)
        spool_dir = str(self.store.spool_dir)
        store_root = str(self.store.root)
        costs = [estimate_unit_cost(spec) for spec in pending]
        poll = collector.poll if collector is not None else None
        if supervision is not None:
            keys = [spec.key() for spec in pending]
            chaos = self._chaos

            def make_payload(index: int, attempt: int) -> UnitPayload:
                return UnitPayload(
                    spec=pending[index],
                    store_root=store_root,
                    spool_dir=spool_dir,
                    attempt=attempt,
                    chaos=chaos,
                    heartbeat=True,
                )

            def on_failure(failure: UnitFailure) -> None:
                self._record_unit_failure(
                    pending[failure.index],
                    failure.attempt,
                    failure.kind,
                    failure.error,
                    failure.quarantined,
                    failure.traceback,
                )

            def completed_check(index: int) -> bool:
                # Manifest entry alone is not proof after a pool break —
                # the artifacts must also verify, or a corrupt write
                # would be exonerated as "already complete".
                key = keys[index]
                return (
                    self.store.contains(key)
                    and self.store.verify_unit(key) == []
                )

            schedule = scheduler.run_supervised(
                [
                    UnitPayload(
                        spec=spec, store_root=store_root, spool_dir=spool_dir
                    )
                    for spec in pending
                ],
                _execute_and_record,
                supervision=supervision,
                costs=costs,
                keys=keys,
                initial_attempts=[
                    self.store.attempts_used(key) for key in keys
                ],
                make_payload=make_payload,
                on_failure=on_failure,
                completed_check=completed_check,
                heartbeat_dir=self.store.heartbeat_dir,
                spool_dir=self.store.spool_dir,
                poll=poll,
            )
        else:
            schedule = scheduler.run(
                [
                    UnitPayload(
                        spec=spec, store_root=store_root, spool_dir=spool_dir
                    )
                    for spec in pending
                ],
                _execute_and_record,
                costs,
                poll=poll,
            )
        interrupted = interrupted or schedule.interrupted
        executed_outcomes: dict[str, UnitOutcome] = {}
        for index in schedule.completed:
            spec = pending[index]
            summary = schedule.results.get(index)
            if summary is None:
                # The unit finished durably but its worker died before
                # reporting (pool break after the store write); recover
                # the numbers from the artifacts themselves.
                result_doc = self.store.unit(spec.key()).result()
                summary = {
                    "duration_s": 0.0,
                    "rounds": result_doc["rounds"],
                    "total_energy_j": result_doc["total_energy_j"],
                    "reached_target": result_doc["reached_target"],
                }
            duration_s = float(summary["duration_s"])
            executed_outcomes[spec.key()] = UnitOutcome(
                key=spec.key(),
                name=spec.name,
                skipped=False,
                duration_s=duration_s,
                attempts=schedule.attempts.get(index, 1),
            )
            if obs is not None:
                obs.counter("campaign.units_run").inc()
                obs.histogram("campaign.unit_duration_s").observe(duration_s)
                obs.emit(
                    "campaign.unit",
                    campaign=self.campaign.name,
                    unit=spec.name,
                    key=spec.key(),
                    skipped=False,
                    duration_s=duration_s,
                    rounds=summary["rounds"],
                    total_energy_j=summary["total_energy_j"],
                    reached_target=summary["reached_target"],
                )
        for index in schedule.quarantined:
            spec = pending[index]
            executed_outcomes[spec.key()] = UnitOutcome(
                key=spec.key(),
                name=spec.name,
                skipped=False,
                quarantined=True,
                attempts=schedule.attempts.get(index, 0),
            )
            if obs is not None:
                obs.emit(
                    "campaign.unit",
                    campaign=self.campaign.name,
                    unit=spec.name,
                    key=spec.key(),
                    skipped=False,
                    quarantined=True,
                    attempts=schedule.attempts.get(index, 0),
                )
        # Outcomes in unit order, mirroring the sequential loop.
        for spec in self.units:
            key = spec.key()
            if key in skipped_outcomes:
                outcomes.append(skipped_outcomes[key])
            elif key in executed_outcomes:
                outcomes.append(executed_outcomes[key])
        summary = CampaignRunSummary(
            outcomes=tuple(outcomes), interrupted=interrupted
        )
        if obs is not None:
            obs.emit(
                "campaign.end",
                campaign=self.campaign.name,
                executed=summary.executed,
                skipped=summary.skipped,
                quarantined=summary.quarantined,
                interrupted=summary.interrupted,
            )
        if (
            supervision is None
            and schedule.failed
            and not schedule.interrupted
        ):
            failures = ", ".join(
                f"{pending[i].name}: {err}"
                for i, err in sorted(schedule.failed.items())
            )
            raise ParallelUnitError(
                f"{len(schedule.failed)} campaign unit(s) failed "
                f"(completed units are checkpointed; re-run to resume): "
                f"{failures}"
            )
        return summary
