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
* a unit's execution backend (``sequential`` / ``population`` ...) is
  part of its spec — and hence its key — so artifacts always record the
  engine that produced them (the vectorized engine is numerically, not
  byte-, identical to the reference); the result-neutral ``telemetry``
  knob is excluded from the key, so toggling it never invalidates
  finished work;
* completed units are skipped by content key, never re-trained — the
  report stage (:mod:`repro.campaign.report`) regenerates every table
  from the store alone.
"""

from __future__ import annotations

import json
import os
import time
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
from repro.obs.observer import Observer
from repro.obs.sink import (
    SpoolObserver,
    TelemetryCollector,
    TelemetrySpool,
    read_spool_tail,
)
from repro.perf.cancel import CancelToken, interruptible
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
    """One or more units raised during an *unsupervised* pass.

    Raised after every other unit has run, so every unit that finished
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
        interrupted: the pass stopped early (unit cap reached, SIGINT
            or SIGTERM); completed units are checkpointed and a later
            pass will resume after them.
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
# scheduler can ship units to worker processes; inline (jobs=1) units
# go through the same code path, which is what makes every --jobs value
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
    # dropout_probability and proximal_mu, which the loop arguments
    # cannot express — is honored exactly as the stored spec.json
    # records it.
    return prototype.run(
        federated_config=spec.federated_config(),
        fault_plan=spec.fault_plan,
        resilience=spec.resilience,
    )


def _unit_spool_observer(spec: RunSpec, spool_dir: str) -> SpoolObserver:
    """Build a spooling observer for one unit's execution.

    The spool file is named by the unit's content key (unique within a
    campaign, filesystem-safe) and labelled with the unit's readable
    name.  It is the unit's only spool: every engine trains in this
    process, so all of the unit's work is counted in this observer.
    """
    spool = TelemetrySpool(
        Path(spool_dir) / f"{spec.key()}.jsonl", unit=spec.name
    )
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


def _execute_and_record(unit: UnitPayload) -> dict:
    """Scheduler worker: run one unit and checkpoint it into the store.

    Workers open the shared store the parent created, so a campaign
    killed mid-parallel-run keeps every unit that finished — exactly
    the sequential crash contract.  Returns a small
    summary the parent uses for telemetry and outcome accounting.

    With a spool directory and ``spec.telemetry`` on, the unit's
    observer streams every event live into a spool file the parent tails
    while the unit is still training.  Training stops at a round
    boundary once the pass is cancelled (the partial unit is discarded);
    only a hard cancel may interrupt it mid-round.  The store write and
    its verification are never interrupted.

    After the store write the unit's artifacts are immediately re-hashed
    against the manifest (verify-after-write): torn or corrupted bytes
    fail *this attempt* with :class:`UnitVerificationError` instead of
    surfacing hours later in a resume check or a report.
    """
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
        with interruptible():
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
        self._observer = observer
        self._chaos = chaos
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
    def run_unit(self, spec: RunSpec) -> PrototypeResult:
        """Execute one unit on a fresh, independently seeded testbed."""
        return execute_unit(
            spec, observer=Observer() if spec.telemetry else None
        )

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
                record, campaign completes degraded).  With worker
                processes it additionally arms the watchdog and
                broken-pool recovery.  ``None`` gives every unit one
                attempt and writes no failure record: the remaining
                units still run, then :class:`ParallelUnitError` is
                raised.
            retry_quarantined: forget existing failure trails first, so
                previously quarantined units get a fresh budget.

        For the duration of the pass SIGINT and SIGTERM only cancel a
        token (:mod:`repro.perf.cancel`): nothing new starts, in-flight
        worker units finish, and an inline unit stops at its next round
        boundary with its partial work discarded.  The summary reports
        ``interrupted=True`` and the next pass re-runs what is missing
        from scratch, deterministically, to the same bytes.  A second
        signal hard-cancels.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1; got {jobs}")
        token = CancelToken()
        with token.on_signals():
            return self._run(
                token, max_units, jobs, supervision, retry_quarantined
            )

    def _run(
        self,
        token: CancelToken,
        max_units: int | None,
        jobs: int,
        supervision: SupervisionPolicy | None,
        retry_quarantined: bool,
    ) -> CampaignRunSummary:
        obs = self._observer
        if retry_quarantined:
            for key in self.store.quarantined_keys():
                self.store.clear_failures(key)
        completed = self.store.completed_keys()
        quarantined_keys = (
            self.store.quarantined_keys() if supervision is not None else set()
        )
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
        # Sort units into skipped, quarantined (durable: the unit stays
        # out of the way until the operator grants a fresh budget) and
        # pending.
        outcomes: dict[str, UnitOutcome] = {}
        pending: list[RunSpec] = []
        for spec in self.units:
            key = spec.key()
            if key in completed:
                outcomes[key] = UnitOutcome(
                    key=key, name=spec.name, skipped=True
                )
                if obs is not None:
                    obs.counter("campaign.units_skipped").inc()
            elif key in quarantined_keys:
                outcomes[key] = UnitOutcome(
                    key=key,
                    name=spec.name,
                    skipped=True,
                    quarantined=True,
                    attempts=self.store.attempts_used(key),
                )
            else:
                pending.append(spec)
                continue
            self._emit_unit(outcomes[key])
        # ``max_units`` caps pending units in unit order.
        capped = max_units is not None and len(pending) > max_units
        if capped:
            pending = pending[:max_units]
        keys = [spec.key() for spec in pending]
        store_root = str(self.store.root)
        spool_dir = str(self.store.spool_dir)

        def make_payload(index: int, attempt: int) -> UnitPayload:
            # Attempt numbering continues from the durable failure
            # trail, so a killed-and-resumed retry sequence is
            # indistinguishable from an uninterrupted one.  Heartbeats
            # let the watchdog aim at a worker process; inline units
            # have none.
            return UnitPayload(
                spec=pending[index],
                store_root=store_root,
                spool_dir=spool_dir,
                attempt=attempt,
                chaos=self._chaos,
                heartbeat=jobs > 1,
            )

        unsupervised_failures: list[UnitFailure] = []

        def on_failure(failure: UnitFailure) -> None:
            if supervision is None:
                unsupervised_failures.append(failure)
                return
            self._record_unit_failure(
                pending[failure.index],
                failure.attempt,
                failure.kind,
                failure.error,
                failure.quarantined,
                failure.traceback,
            )

        def completed_check(index: int) -> bool:
            # Manifest entry alone is not proof after a pool break — the
            # artifacts must also verify, or a corrupt write would be
            # exonerated as "already complete".
            key = keys[index]
            return (
                self.store.contains(key)
                and self.store.verify_unit(key) == []
            )

        collector = (
            TelemetryCollector(self.store.spool_dir, observer=obs)
            if obs is not None
            else None
        )
        schedule = ParallelUnitScheduler(jobs, observer=obs).run(
            keys,
            _execute_and_record,
            costs=[estimate_unit_cost(spec) for spec in pending],
            poll=collector.poll if collector is not None else None,
            supervision=supervision,
            keys=keys,
            initial_attempts=(
                [self.store.attempts_used(key) for key in keys]
                if supervision is not None
                else None
            ),
            make_payload=make_payload,
            on_failure=on_failure,
            completed_check=completed_check,
            heartbeat_dir=self.store.heartbeat_dir,
            spool_dir=self.store.spool_dir,
            token=token,
        )
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
            outcome = UnitOutcome(
                key=spec.key(),
                name=spec.name,
                skipped=False,
                duration_s=float(summary["duration_s"]),
                attempts=schedule.attempts.get(index, 1),
            )
            outcomes[outcome.key] = outcome
            if obs is not None:
                obs.counter("campaign.units_run").inc()
                obs.histogram("campaign.unit_duration_s").observe(
                    outcome.duration_s
                )
            self._emit_unit(
                outcome,
                rounds=summary["rounds"],
                total_energy_j=summary["total_energy_j"],
                reached_target=summary["reached_target"],
            )
        for index in schedule.quarantined:
            spec = pending[index]
            outcome = UnitOutcome(
                key=spec.key(),
                name=spec.name,
                skipped=False,
                quarantined=True,
                attempts=schedule.attempts.get(index, 0),
            )
            outcomes[outcome.key] = outcome
            self._emit_unit(outcome)
        summary = CampaignRunSummary(
            outcomes=tuple(
                outcomes[spec.key()]
                for spec in self.units
                if spec.key() in outcomes
            ),
            interrupted=capped or schedule.interrupted,
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
        if unsupervised_failures and not schedule.interrupted:
            failures = sorted(unsupervised_failures, key=lambda f: f.index)
            raise ParallelUnitError(
                f"{len(failures)} campaign unit(s) failed "
                f"(completed units are checkpointed; re-run to resume): "
                + ", ".join(
                    f"{pending[f.index].name}: {f.error}" for f in failures
                )
            ) from failures[0].exception
        return summary

    def _emit_unit(self, outcome: UnitOutcome, **fields) -> None:
        """The ``campaign.unit`` event for one unit's outcome."""
        if self._observer is None:
            return
        if outcome.quarantined:
            fields["quarantined"] = True
            if not outcome.skipped:
                fields["attempts"] = outcome.attempts
        elif not outcome.skipped:
            fields = {"duration_s": outcome.duration_s, **fields}
        self._observer.emit(
            "campaign.unit",
            campaign=self.campaign.name,
            unit=outcome.name,
            key=outcome.key,
            skipped=outcome.skipped,
            **fields,
        )
