"""Command-line runner: regenerate any paper artifact with one command.

Usage (also available as ``python -m repro``)::

    python -m repro table1
    python -m repro fig3
    python -m repro fig4  --scale test
    python -m repro fig5  --scale tiny
    python -m repro fig6
    python -m repro plan  --scale test      # calibrate + print the plan
    python -m repro all   --scale tiny
    python -m repro campaign init --spec sweep.json
    python -m repro campaign run  --spec sweep.json --dir artifacts/
    python -m repro campaign report --dir artifacts/

Every subcommand shares one set of cross-cutting flags (factored into a
single parent parser): ``--telemetry out.jsonl`` attaches a
:class:`repro.obs.Observer` to the whole pipeline and dumps its
structured events (plus a trailing ``metrics.snapshot`` line) to the
file; ``--profile`` additionally enables hot-path timers; ``--backend``
selects the FL execution engine; ``--fault-plan`` and ``--quorum``
configure fault injection and resilience.  The per-figure subcommands
additionally take ``--scale`` (``tiny`` for smoke runs, ``test`` for
benchmark scale, ``paper`` for the full 60 000-sample setup).

The ``campaign`` subcommand drives :mod:`repro.campaign`: ``init``
writes an editable demo :class:`~repro.campaign.CampaignSpec` JSON,
``run`` executes a campaign into an artifact store (resuming — by
content-hashed unit key — if the store already holds completed units),
``status`` summarises and integrity-checks a store, ``report``
regenerates the Fig. 5/6 energy grids from stored artifacts without
re-running any training, ``doctor`` audits — with ``--repair``,
self-heals — a store damaged by crashes or torn writes, and
``migrate`` imports a store whose index is a legacy ``manifest.json``
into a new directory (``--out``).  Runs are supervised by
default (bounded retries, watchdog deadlines, quarantine;
``--no-supervise`` restores fail-fast).  For ``campaign``,
``--backend``, ``--fault-plan`` and ``--quorum`` act as grid-wide
overrides.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable

from repro.experiments.calibrate import CalibratedSystem, calibrate_system
from repro.experiments.config import PAPER_SCALE, TEST_SCALE, ExperimentScale
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.report import render_table
from repro.experiments.table1 import run_table1
from repro.obs import Observer

__all__ = ["main", "SCALES", "common_options", "scale_options"]

TINY_SCALE = ExperimentScale(
    name="tiny",
    n_train=800,
    n_test=200,
    n_servers=8,
    max_rounds=80,
    target_accuracy=0.75,
)

SCALES: dict[str, ExperimentScale] = {
    "tiny": TINY_SCALE,
    "test": TEST_SCALE,
    "paper": PAPER_SCALE,
}

_CALIBRATION_CACHE: dict[str, CalibratedSystem] = {}

# Observer used by _system for the *next* calibration; set by main().
# Experiments sharing an already-calibrated system keep that system's
# observer — calibration happens once per scale per process.
_ACTIVE_OBSERVER: Observer | None = None

# Fault-plan path / quorum override for the resilience experiment; set
# by main() from --fault-plan / --quorum.
_FAULT_PLAN_PATH: str | None = None
_QUORUM: int | None = None

# Execution backend for all FL training; set by main() from --backend.
_BACKEND: str = "sequential"


def _system(scale: ExperimentScale) -> CalibratedSystem:
    """Calibrate once per scale per process (fig4/5/6 share the system)."""
    key = f"{scale.name}/{_BACKEND}"
    if key not in _CALIBRATION_CACHE:
        print(f"[calibrating at scale {scale.name!r} ...]", file=sys.stderr)
        _CALIBRATION_CACHE[key] = calibrate_system(
            scale, observer=_ACTIVE_OBSERVER, backend=_BACKEND
        )
    return _CALIBRATION_CACHE[key]


def _run_table1(scale: ExperimentScale) -> str:
    return run_table1().report()


def _run_fig3(scale: ExperimentScale) -> str:
    return run_fig3().report()


def _run_fig4(scale: ExperimentScale) -> str:
    system = _system(scale)
    result = run_fig4(
        system.prototype,
        max_rounds=min(scale.max_rounds * 2, 300),
        loose_target=scale.target_accuracy - 0.05,
        strict_target=scale.target_accuracy,
    )
    return result.report()


def _run_fig5(scale: ExperimentScale) -> str:
    return run_fig5(_system(scale), epochs=20).report()


def _run_fig6(scale: ExperimentScale) -> str:
    return run_fig6(_system(scale), participants=1).report()


def _run_sensitivity(scale: ExperimentScale) -> str:
    from repro.core.sensitivity import analyze_sensitivity

    system = _system(scale)
    report = analyze_sensitivity(system.objective())
    rows = [
        [
            r.constant,
            f"{r.factor:g}x",
            f"({r.participants},{r.epochs})",
            f"{100 * r.regret:.2f}%" if r.regret is not None else "inf",
        ]
        for r in report.results
    ]
    table = render_table(
        ["constant", "perturbation", "plan (K,E)", "regret"],
        rows,
        title=(
            "Plan regret under mis-calibration "
            f"(optimum {report.optimal_energy:.3f} J)"
        ),
    )
    return f"{table}\nworst regret: {100 * report.worst_regret():.2f}%"


def _run_frontier(scale: ExperimentScale) -> str:
    from repro.core.deadline import solve_with_deadline

    system = _system(scale)
    objective = system.objective()
    rows = []
    for deadline in (1, 2, 3, 5, 10, 25, 100, 1000):
        try:
            plan = solve_with_deadline(objective, deadline)
        except ValueError:
            rows.append([deadline, "-", "-", "-", "-", "infeasible"])
            continue
        rows.append(
            [
                deadline,
                plan.participants,
                plan.epochs,
                plan.rounds,
                f"{plan.energy:.3f}",
                "binding" if plan.binding else "slack",
            ]
        )
    return render_table(
        ["deadline T_max", "K", "E", "T", "energy (J)", "constraint"],
        rows,
        title="Energy-latency Pareto frontier",
    )


def _run_resilience(scale: ExperimentScale) -> str:
    """Degradation study: the same testbed with and without faults.

    Runs the calibrated prototype twice — failure-free, then under the
    fault plan from ``--fault-plan`` (default: a representative mixed
    plan of crashes, stragglers and bursty links) with the resilience
    policies enabled — and reports the cost of surviving: extra rounds,
    wasted joules, degraded rounds.
    """
    from repro.faults import (
        FaultPlan,
        ResilienceConfig,
        RetryPolicy,
        make_demo_plan,
    )

    system = _system(scale)
    prototype = system.prototype
    n = prototype.config.n_servers
    participants = max(2, n // 4)
    plan = (
        FaultPlan.load(_FAULT_PLAN_PATH)
        if _FAULT_PLAN_PATH is not None
        else make_demo_plan(n, seed=prototype.config.seed)
    )
    quorum = _QUORUM if _QUORUM is not None else max(1, participants // 2)
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_retries=3),
        upload_timeout_s=30.0,
        min_quorum=quorum,
    )
    kwargs = dict(
        participants=participants,
        epochs=20,
        n_rounds=scale.max_rounds,
        target_accuracy=scale.target_accuracy,
    )
    baseline = prototype.run(**kwargs)
    faulted = prototype.run(**kwargs, fault_plan=plan, resilience=resilience)
    rows = []
    for label, result in (("failure-free", baseline), ("faulted", faulted)):
        reached = result.history.rounds_to_accuracy(scale.target_accuracy)
        rows.append(
            [
                label,
                result.rounds,
                reached if reached is not None else "-",
                result.degraded_rounds,
                f"{result.total_energy_j:.2f}",
                f"{result.wasted_energy_j:.2f}",
                f"{100 * result.wasted_fraction:.1f}%",
                f"{result.history.final_accuracy():.3f}",
            ]
        )
    table = render_table(
        [
            "run",
            "rounds",
            "T@target",
            "degraded",
            "energy (J)",
            "wasted (J)",
            "wasted %",
            "final acc",
        ],
        rows,
        title=(
            f"Resilience under faults ({len(plan)} declared, "
            f"quorum {quorum}, target {scale.target_accuracy:.0%})"
        ),
    )
    overhead = faulted.total_energy_j / baseline.total_energy_j - 1.0
    return (
        f"{table}\n"
        f"energy overhead of surviving the plan: {100 * overhead:+.1f}%"
    )


def _run_plan(scale: ExperimentScale) -> str:
    system = _system(scale)
    plan = system.planner().plan(system.epsilon)
    constants = render_table(
        ["constant", "value"],
        [
            ["A0", f"{system.bound.a0:.4f}"],
            ["A1", f"{system.bound.a1:.6f}"],
            ["A2", f"{system.bound.a2:.3e}"],
            ["c0 (J/sample-epoch)", f"{system.energy_params.c0:.3e}"],
            ["c1 (J/epoch)", f"{system.energy_params.c1:.3e}"],
            ["e_upload (J)", f"{system.energy_params.e_upload:.4f}"],
            ["epsilon (loss gap)", f"{system.epsilon:.4f}"],
            ["F(w*)", f"{system.f_star:.4f}"],
        ],
        title=f"Calibrated constants at scale {scale.name!r}",
    )
    return constants + "\n\n" + plan.describe()


EXPERIMENTS: dict[str, Callable[[ExperimentScale], str]] = {
    "table1": _run_table1,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "plan": _run_plan,
    "resilience": _run_resilience,
    "sensitivity": _run_sensitivity,
    "frontier": _run_frontier,
}


def common_options() -> argparse.ArgumentParser:
    """The shared parent parser: flags every subcommand accepts.

    This is the single definition of the cross-cutting
    ``--telemetry/--profile/--backend/--fault-plan/--quorum`` surface;
    subcommands inherit it via ``parents=[...]`` instead of each
    re-declaring (and drifting from) its own copies.
    """
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help=(
            "dump structured telemetry (JSONL events + metrics snapshot) "
            "of the whole run to PATH"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="with --telemetry: also enable hot-path timers",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "export final metrics as OpenMetrics/Prometheus text "
            "exposition to PATH (implies telemetry collection)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "export recorded spans as Chrome trace-event JSON to PATH, "
            "loadable in chrome://tracing or Perfetto (implies "
            "telemetry collection)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("sequential", "batched", "pool", "population", "auto"),
        default=None,
        help=(
            "execution engine for FL training: 'sequential' (reference, "
            "the default), 'population' (vectorized struct-of-arrays "
            "cohort training), 'batched' (a spelling of 'population' "
            "that always computes in float64), 'pool' (process pool "
            "over shared-memory datasets), or 'auto' (chosen from the "
            "spec and the CPU count); results are equivalent across "
            "backends.  For 'campaign run' this overrides every unit's "
            "backend"
        ),
    )
    parser.add_argument(
        "--population-dtype",
        choices=("float64", "float32"),
        default=None,
        help=(
            "compute dtype for the 'population' backend: 'float64' "
            "(default, matches the reference bit-for-bit at equal op "
            "order) or 'float32' (at a ~1e-6 relative parameter "
            "delta).  For "
            "'campaign run' this overrides every unit's dtype"
        ),
    )
    parser.add_argument(
        "--fault-plan",
        metavar="PATH",
        default=None,
        help=(
            "JSON fault plan (see repro.faults.FaultPlan.save) for the "
            "'resilience' experiment (default: a generated mixed plan of "
            "crashes, stragglers and bursty links); for 'campaign run' "
            "it is injected into every unit"
        ),
    )
    parser.add_argument(
        "--quorum",
        type=int,
        default=None,
        metavar="Q",
        help=(
            "minimum survivor updates per round for the 'resilience' "
            "experiment (default: half the participants) and a grid-wide "
            "override for 'campaign run'; rounds below the quorum "
            "degrade gracefully"
        ),
    )
    return parser


def scale_options() -> argparse.ArgumentParser:
    """Parent parser for the per-figure subcommands' ``--scale`` flag."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="tiny",
        help="dataset/testbed size (default: tiny)",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate the EE-FEI paper's tables and figures, or run "
            "scenario campaigns over them."
        ),
    )
    common = common_options()
    scaled = scale_options()
    subparsers = parser.add_subparsers(
        dest="experiment",
        required=True,
        metavar="command",
        help=(
            "a paper artifact to regenerate ('all' runs every one), or "
            "'campaign' for declarative sweeps"
        ),
    )
    for name in sorted(EXPERIMENTS) + ["all"]:
        subparsers.add_parser(name, parents=[scaled, common])
    campaign = subparsers.add_parser(
        "campaign",
        parents=[common],
        help="declare/execute/resume/report scenario campaigns",
        description=(
            "Campaign orchestration over the repro.campaign subsystem: "
            "'init' writes an editable demo CampaignSpec JSON, 'run' "
            "executes (or resumes) a campaign into --dir under "
            "supervision (bounded retries, watchdog deadlines, "
            "quarantine), 'status' summarises and integrity-checks the "
            "store, 'report' regenerates the energy tables from stored "
            "artifacts without re-running training, 'doctor' "
            "audits (with --repair, self-heals) a store damaged by "
            "crashes or torn writes, and 'migrate' imports a store "
            "with a legacy manifest.json index into --out."
        ),
    )
    campaign.add_argument(
        "action",
        choices=("init", "run", "status", "report", "doctor", "migrate"),
        help="campaign operation",
    )
    campaign.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help=(
            "for 'migrate': destination directory (must not already "
            "contain a store; the source in --dir is left untouched)"
        ),
    )
    campaign.add_argument(
        "--spec",
        metavar="PATH",
        default=None,
        help=(
            "CampaignSpec JSON: the output target for 'init', the input "
            "for 'run' (optional when --dir already holds a campaign)"
        ),
    )
    campaign.add_argument(
        "--dir",
        dest="store_dir",
        metavar="DIR",
        default="campaign_artifacts",
        help="artifact-store directory (default: campaign_artifacts)",
    )
    campaign.add_argument(
        "--max-units",
        type=int,
        default=None,
        metavar="N",
        help=(
            "stop (checkpointed) after training N units; a later 'run' "
            "resumes after them"
        ),
    )
    campaign.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="J",
        help=(
            "worker processes for 'run' (default 1 = sequential); units "
            "are scheduled longest-first and artifacts are byte-identical "
            "to a sequential run"
        ),
    )
    campaign.add_argument(
        "--follow",
        action="store_true",
        help=(
            "for 'status': refresh the live per-unit status (round "
            "progress streamed from worker telemetry spools, plus an "
            "ETA) until the campaign finishes"
        ),
    )
    campaign.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="refresh period in seconds for 'status --follow' (default 2)",
    )
    campaign.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "for 'run': retry a failed unit up to N times before "
            "quarantining it (default: supervision default)"
        ),
    )
    campaign.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="S",
        help=(
            "for 'run': hard per-unit deadline in seconds; overrides the "
            "cost-model deadline the watchdog derives from observed "
            "throughput"
        ),
    )
    campaign.add_argument(
        "--no-supervise",
        action="store_true",
        help=(
            "for 'run': one attempt per unit, with no retries, watchdog "
            "or quarantine record; the remaining units still run and "
            "are checkpointed, then the first unit error is raised"
        ),
    )
    campaign.add_argument(
        "--retry-quarantined",
        action="store_true",
        help=(
            "for 'run': clear existing quarantine records first, giving "
            "previously given-up units a fresh retry budget"
        ),
    )
    campaign.add_argument(
        "--chaos-plan",
        metavar="PATH",
        default=None,
        help=(
            "for 'run': JSON saboteur plan (repro.faults.ChaosPlan) "
            "injected into unit workers — fault-injection testing only"
        ),
    )
    campaign.add_argument(
        "--repair",
        action="store_true",
        help=(
            "for 'doctor': quarantine corrupt artifacts, adopt orphan "
            "unit directories, and rebuild the manifest instead of just "
            "reporting"
        ),
    )
    return parser


def _wants_observer(args: argparse.Namespace) -> bool:
    """Whether any flag asks for telemetry collection this run."""
    return bool(args.telemetry or args.metrics_out or args.trace_out)


def _export_observer(observer: Observer, args: argparse.Namespace) -> None:
    """Write every requested telemetry export format."""
    if args.telemetry:
        observer.dump_jsonl(args.telemetry)
        print(
            f"[telemetry: {len(observer.events)} events -> {args.telemetry}]",
            file=sys.stderr,
        )
    if args.metrics_out:
        from repro.obs import write_openmetrics

        write_openmetrics(observer.metrics, args.metrics_out)
        print(
            f"[metrics: OpenMetrics text -> {args.metrics_out}]",
            file=sys.stderr,
        )
    if args.trace_out:
        from repro.obs import write_chrome_trace

        write_chrome_trace(observer.tracer, args.trace_out)
        print(
            f"[trace: Chrome trace events -> {args.trace_out}]",
            file=sys.stderr,
        )


def _follow_status(store, interval: float) -> int:
    """``campaign status --follow``: refresh until the campaign finishes.

    One :class:`~repro.campaign.CampaignStatusMonitor` lives across the
    whole follow: the campaign grid and every finished unit's status
    are computed once and reused, so each tick costs work proportional
    to the units still moving — not a full re-parse of the store.  The
    poll reads the store and the worker telemetry spools, so this works
    from any process on the machine — including while a separate
    ``campaign run --jobs N`` is training.
    """
    from repro.campaign import CampaignStatusMonitor

    monitor = CampaignStatusMonitor(store)
    try:
        while True:
            status = monitor.refresh()
            print(status.render())
            if status.finished:
                break
            print()
            time.sleep(max(0.1, interval))
    except KeyboardInterrupt:
        print()
    return 0


def _run_campaign(args: argparse.Namespace) -> int:
    """Handle the ``campaign`` subcommand (init/run/status/report/doctor)."""
    from repro.campaign import (
        DEFAULT_SUPERVISION,
        ArtifactStore,
        CampaignReport,
        CampaignRunner,
        CampaignSpec,
        CampaignStatus,
        ParallelUnitError,
        StoreError,
        campaign_telemetry,
        make_demo_campaign,
    )
    from repro.campaign import migrate_store
    from repro.faults import ChaosPlan, FaultPlan

    if args.action == "init":
        if args.spec is None:
            print("campaign init requires --spec PATH", file=sys.stderr)
            return 2
        make_demo_campaign().save(args.spec)
        print(f"wrote demo campaign spec to {args.spec} (edit, then run)")
        return 0

    if args.action == "migrate":
        if args.out is None:
            print("campaign migrate requires --out DIR", file=sys.stderr)
            return 2
        try:
            result = migrate_store(args.store_dir, args.out)
        except StoreError as error:
            print(f"migrate failed: {error}", file=sys.stderr)
            return 2
        print(result.render())
        return 0

    try:
        store = ArtifactStore(args.store_dir)
    except StoreError as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.action == "doctor":
        try:
            store.campaign()
        except StoreError as error:
            print(f"no campaign store: {error}", file=sys.stderr)
            return 2
        report = store.doctor(repair=args.repair)
        print(report.render())
        return 0 if report.healthy else 1

    if args.action == "status":
        try:
            campaign = store.campaign()
        except StoreError as error:
            print(f"no campaign store: {error}", file=sys.stderr)
            return 2
        if args.follow:
            return _follow_status(store, args.interval)
        completed = store.completed_keys()
        health = store.verify()
        print(
            f"campaign {campaign.name!r} (key {campaign.key()}): "
            f"{len(completed)}/{len(campaign)} units complete"
        )
        status = CampaignStatus.collect(store)
        print(status.render_summary())
        if not health.healthy:
            # Same StoreHealthReport rendering `campaign doctor` uses,
            # on stderr because it is an operator alarm, not status.
            print(health.render(), file=sys.stderr)
        # Non-zero for anything an operator must look at: integrity
        # problems, failed units, or quarantined units.
        return 1 if not health.healthy or status.troubled else 0

    if args.action == "report":
        try:
            report = CampaignReport.from_store(store)
        except StoreError as error:
            print(f"no campaign store: {error}", file=sys.stderr)
            return 2
        print(report.render())
        telemetry = campaign_telemetry(store)
        if len(telemetry):
            print()
            print(telemetry.render_text())
            for problem in telemetry.reconcile():
                print(f"telemetry: {problem}", file=sys.stderr)
        return 0

    # action == "run"
    if args.spec is not None:
        campaign = CampaignSpec.load(args.spec)
    else:
        try:
            campaign = store.campaign()
        except StoreError:
            print(
                "campaign run needs --spec PATH (or --dir pointing at an "
                "existing campaign store)",
                file=sys.stderr,
            )
            return 2
    observer = (
        Observer(profile_hot_paths=args.profile)
        if _wants_observer(args)
        else None
    )
    fault_plan = (
        FaultPlan.load(args.fault_plan) if args.fault_plan is not None else None
    )
    chaos = None
    if args.chaos_plan is not None:
        chaos = ChaosPlan.from_json(
            Path(args.chaos_plan).read_text(encoding="utf-8")
        )
    if args.no_supervise:
        supervision = None
    else:
        supervision = DEFAULT_SUPERVISION
        if args.retries is not None:
            supervision = replace(
                supervision,
                retry=replace(supervision.retry, max_retries=args.retries),
            )
        if args.unit_timeout is not None:
            supervision = replace(
                supervision, unit_timeout_s=args.unit_timeout
            )
    try:
        runner = CampaignRunner(
            campaign,
            store,
            observer=observer,
            backend_override=args.backend,
            fault_plan_override=fault_plan,
            quorum_override=args.quorum,
            chaos=chaos,
            population_dtype_override=args.population_dtype,
        )
    except StoreError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        summary = runner.run(
            max_units=args.max_units,
            jobs=args.jobs,
            supervision=supervision,
            retry_quarantined=args.retry_quarantined,
        )
    except ParallelUnitError as error:
        # Fail fast: the other units are checkpointed; surface the first
        # failing unit's own exception and traceback.
        print(error, file=sys.stderr)
        if error.__cause__ is None:
            raise
        raise error.__cause__ from None
    if observer is not None:
        _export_observer(observer, args)
    print(
        f"campaign {runner.campaign.name!r}: {summary.executed} units run, "
        f"{summary.skipped} resumed from artifacts"
        + (
            f", {summary.quarantined} QUARANTINED"
            if summary.quarantined
            else ""
        )
        + (", interrupted" if summary.interrupted else "")
    )
    if not summary.interrupted:
        print()
        print(CampaignReport.from_store(store).render())
    else:
        print(
            f"re-run `python -m repro campaign run --dir {args.store_dir}` "
            "to resume"
        )
    if summary.degraded:
        print(
            "campaign completed DEGRADED: quarantined units have failure "
            f"records under {store.quarantine_dir}/; re-run with "
            "--retry-quarantined to grant a fresh budget",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    global _ACTIVE_OBSERVER, _FAULT_PLAN_PATH, _QUORUM, _BACKEND
    args = build_parser().parse_args(argv)
    if args.quorum is not None and args.quorum < 1:
        print(f"--quorum must be >= 1; got {args.quorum}", file=sys.stderr)
        return 2
    if args.experiment == "campaign":
        return _run_campaign(args)
    scale = SCALES[args.scale]
    observer = (
        Observer(profile_hot_paths=args.profile)
        if _wants_observer(args)
        else None
    )
    _ACTIVE_OBSERVER = observer
    _FAULT_PLAN_PATH = args.fault_plan
    _BACKEND = args.backend or "sequential"
    _QUORUM = args.quorum
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    try:
        for name in names:
            started = time.perf_counter()
            if observer is not None:
                observer.emit(
                    "experiment.start", experiment=name, scale=scale.name
                )
                with observer.span("experiment", experiment=name):
                    report = EXPERIMENTS[name](scale)
            else:
                report = EXPERIMENTS[name](scale)
            elapsed = time.perf_counter() - started
            if observer is not None:
                observer.emit(
                    "experiment.end",
                    experiment=name,
                    scale=scale.name,
                    duration_s=elapsed,
                )
                observer.histogram("experiment.duration_s").observe(elapsed)
            print("=" * 64)
            print(f"{name} (scale {scale.name!r}, {elapsed:.1f}s)")
            print("=" * 64)
            print(report)
            print()
    finally:
        _ACTIVE_OBSERVER = None
        _FAULT_PLAN_PATH = None
        _QUORUM = None
        _BACKEND = "sequential"
        if observer is not None:
            _export_observer(observer, args)
            if args.telemetry:
                print(observer.metrics.render_text(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
