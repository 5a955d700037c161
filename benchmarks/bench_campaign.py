"""Campaign-orchestration benchmark: checkpoint overhead, resume, report.

Runs one fixed-budget ``(K, E)`` grid campaign (8 units at demo scale)
through :class:`repro.campaign.CampaignRunner` and times the properties
the subsystem exists for:

* **orchestration overhead** — campaign wall-clock vs a bare loop over
  the same units calling ``run_unit`` directly (no store, no manifest,
  no checksums).  Checkpointing must cost a bounded fraction of the
  training it protects.  One pass of either takes only 0.3–0.5 s, so a
  single ratio swings with host noise: the guard reads the median of
  ``OVERHEAD_REPEATS`` per-repeat ratios, each repeat timing both
  passes into fresh stores, the first mover swapped every repeat.
* **resume no-op** — a second runner pass over the completed store must
  skip every unit by content key in a small fraction of the initial
  run's time (this is what makes kill-and-resume cheap).
* **report from artifacts** — regenerating the Fig. 5/6 energy grid
  from the store must likewise be a small fraction of the initial run
  (reports never re-train).
* **parallel campaign** — the same grid with ``jobs=4`` through the
  longest-first unit scheduler, guarded the same CPU-aware way, plus a
  whole-store byte-identity check against the sequential run.

Speed guards are CPU-aware because the acceptance speedups are
physically impossible on a single core: with enough CPUs the full
thresholds apply, otherwise the bounded-overhead floor applies and the
JSON records ``cpu_limited: true``.

Writes ``BENCH_campaign.json`` and exits non-zero if orchestration
overhead, resume, report, or parallel runs regress past their
thresholds, or if the parallel store's bytes diverge.

Not a pytest benchmark (no ``test_`` prefix — the timings are a
tracking artifact, not an assertion):

Run:  python benchmarks/bench_campaign.py [output.json]
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.campaign import (
    ArtifactStore,
    CampaignReport,
    CampaignRunner,
    CampaignSpec,
    RunSpec,
)

N_SERVERS = 8
N_TRAIN = 800
N_TEST = 200
MAX_ROUNDS = 10
K_VALUES = (1, 2, 4, 8)
E_VALUES = (1, 4)
SEED = 0

# Guard thresholds (generous: CI boxes are noisy).
MAX_OVERHEAD_FRACTION = 0.50  # store+manifest cost vs bare training
MAX_RESUME_FRACTION = 0.20  # resume-noop time vs initial run
MAX_REPORT_FRACTION = 0.20  # report time vs initial run
OVERHEAD_REPEATS = 5  # alternated campaign/bare-loop pairs

# Parallel-mode guards: acceptance thresholds when the cores exist,
# bounded-overhead floor always.
PARALLEL_JOBS = 4
ACCEPT_PARALLEL_SPEEDUP = 2.0  # enforced when cpus >= PARALLEL_JOBS
MIN_BOUNDED_SPEEDUP = 0.5  # always enforced


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _store_digest(root: Path) -> str:
    """One hash over the artifact files, path-keyed, and the index digest.

    The lock and the SQLite index file are excluded: raw index bytes
    depend on the order units completed in, so the index is compared
    through its logical ``index_digest()``.
    """
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if (
            path.is_file()
            and path.name != ".lock"
            and not path.name.startswith(ArtifactStore.index_filename)
        ):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    digest.update(ArtifactStore(root).index_digest().encode())
    return digest.hexdigest()


def _make_campaign() -> CampaignSpec:
    base = RunSpec(
        name="bench",
        n_train=N_TRAIN,
        n_test=N_TEST,
        n_servers=N_SERVERS,
        max_rounds=MAX_ROUNDS,
        train_to_target=False,
        seed=SEED,
    )
    return CampaignSpec(
        name="bench", base=base, participants=K_VALUES, epochs=E_VALUES
    )


def _timed_campaign(
    campaign: CampaignSpec, root: Path
) -> tuple[float, CampaignRunner]:
    runner = CampaignRunner(campaign, ArtifactStore(root))
    started = time.perf_counter()
    summary = runner.run()
    elapsed = time.perf_counter() - started
    assert summary.executed == len(campaign), "benchmark campaign incomplete"
    return elapsed, runner


def _timed_bare_loop(campaign: CampaignSpec, root: Path) -> float:
    """The same units, no store: isolates the orchestration overhead."""
    runner = CampaignRunner(campaign, ArtifactStore(root))
    started = time.perf_counter()
    for unit in runner.units:
        runner.run_unit(unit)
    return time.perf_counter() - started


def _timed_overhead(
    campaign: CampaignSpec, workdir: Path
) -> tuple[list[float], list[float]]:
    """Campaign and bare-loop seconds over alternated repeats.

    Every pass gets a fresh store; the first mover swaps each repeat so
    drift in the host's speed hits both alike.  The first campaign pass
    writes ``workdir / "sequential"``, which the later phases read.
    """
    campaign_runs: list[float] = []
    bare_runs: list[float] = []
    for repeat in range(OVERHEAD_REPEATS):
        root = "sequential" if repeat == 0 else f"campaign-{repeat}"

        def campaign_pass(root: str = root) -> None:
            campaign_runs.append(_timed_campaign(campaign, workdir / root)[0])

        def bare_pass(repeat: int = repeat) -> None:
            bare_runs.append(
                _timed_bare_loop(campaign, workdir / f"bare-{repeat}")
            )

        passes = (campaign_pass, bare_pass)
        for timed in passes if repeat % 2 == 0 else passes[::-1]:
            timed()
    return campaign_runs, bare_runs


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    out_path = Path(args[0]) if args else Path("BENCH_campaign.json")
    campaign = _make_campaign()
    workdir = Path(tempfile.mkdtemp(prefix="bench_campaign_"))
    try:
        # Warm the dataset/import caches so the first timed pass is fair.
        warm = CampaignRunner(campaign, ArtifactStore(workdir / "warm"))
        warm.run_unit(warm.units[0])

        campaign_runs, bare_runs = _timed_overhead(campaign, workdir)
        campaign_s = statistics.median(campaign_runs)
        bare_s = statistics.median(bare_runs)
        overhead_repeats = [
            c / b - 1.0 for c, b in zip(campaign_runs, bare_runs)
        ]
        overhead = statistics.median(overhead_repeats)
        print(
            f"campaign ({len(campaign)} units): {campaign_s:.3f}s; "
            f"bare unit loop: {bare_s:.3f}s (medians of "
            f"{OVERHEAD_REPEATS}); orchestration overhead "
            f"{100 * overhead:+.1f}% (median; repeats "
            + ", ".join(f"{100 * o:+.1f}%" for o in overhead_repeats)
            + ")"
        )

        store = ArtifactStore(workdir / "sequential")
        started = time.perf_counter()
        resumed = CampaignRunner(campaign, store).run()
        resume_s = time.perf_counter() - started
        assert resumed.executed == 0 and resumed.skipped == len(campaign)
        print(
            f"resume no-op: {resume_s:.3f}s "
            f"({100 * resume_s / campaign_s:.1f}% of initial run)"
        )

        started = time.perf_counter()
        report = CampaignReport.from_store(store)
        grid = report.energy_grid()
        report.render()
        report_s = time.perf_counter() - started
        assert len(grid) == len(campaign)
        print(
            f"report from artifacts: {report_s:.3f}s "
            f"({100 * report_s / campaign_s:.1f}% of initial run)"
        )

        par_root = workdir / "parallel"
        runner = CampaignRunner(campaign, ArtifactStore(par_root))
        started = time.perf_counter()
        par_summary = runner.run(jobs=PARALLEL_JOBS)
        parallel_s = time.perf_counter() - started
        assert par_summary.executed == len(campaign)
        parallel_speedup = campaign_s / parallel_s
        parallel_identical = _store_digest(par_root) == _store_digest(
            workdir / "sequential"
        )
        print(
            f"parallel campaign (jobs={PARALLEL_JOBS}): {parallel_s:.3f}s "
            f"({parallel_speedup:.2f}x, byte-identical={parallel_identical})"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cpus = _available_cpus()

    payload = {
        "benchmark": "campaign",
        "config": {
            "n_servers": N_SERVERS,
            "n_train": N_TRAIN,
            "n_test": N_TEST,
            "max_rounds": MAX_ROUNDS,
            "grid_k": list(K_VALUES),
            "grid_e": list(E_VALUES),
            "units": len(campaign),
            "seed": SEED,
        },
        "seconds": {
            "campaign_sequential": campaign_s,
            "bare_unit_loop": bare_s,
            "resume_noop": resume_s,
            "report_from_artifacts": report_s,
            "campaign_parallel": parallel_s,
        },
        "overhead_repeats": OVERHEAD_REPEATS,
        "seconds_repeats": {
            "campaign_sequential": campaign_runs,
            "bare_unit_loop": bare_runs,
        },
        "orchestration_overhead_fraction_repeats": overhead_repeats,
        "orchestration_overhead_fraction": overhead,
        "resume_fraction_of_run": resume_s / campaign_s,
        "report_fraction_of_run": report_s / campaign_s,
        "parallel_jobs": PARALLEL_JOBS,
        "parallel_speedup": parallel_speedup,
        "parallel_store_byte_identical": parallel_identical,
        "available_cpus": cpus,
        "cpu_limited": cpus < PARALLEL_JOBS,
        "thresholds": {
            "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
            "max_resume_fraction": MAX_RESUME_FRACTION,
            "max_report_fraction": MAX_REPORT_FRACTION,
            "accept_parallel_speedup": ACCEPT_PARALLEL_SPEEDUP,
            "min_bounded_speedup": MIN_BOUNDED_SPEEDUP,
        },
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")

    failures = []
    if overhead > MAX_OVERHEAD_FRACTION:
        failures.append(
            f"orchestration overhead {100 * overhead:.1f}% exceeds "
            f"{100 * MAX_OVERHEAD_FRACTION:.0f}%"
        )
    if resume_s / campaign_s > MAX_RESUME_FRACTION:
        failures.append(
            f"resume no-op took {100 * resume_s / campaign_s:.1f}% of the "
            f"initial run (max {100 * MAX_RESUME_FRACTION:.0f}%)"
        )
    if report_s / campaign_s > MAX_REPORT_FRACTION:
        failures.append(
            f"report took {100 * report_s / campaign_s:.1f}% of the "
            f"initial run (max {100 * MAX_REPORT_FRACTION:.0f}%)"
        )
    parallel_threshold = (
        ACCEPT_PARALLEL_SPEEDUP
        if cpus >= PARALLEL_JOBS
        else MIN_BOUNDED_SPEEDUP
    )
    if parallel_speedup < parallel_threshold:
        failures.append(
            f"parallel campaign {parallel_speedup:.2f}x below "
            f"{parallel_threshold:.2f}x threshold ({cpus} cpus)"
        )
    if not parallel_identical:
        failures.append(
            "parallel campaign store is not byte-identical to sequential"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
