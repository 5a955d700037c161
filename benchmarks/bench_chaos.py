"""Supervision benchmark: clean-path overhead plus recovery wall-clock.

The campaign runner now wraps every unit in a supervisor (bounded
retries, heartbeats, watchdog deadlines, quarantine).  That machinery
must be effectively free when nothing fails — supervision that taxes
the happy path gets turned off, and then it is not there when a unit
*does* wedge.  This benchmark certifies both halves of that bargain:

* **clean-path overhead** — a small fault-free campaign run supervised
  vs ``supervision=None``, paired per rep so drift cancels; the guard
  checks the *median* ratio across reps against a 5 % ceiling, and the
  two stores must be byte-identical (heartbeats are cleaned up on
  success, so supervision may not leave fingerprints in artifacts);
* **crash recovery** — the same grid with two crash-once saboteurs:
  the supervised run must complete undegraded, and the healed store
  must be byte-identical to a fault-free reference; the extra
  wall-clock (retries + backoff) is recorded;
* **kill recovery** — a parallel run (``jobs=2``) with one worker
  SIGKILLed mid-unit: the scheduler must rebuild the pool, resubmit
  survivors, and still converge to the reference bytes; pool rebuilds
  are counted via the runner's observer.

The overhead guard is **noise-aware**, mirroring ``bench_obs.py``:
each rep times the unsupervised mode twice, and the spread of those
identical-work ratios is the box's timing noise floor.  When the floor
cannot resolve 5 %, the guard relaxes to a bounded-overhead ceiling
and the JSON records ``noise_limited: true``.  The byte-identity and
recovery guards are enforced unconditionally — supervision must never
change results, whatever the box.  ``cpu_limited`` records whether the
parallel phase had real cores to fan out onto (timings there are
tracking-only either way).

Writes ``BENCH_chaos.json`` and exits non-zero on any guard failure.

Not a pytest benchmark (no ``test_`` prefix — the timings are a
tracking artifact, not an assertion):

Run:  python benchmarks/bench_chaos.py [output.json]
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.campaign import ArtifactStore, CampaignRunner, CampaignSpec, RunSpec
from repro.campaign.runner import DEFAULT_SUPERVISION
from repro.faults import ChaosPlan, RetryPolicy, Saboteur
from repro.obs import Observer

SEED = 0

# A small fault-free grid: 4 units, seconds each, so the paired reps
# stay cheap while the per-unit supervision cost (heartbeat writes,
# backoff bookkeeping, deadline tracking) is paid 4 times per run.
GRID_K = (1, 2)
GRID_E = (1, 2)
N_SERVERS = 4
N_TRAIN = 240
N_TEST = 80
MAX_ROUNDS = 4

REPS = 5
PARALLEL_JOBS = 2

# Guard thresholds.
MAX_SUPERVISION_OVERHEAD = 0.05  # supervised vs unsupervised, clean path
NOISE_RESOLUTION_FACTOR = 3.0
MAX_BOUNDED_OVERHEAD = 0.50  # always enforced, even noise-limited

# Store content outside unit artifacts: failure trails carry wall-clock
# timestamps and spool/heartbeat dirs are runtime scratch, so identity
# is asserted over everything else (units + index + campaign.json).
_RUNTIME_DIRS = ("quarantine", "heartbeats", "spools")

# Retries are the point of the recovery phases; keep their backoff out
# of the measured wall-clock noise.
FAST_SUPERVISION = dataclasses.replace(
    DEFAULT_SUPERVISION,
    retry=RetryPolicy(max_retries=2, base_backoff_s=0.01, max_backoff_s=0.05),
)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _campaign(name: str) -> CampaignSpec:
    base = RunSpec(
        name=name,
        n_train=N_TRAIN,
        n_test=N_TEST,
        n_servers=N_SERVERS,
        max_rounds=MAX_ROUNDS,
        train_to_target=False,
        seed=SEED,
    )
    return CampaignSpec(
        name=name, base=base, participants=GRID_K, epochs=GRID_E
    )


def _store_digest(root: Path) -> str:
    """One hash over artifacts + the index digest; runtime dirs excluded.

    Raw SQLite index bytes depend on the order units completed in, so
    the index is compared through its logical ``index_digest()``.
    """
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if (
            not path.is_file()
            or path.name == ".lock"
            or path.name.startswith(ArtifactStore.index_filename)
        ):
            continue
        relative = path.relative_to(root)
        if relative.parts[0] in _RUNTIME_DIRS:
            continue
        digest.update(str(relative).encode())
        digest.update(path.read_bytes())
    digest.update(ArtifactStore(root).index_digest().encode())
    return digest.hexdigest()


def _timed_campaign(
    workdir: Path,
    label: str,
    supervision,
    chaos: ChaosPlan | None = None,
    jobs: int = 1,
    observer: Observer | None = None,
):
    store_root = workdir / label
    runner = CampaignRunner(
        _campaign("bench-chaos"),
        ArtifactStore(store_root),
        observer=observer,
        chaos=chaos,
    )
    started = time.perf_counter()
    summary = runner.run(jobs=jobs, supervision=supervision)
    elapsed = time.perf_counter() - started
    return elapsed, summary, store_root


def run_clean_overhead(workdir: Path) -> dict:
    """Supervised vs unsupervised on the fault-free path, paired reps."""
    ratios: list[float] = []
    noise_ratios: list[float] = []
    timings: dict[str, float] = {}
    identical = True
    for rep in range(REPS):
        scratch = workdir / f"clean-{rep}"
        off_s, off_summary, off_root = _timed_campaign(
            scratch, "off", supervision=None
        )
        sup_s, sup_summary, sup_root = _timed_campaign(
            scratch, "supervised", supervision=DEFAULT_SUPERVISION
        )
        off2_s, _, _ = _timed_campaign(scratch, "off2", supervision=None)
        assert off_summary.executed == sup_summary.executed == len(GRID_K) * len(GRID_E)
        assert not sup_summary.degraded
        identical = identical and (
            _store_digest(off_root) == _store_digest(sup_root)
        )
        ratios.append(sup_s / off_s)
        noise_ratios.append(off2_s / off_s)
        for mode, seconds in (("off", off_s), ("supervised", sup_s)):
            if mode not in timings or seconds < timings[mode]:
                timings[mode] = seconds
        shutil.rmtree(scratch, ignore_errors=True)
    overhead = statistics.median(ratios) - 1.0
    noise_floor = statistics.median(abs(r - 1.0) for r in noise_ratios)
    noise_limited = noise_floor * NOISE_RESOLUTION_FACTOR > MAX_SUPERVISION_OVERHEAD
    row = {
        "units": len(GRID_K) * len(GRID_E),
        "reps": REPS,
        "seconds_unsupervised_best": timings["off"],
        "seconds_supervised_best": timings["supervised"],
        "ratios": ratios,
        "noise_ratios": noise_ratios,
        "supervision_overhead": overhead,
        "noise_floor": noise_floor,
        "noise_limited": noise_limited,
        "stores_byte_identical": identical,
    }
    print(
        f"clean path: supervision {overhead:+.1%} "
        f"(noise floor ±{noise_floor:.1%}"
        f"{', noise-limited' if noise_limited else ''}), "
        f"byte-identical={identical}"
    )
    return row


def run_crash_recovery(workdir: Path) -> dict:
    """Crash-once on half the grid: retries heal to reference bytes."""
    clean_s, _, reference = _timed_campaign(
        workdir, "crash-reference", supervision=None
    )
    chaos = ChaosPlan.build(
        {
            "K1-E1-s0": Saboteur(kind="crash", times=1),
            "K2-E2-s0": Saboteur(kind="crash", times=1),
        }
    )
    chaos_s, summary, healed = _timed_campaign(
        workdir, "crash-chaos", supervision=FAST_SUPERVISION, chaos=chaos
    )
    row = {
        "crashed_units": 2,
        "seconds_fault_free": clean_s,
        "seconds_with_recovery": chaos_s,
        "recovery_overhead_s": chaos_s - clean_s,
        "degraded": summary.degraded,
        "executed": summary.executed,
        "store_byte_identical": _store_digest(reference)
        == _store_digest(healed),
    }
    print(
        f"crash recovery: +{row['recovery_overhead_s']:.2f}s over "
        f"{clean_s:.2f}s fault-free, degraded={summary.degraded}, "
        f"byte-identical={row['store_byte_identical']}"
    )
    return row


def run_kill_recovery(workdir: Path) -> dict:
    """SIGKILL one parallel worker: pool rebuild + resubmit heals."""
    clean_s, _, reference = _timed_campaign(
        workdir, "kill-reference", supervision=None
    )
    chaos = ChaosPlan.build({"K1-E2-s0": Saboteur(kind="kill", times=1)})
    observer = Observer()
    kill_s, summary, healed = _timed_campaign(
        workdir,
        "kill-chaos",
        supervision=FAST_SUPERVISION,
        chaos=chaos,
        jobs=PARALLEL_JOBS,
        observer=observer,
    )
    row = {
        "jobs": PARALLEL_JOBS,
        "seconds_fault_free_sequential": clean_s,
        "seconds_with_recovery": kill_s,
        "pool_rebuilds": observer.metrics.value("scheduler.pool_rebuilds"),
        "degraded": summary.degraded,
        "executed": summary.executed,
        "store_byte_identical": _store_digest(reference)
        == _store_digest(healed),
    }
    print(
        f"kill recovery (jobs={PARALLEL_JOBS}): {kill_s:.2f}s, "
        f"{row['pool_rebuilds']} pool rebuild(s), "
        f"degraded={summary.degraded}, "
        f"byte-identical={row['store_byte_identical']}"
    )
    return row


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    out_path = Path(args[0]) if args else Path("BENCH_chaos.json")
    cpus = _available_cpus()
    cpu_limited = cpus < PARALLEL_JOBS
    print(f"available cpus: {cpus} (cpu_limited={cpu_limited})")

    workdir = Path(tempfile.mkdtemp(prefix="bench_chaos_"))
    try:
        clean = run_clean_overhead(workdir)
        crash = run_crash_recovery(workdir)
        kill = run_kill_recovery(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    payload = {
        "benchmark": "chaos",
        "available_cpus": cpus,
        "cpu_limited": cpu_limited,
        "clean_path": clean,
        "crash_recovery": crash,
        "kill_recovery": kill,
        "thresholds": {
            "max_supervision_overhead": MAX_SUPERVISION_OVERHEAD,
            "max_bounded_overhead": MAX_BOUNDED_OVERHEAD,
            "noise_resolution_factor": NOISE_RESOLUTION_FACTOR,
        },
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")

    failures: list[str] = []
    # Identity and recovery guards: unconditional.
    if not clean["stores_byte_identical"]:
        failures.append(
            "supervised clean-path store differs from unsupervised"
        )
    for label, row in (("crash", crash), ("kill", kill)):
        if row["degraded"]:
            failures.append(f"{label} recovery left the campaign degraded")
        if not row["store_byte_identical"]:
            failures.append(
                f"{label}-recovered store differs from fault-free reference"
            )
    if kill["pool_rebuilds"] < 1:
        failures.append("kill recovery did not rebuild the worker pool")
    # Overhead guard: strict when the box can resolve it.
    limit = (
        MAX_BOUNDED_OVERHEAD
        if clean["noise_limited"]
        else MAX_SUPERVISION_OVERHEAD
    )
    if clean["supervision_overhead"] > limit:
        failures.append(
            f"clean-path supervision overhead "
            f"{clean['supervision_overhead']:.1%} > {limit:.0%}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("all supervision guards passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
