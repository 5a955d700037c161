"""End-to-end benchmark of the EE-FEI reproduction.

Usage:

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed S]
        [--seconds T] [--trace 0|1] [--trace-dir DIR] [--out FILE]
        [--update-reference]

Each workload runs in a fresh subprocess (``workloads.py``) with the
BLAS thread pools pinned to one thread (``harness.PINNED_ENV``).  With
``--trace 0`` (default) the run is untraced and prints the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it runs the workload
twice, half the time each, untraced and then traced, and prints the
per-layer metrics, with the traced run's Chrome trace and span forest in
``<trace-dir>/<workload>-s<seed>``.  Every metric is printed as
``workload name value unit``; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}`` of the last workload.

``--out FILE`` appends each workload's result, with the environment it
ran in, to a results file that ``compare.py`` reads.
``--update-reference`` stores this run's outputs as the expected
outputs for its seed in ``reference.json``.

Exit status: 0 when every output checked out, 1 when one did not or a
workload process failed, 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import harness

CHILD = harness.HERE / "workloads.py"
BUILD_DIR = harness.ROOT / ".bench_build" / "e2e"
#: Each workload, both of its processes included, ends within this budget.
WORKLOAD_BUDGET_S = 170.0


class WorkloadError(RuntimeError):
    """A workload process failed or ran out of time."""


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    trace_dir: Path | None,
    deadline: float,
) -> dict:
    """Run one workload process and return its JSON document."""
    work_dir = BUILD_DIR / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [
        sys.executable,
        str(CHILD),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--work-dir",
        str(work_dir),
    ]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    env = {**os.environ, **harness.PINNED_ENV}
    # Its own process group, so a timeout also kills the campaign's workers.
    process = subprocess.Popen(
        command,
        cwd=harness.ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        process_group=0,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(process)
        raise WorkloadError(f"{workload}: out of time") from None
    except BaseException:
        _kill_group(process)
        raise
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise WorkloadError(
            f"{workload}: workload process exited {process.returncode}"
        )
    return json.loads(lines[-1])


def git_commit() -> str | None:
    if not (harness.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=harness.ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    src = harness.ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    """The per-layer metrics of a traced run, with its untraced twin."""
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = (
        traced["e2e"]["run_s"] / plain["e2e"]["run_s"] - 1.0
    )
    metrics.update(plain["extras"])
    return metrics


def append_result(path: Path, record: dict) -> None:
    document = {"runs": []}
    if path.exists():
        document = json.loads(path.read_text(encoding="utf-8"))
    document["runs"].append(record)
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def update_reference(workload: str, seed: int, outputs: dict) -> None:
    reference = harness.load_reference()
    reference.setdefault(workload, {})[str(seed)] = outputs
    harness.REFERENCE_FILE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=harness.WORKLOADS,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measuring time per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-dir",
        type=Path,
        default=BUILD_DIR / "trace",
        help="traced runs write trace.json and spans.json into "
        "DIR/<workload>-s<seed> (default: .bench_build/e2e/trace)",
    )
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (harness.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: the program's source is missing under {harness.ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = float(harness.load_benchmark()["run_seconds"])
    status = 0
    for workload in args.workload or harness.WORKLOADS:
        started_unix = time.time()
        deadline = time.monotonic() + WORKLOAD_BUDGET_S
        try:
            if args.trace:
                trace_dir = args.trace_dir / f"{workload}-s{args.seed}"
                plain = run_child(workload, args.seed, seconds / 2, None, deadline)
                traced = run_child(
                    workload, args.seed, seconds / 2, trace_dir, deadline
                )
                metrics, units = per_layer(plain, traced), harness.per_layer_metrics()
                runs = (plain, traced)
            else:
                plain = run_child(workload, args.seed, seconds, None, deadline)
                metrics, units = plain["e2e"], harness.END_TO_END
                runs = (plain,)
        except WorkloadError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        result = {
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, (unit, _) in units.items()
            },
        }
        print(f"{workload}: reference {plain['reference']} (seed {args.seed})")
        for run in runs:
            for problem in run["problems"]:
                print(f"{workload}: FAILED {problem}", file=sys.stderr)
        for name, entry in result["metrics"].items():
            print(f"{workload} {name} {entry['value']:.6g} {entry['unit']}")
        if args.out is not None:
            append_result(
                args.out,
                {
                    "workload": workload,
                    "seed": args.seed,
                    "trace": args.trace,
                    "seconds": seconds,
                    "started_unix": started_unix,
                    "ops": [run["ops"] for run in runs],
                    "reference": plain["reference"],
                    **result,
                    "environment": {
                        **plain["environment"],
                        "git_commit": git_commit(),
                        "source_sha256": source_digest(),
                    },
                },
            )
        if args.update_reference:
            update_reference(workload, args.seed, plain["outputs"])
        if not result["correct"]:
            status = 1
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
