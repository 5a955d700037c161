"""One workload, measured in a fresh process (``run.py`` starts it).

Usage (normally through ``run.py``, which pins the environment first):

    python benchmarks/e2e/workloads.py --workload NAME --seed S \
        --seconds T --work-dir DIR [--trace-dir DIR]

The process repeats the workload's operation for about ``T`` seconds
(it starts no operation it expects to end past them) and at least
``min_ops`` times.  Every operation
rebuilds its inputs from the seed, runs them through the public API
(``RunSpec``, ``execute_unit``, ``CampaignRunner``, ``open_store``,
``CampaignReport``) and checks its outputs: against the first
operation's (repeats must be bit-identical), against invariants that
hold for any seed, and for seeds 0 and 1 against ``reference.json``.

The last stdout line is one JSON document with the end-to-end metrics,
the correctness tally and, with ``--trace-dir``, the per-layer metrics;
the Chrome trace and the span forest are written into that directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import harness

SRC = harness.ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")

from repro import (  # noqa: E402
    CampaignReport,
    CampaignRunner,
    CampaignSpec,
    Observer,
    RunSpec,
    campaign_telemetry,
    open_store,
)
from repro.campaign import runner  # noqa: E402
from repro.data import synthetic_mnist  # noqa: E402
from repro.faults import ResilienceConfig, RetryPolicy, make_demo_plan  # noqa: E402
from repro.obs.export import write_chrome_trace  # noqa: E402

import layers  # noqa: E402

def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


class _Untraced:
    """Stands in for :class:`layers.Recorder` when tracing is off."""

    def span(self, name: str):
        return contextlib.nullcontext()


def _json_normal(document):
    """The document as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(document))


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------


class SingleRun:
    """One ``RunSpec`` per operation: generate the data, execute the unit.

    Attributes:
        spec: the run; ``spec.seed`` is the benchmark seed.
        observed: attach an in-memory ``Observer`` to the run.
        fault_free: the run injects no faults, so it must waste no
            energy and degrade no round.
    """

    min_ops = 3

    def __init__(self, spec: RunSpec, observed: bool = False) -> None:
        self.name = spec.name
        self.spec = spec
        self.observed = observed
        self.fault_free = spec.fault_plan is None

    def run_op(self, recorder) -> dict:
        spec = self.spec
        datasets = synthetic_mnist.load_synthetic_mnist(
            n_train=spec.n_train,
            n_test=spec.n_test,
            seed=spec.seed,
            noise_std=spec.noise_std,
        )
        observer = Observer() if self.observed else None
        result = runner.execute_unit(spec, datasets=datasets, observer=observer)
        outputs = _json_normal(
            {
                "rounds": result.rounds,
                "total_energy_j": result.total_energy_j,
                "wall_clock_s": result.wall_clock_s,
                "final_accuracy": result.history.final_accuracy(),
                "final_loss": result.history.final_loss(),
                "wasted_energy_j": result.wasted_energy_j,
                "degraded_rounds": result.degraded_rounds,
            }
        )
        problems = self._invariants(outputs)
        if observer is not None and len(observer.events) == 0:
            problems.append("observer recorded no events")
        return {
            "outputs": outputs,
            "attempted": 1,
            "failures": {"run": problems} if problems else {},
            "units": 1,
        }

    def _invariants(self, out: dict) -> list[str]:
        problems = []
        if out["rounds"] != self.spec.max_rounds:
            problems.append(f"ran {out['rounds']} of {self.spec.max_rounds} rounds")
        for key in ("total_energy_j", "wall_clock_s", "final_loss"):
            if not (math.isfinite(out[key]) and out[key] > 0):
                problems.append(f"{key} = {out[key]!r}")
        if not 0.0 <= out["final_accuracy"] <= 1.0:
            problems.append(f"final_accuracy = {out['final_accuracy']!r}")
        if not 0.0 <= out["wasted_energy_j"] <= out["total_energy_j"]:
            problems.append(f"wasted_energy_j = {out['wasted_energy_j']!r}")
        if not 0 <= out["degraded_rounds"] <= out["rounds"]:
            problems.append(f"degraded_rounds = {out['degraded_rounds']!r}")
        if self.fault_free and (out["wasted_energy_j"] or out["degraded_rounds"]):
            problems.append("a fault-free run wasted energy or degraded")
        return problems


class CampaignGrid:
    """The Fig. 5/6 ``(K, E)`` grid into a fresh SQLite store per operation.

    One operation is a write pass (``jobs`` worker processes) followed
    by ``read_passes`` read passes.  Each read pass resumes the finished
    campaign (every unit skipped), renders the ``CampaignReport``,
    folds the stored telemetry and verifies the store.
    """

    min_ops = 3
    read_passes = 5

    def __init__(self, campaign: CampaignSpec, work_dir: Path) -> None:
        self.name = campaign.name
        self.campaign = campaign
        self.jobs = min(2, available_cpus())
        self.units = len(campaign)
        self._work_dir = work_dir

    def run_op(self, recorder) -> dict:
        root = self._work_dir / f"store-{time.monotonic_ns()}"
        failures: dict[str, list[str]] = {}
        with recorder.span("campaign.store.open"):
            write_runner = CampaignRunner(
                self.campaign, open_store(root, backend="sqlite")
            )
        started = time.perf_counter()
        with recorder.span("campaign.runner.pass"):
            summary = write_runner.run(jobs=self.jobs)
        pass_s = time.perf_counter() - started
        write_runner.store.close()
        if summary.executed != self.units or summary.interrupted:
            failures["write pass"] = [
                f"executed {summary.executed} of {self.units} units "
                f"(quarantined {summary.quarantined}, "
                f"interrupted {summary.interrupted})"
            ]
        outputs = None
        read_s = []
        for index in range(self.read_passes):
            started = time.perf_counter()
            problems = []
            with recorder.span("campaign.store.lookup"):
                resume = CampaignRunner(self.campaign, open_store(root))
                resumed = resume.run(jobs=self.jobs)
                resume.store.close()
            with recorder.span("campaign.report.render"), open_store(root) as store:
                report = CampaignReport.from_store(store)
                report.render()
                telemetry_problems = campaign_telemetry(store).reconcile()
                pass_outputs = _json_normal(
                    {
                        "units": {
                            row["name"]: {k: v for k, v in row.items() if k != "key"}
                            for row in report.rows
                        },
                        "best_plan": report.best_plan(),
                        "savings_vs_1_1": report.savings_vs((1, 1)),
                    }
                )
            with recorder.span("campaign.store.verify"), open_store(root) as store:
                health = list(store.verify())
            read_s.append(time.perf_counter() - started)
            if resumed.skipped != self.units or resumed.executed:
                problems.append(
                    f"resume skipped {resumed.skipped}, executed {resumed.executed}"
                )
            problems += telemetry_problems + health
            if outputs is None:
                outputs = pass_outputs
            elif pass_outputs != outputs:
                problems.append("report differs from the first read pass")
            if problems:
                failures[f"read pass {index}"] = problems
        failures.update(self._unit_invariants(outputs["units"]))
        return {
            "outputs": outputs,
            "attempted": self.units + self.read_passes,
            "failures": failures,
            "units": self.units,
            "pass_s": pass_s,
            "read_s": read_s,
        }

    def _unit_invariants(self, units: dict) -> dict[str, list[str]]:
        failures = {}
        for spec in self.campaign.expand():
            row = units.get(spec.name)
            if row is None:
                failures[spec.name] = ["missing from the store"]
                continue
            ran = (row["participants"], row["epochs"], row["rounds"])
            if ran != (spec.participants, spec.epochs, spec.max_rounds):
                failures[spec.name] = [f"ran K, E, rounds = {ran}"]
            elif not (
                math.isfinite(row["total_energy_j"]) and row["total_energy_j"] > 0
            ):
                failures[spec.name] = [f"total_energy_j = {row['total_energy_j']!r}"]
        return failures


def make_workload(name: str, seed: int, work_dir: Path):
    """The named workload, its inputs built from ``seed``."""
    if name == "paper-20pi":
        # The paper's prototype: 60 000 samples over 20 Pis, K=20, E=16.
        return SingleRun(
            RunSpec(
                name=name,
                n_train=60_000,
                n_test=10_000,
                n_servers=20,
                participants=20,
                epochs=16,
                max_rounds=1,
                train_to_target=False,
                backend="sequential",
                seed=seed,
            )
        )
    if name == "population-10k":
        return SingleRun(
            RunSpec(
                name=name,
                n_train=40_000,
                n_test=2_000,
                n_servers=10_000,
                participants=1_000,
                epochs=1,
                max_rounds=10,
                train_to_target=False,
                backend="population",
                seed=seed,
            )
        )
    if name == "faults-1k":
        rounds = 30
        return SingleRun(
            RunSpec(
                name=name,
                n_train=20_000,
                n_test=2_000,
                n_servers=1_000,
                participants=100,
                epochs=2,
                max_rounds=rounds,
                train_to_target=False,
                backend="population",
                seed=seed,
                fault_plan=make_demo_plan(
                    1_000,
                    seed,
                    crash_fraction=0.1,
                    straggler_fraction=0.1,
                    loss_fraction=0.2,
                    horizon=rounds,
                ),
                resilience=ResilienceConfig(
                    retry=RetryPolicy(max_retries=3),
                    upload_timeout_s=30.0,
                    min_quorum=50,
                ),
            ),
            observed=True,
        )
    if name == "campaign-grid":
        # Fixed-budget units: rounds-to-target vary ~25 % from seed to
        # seed, which would swamp any timing bound across seeds.
        base = RunSpec(
            name=name,
            n_train=2_000,
            n_test=600,
            n_servers=20,
            max_rounds=10,
            train_to_target=False,
            telemetry=True,
            seed=seed,
        )
        campaign = CampaignSpec(
            name=name,
            base=base,
            participants=(1, 2, 5, 10, 20),
            epochs=(1, 2, 5, 10, 20),
        )
        return CampaignGrid(campaign, work_dir)
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# Measurement.
# ----------------------------------------------------------------------


def environment() -> dict:
    """What the numbers were measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_available": available_cpus(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "pinned_env": {name: os.environ.get(name) for name in harness.PINNED_ENV},
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for child, in MiB."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


def measure(workload, seed: int, seconds: float, work_dir: Path, trace_dir):
    clock = layers.RoundClock(work_dir)
    recorder = _Untraced()
    if trace_dir is not None:
        recorder = layers.Recorder(work_dir)
        recorder.install()
    reference = harness.load_reference()
    ops = []
    first_outputs = None
    attempted = failed = 0
    problems: list[str] = []
    reference_status = "unchecked"
    started = time.perf_counter()
    while True:
        gc.collect()
        op_start = time.perf_counter()
        with recorder.span(harness.OP_SPAN):
            op = workload.run_op(recorder)
        op_end = time.perf_counter()
        rounds = clock.drain()
        first_round = rounds[0][0] if rounds else op_end
        failures = op["failures"]
        if first_outputs is None:
            first_outputs = op["outputs"]
            reference_status, mismatches = harness.check_reference(
                reference, workload.name, seed, first_outputs
            )
            if mismatches:
                failures = {**failures, "reference": mismatches}
        elif op["outputs"] != first_outputs:
            failures = {**failures, "repeat": ["outputs differ from the first operation"]}
        attempted += op["attempted"]
        failed += min(len(failures), op["attempted"])
        for label, found in failures.items():
            problems += [f"op {len(ops)} {label}: {p}" for p in found]
        ops.append(
            {
                "setup_s": first_round - op_start,
                "run_s": op_end - first_round,
                "rounds": [end - start for start, end, _ in rounds],
                "participants": sum(p for _, _, p in rounds),
                "units": op["units"],
                "pass_s": op.get("pass_s"),
                "read_s": op.get("read_s", []),
            }
        )
        # Stop before an operation that, at the pace so far, would end
        # past the budget, so a run lasts about ``seconds`` and no longer.
        elapsed = op_end - started
        if len(ops) >= workload.min_ops and elapsed * (1 + 1 / len(ops)) > seconds:
            break
    document = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "reference": reference_status,
        "problems": problems,
        "ops": len(ops),
        "e2e": end_to_end(ops),
        "extras": extras(ops),
        "outputs": first_outputs,
        "environment": environment(),
    }
    if trace_dir is not None:
        recorder.merge_workers()
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(
            recorder.tracer, trace_dir / "trace.json", process_name="e2e"
        )
        roots = recorder.roots()
        (trace_dir / "spans.json").write_text(json.dumps(roots), encoding="utf-8")
        document["layers"] = harness.layer_metrics(
            roots, len(ops), getattr(workload, "jobs", 1)
        )
    return document


def end_to_end(ops: list[dict]) -> dict[str, float]:
    rounds = [d for op in ops for d in op["rounds"]]
    return {
        "setup_s": statistics.median([op["setup_s"] for op in ops]),
        "run_s": statistics.median([op["run_s"] for op in ops]),
        "round_s_p50": statistics.median(rounds),
        "clients_per_s": statistics.median(
            [op["participants"] / op["run_s"] for op in ops]
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def extras(ops: list[dict]) -> dict[str, float]:
    """Workload-specific timings; 0 where a workload has none."""
    tail = harness.tail_percentile([d for op in ops for d in op["rounds"]])
    units_per_s = [op["units"] / op["pass_s"] for op in ops if op["pass_s"]]
    read_s = [r for op in ops for r in op["read_s"]]
    return {
        "fl.training.round_s_tail": tail[1] if tail else 0.0,
        "campaign.runner.units_per_s": (
            statistics.median(units_per_s) if units_per_s else 0.0
        ),
        "campaign.report.read_pass_s": statistics.median(read_s) if read_s else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.seed, args.work_dir)
    document = measure(
        workload, args.seed, args.seconds, args.work_dir, args.trace_dir
    )
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
