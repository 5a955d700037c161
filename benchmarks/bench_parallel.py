"""Two-level parallel-runtime benchmark: threaded clients + campaign jobs.

Measures both layers of the parallel execution runtime against their
sequential references and certifies the determinism contract alongside
the timings:

* **paper shape** — the paper's full data shape (3 000 samples per
  server, K=20, E=16, 784x10) in lock-step rounds: the sequential
  engine at a CPU budget of 1, the same engine at the process's own
  budget, which trains these full-batch clients on threads (gated to
  0 max |dparam| against budget 1), and the population engine, the row
  behind ``auto``'s pick of it at this shape (max |dparam| <= 1e-10 and
  at most 1.05x sequential's seconds per round at budget 1).  The
  population engine's time is also recorded against the threaded
  sequential engine, without a bound;
* **data generation** — ``load_synthetic_mnist(60_000, 10_000)``, the
  paper's split, at a CPU budget of 1 and at the process's own budget,
  which draws on the calling thread while a second shapes the classes
  and generates the test split.  Repeats alternate the two sides; all
  four arrays must hash identically on every repeat of both.  The time
  ratio is recorded without a bound;
* **campaign level** — an 8-unit (K, E) grid run with ``jobs=4`` vs the
  sequential runner, with whole-store byte identity (unit files must
  hash identically and the index digests must be equal).

The campaign speed guard is CPU-aware: its acceptance threshold
(>= 2.0x at 4 jobs) is physically impossible without multiple cores, so
it is enforced only when the container grants enough CPUs; on smaller
boxes the guard degrades to a bounded-overhead floor and the JSON
records ``cpu_limited: true``.  The determinism guards (param diffs,
store byte identity) are enforced unconditionally — parallelism must
never change results, whatever the core count.

Writes ``BENCH_parallel.json`` and exits non-zero on any guard failure.

Not a pytest benchmark (no ``test_`` prefix — the timings are a
tracking artifact, not an assertion):

Run:  python benchmarks/bench_parallel.py [output.json]
"""

from __future__ import annotations

import os

# One BLAS thread per process, as benchmarks/e2e pins it: the threads and
# worker processes measured here are the parallelism, and a
# multi-threaded BLAS would let the baselines occupy the same cores.
# Must run before numpy loads.
for _blas_threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_blas_threads, "1")

import contextlib
import hashlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from bench_engine import _cpu_budget

from repro.campaign import ArtifactStore, CampaignRunner, CampaignSpec, RunSpec
from repro.data.dataset import Dataset
from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.fl.model import LogisticRegressionConfig
from repro.fl.partition import partition_iid
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients
from repro.perf import cpu

SEED = 0
N_SERVERS = 20

# The paper model at the paper's largest cell, on the prototype's 60k
# samples over 20 servers.
HEADLINE_K = 20
HEADLINE_E = 16
PAPER_MODEL = LogisticRegressionConfig(n_features=784, n_classes=10)
PAPER_SHAPE_SAMPLES_PER_SERVER = 3_000
# Rounds alternate between the trainers, so host drift hits every side
# alike; the medians are compared.
PAPER_SHAPE_PAIRED_ROUNDS = 5
ACCEPT_POPULATION_ROUND_RATIO = 1.05  # population / sequential s/round
ACCEPT_POPULATION_ATOL = 1e-10

# The paper's MNIST split, generated at each budget in turn.
DATA_N_TRAIN = 60_000
DATA_N_TEST = 10_000
DATA_PAIRED_REPEATS = 5

# Campaign-level: the same 8-unit demo grid bench_campaign.py uses.
CAMPAIGN_N_SERVERS = 8
CAMPAIGN_N_TRAIN = 800
CAMPAIGN_N_TEST = 200
CAMPAIGN_MAX_ROUNDS = 10
CAMPAIGN_K = (1, 2, 4, 8)
CAMPAIGN_E = (1, 4)
CAMPAIGN_JOBS = 4

# CPU-aware guard thresholds.
ACCEPT_PARALLEL_SPEEDUP = 2.0  # enforced when cpus >= CAMPAIGN_JOBS
MIN_BOUNDED_SPEEDUP = 0.5  # always enforced: parallelism may not
# cost more than 2x even with nothing to parallelise onto


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _linear_task(n: int, model: LogisticRegressionConfig, seed: int) -> Dataset:
    d, c = model.n_features, model.n_classes
    projection = np.random.default_rng(424242).normal(size=(d, c))
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    scores = features @ projection
    labels = np.argmax(scores + rng.normal(0, 0.5, size=scores.shape), axis=1)
    return Dataset(features, labels, c)


def _make_data(model: LogisticRegressionConfig, samples_per_server: int):
    train = _linear_task(samples_per_server * N_SERVERS, model, seed=SEED)
    test = _linear_task(200, model, seed=SEED + 99)
    partitions = partition_iid(train, N_SERVERS, np.random.default_rng(1))
    return train, test, partitions


def _trainer(
    backend: str,
    model: LogisticRegressionConfig,
    data,
    participants: int,
    epochs: int,
    n_rounds: int,
) -> FederatedTrainer:
    train, test, partitions = data
    return FederatedTrainer(
        clients=build_clients(partitions, model),
        config=FederatedConfig(
            n_rounds=n_rounds,
            participants_per_round=participants,
            local_epochs=epochs,
            sgd=SGDConfig(learning_rate=0.1, decay=0.995),
            seed=SEED,
            backend=backend,
        ),
        train_eval=train,
        test_eval=test,
    )


def _lockstep_rounds(
    sides: dict[str, tuple[str, int | None]], data, rounds: int
) -> dict[str, tuple[list[float], np.ndarray]]:
    """Per-round seconds and final parameters of trainers run in turn.

    ``sides`` maps a label to ``(backend, CPU budget)``; a budget of
    ``None`` leaves the process's own.  After one warm-up round each,
    the trainers alternate rounds, and the one that goes first rotates
    every round.
    """
    labels = list(sides)
    trainers = {
        label: _trainer(
            backend, PAPER_MODEL, data, HEADLINE_K, HEADLINE_E, rounds + 1
        )
        for label, (backend, _) in sides.items()
    }

    def at_budget(label: str):
        budget = sides[label][1]
        if budget is None:
            return contextlib.nullcontext()
        return _cpu_budget(budget)

    seconds: dict[str, list[float]] = {label: [] for label in labels}
    for label, trainer in trainers.items():
        with at_budget(label):
            trainer.run_round()
    for round_index in range(rounds):
        shift = round_index % len(labels)
        for label in labels[shift:] + labels[:shift]:
            with at_budget(label):
                started = time.perf_counter()
                trainers[label].run_round()
                seconds[label].append(time.perf_counter() - started)
    return {
        label: (
            seconds[label],
            trainer.coordinator.global_parameters.copy(),
        )
        for label, trainer in trainers.items()
    }


def run_paper_shape() -> dict:
    """Threaded sequential and population vs sequential at budget 1.

    All three train the paper's full data shape in lock-step rounds.
    Budget 1 is the guards' reference, one core as the module's BLAS
    pin intends: above it the sequential engine trains these clients on
    threads.
    """
    train, test, partitions = _make_data(
        PAPER_MODEL, PAPER_SHAPE_SAMPLES_PER_SERVER
    )
    # Evaluate on the small test split: the row times local training.
    data = (test, test, partitions)
    del train
    paired = _lockstep_rounds(
        {
            "sequential": ("sequential", 1),
            "threaded": ("sequential", None),
            "population": ("population", None),
        },
        data,
        PAPER_SHAPE_PAIRED_ROUNDS,
    )
    seq_rounds, seq_params = paired["sequential"]
    threaded_rounds, threaded_params = paired["threaded"]
    pop_rounds, pop_params = paired["population"]
    row = {
        "participants": HEADLINE_K,
        "epochs": HEADLINE_E,
        "samples_per_server": PAPER_SHAPE_SAMPLES_PER_SERVER,
        "model": "784x10",
        "sequential_cpu_budget": 1,
        "population": {
            "paired_rounds": PAPER_SHAPE_PAIRED_ROUNDS,
            "round_seconds_sequential": seq_rounds,
            "round_seconds_population": pop_rounds,
            "seconds_per_round_sequential": float(np.median(seq_rounds)),
            "seconds_per_round_population": float(np.median(pop_rounds)),
            "ratio_vs_sequential": float(
                np.median(pop_rounds) / np.median(seq_rounds)
            ),
            "max_abs_param_diff": float(
                np.max(np.abs(pop_params - seq_params))
            ),
        },
    }
    threaded = float(np.median(threaded_rounds))
    row["threaded_sequential"] = {
        "paired_rounds": PAPER_SHAPE_PAIRED_ROUNDS,
        "cpu_budget": cpu.cpu_budget(),
        "round_seconds_budget_1": seq_rounds,
        "round_seconds_threaded": threaded_rounds,
        "seconds_per_round_threaded": threaded,
        "ratio_vs_budget_1": threaded / float(np.median(seq_rounds)),
        "max_abs_param_diff": float(
            np.max(np.abs(threaded_params - seq_params))
        ),
        # Recorded, not bounded: the population engine against
        # in-process threads on the same cores.
        "population_over_threaded": float(np.median(pop_rounds)) / threaded,
    }
    population = row["population"]
    threaded_row = row["threaded_sequential"]
    print(
        f"paper shape ({PAPER_SHAPE_SAMPLES_PER_SERVER} samples/server, "
        f"K={HEADLINE_K}, E={HEADLINE_E}, 784x10), lock-step rounds: "
        f"sequential {population['seconds_per_round_sequential']:.2f} "
        f"s/round (budget 1), population "
        f"{population['seconds_per_round_population']:.2f} "
        f"s/round, {population['ratio_vs_sequential']:.2f}x sequential, "
        f"max|dparam| {population['max_abs_param_diff']:.1e}"
    )
    print(
        f"paper shape, lock-step rounds: sequential at budget "
        f"{threaded_row['cpu_budget']} {threaded:.2f} s/round, "
        f"{threaded_row['ratio_vs_budget_1']:.2f}x budget 1, "
        f"max|dparam| {threaded_row['max_abs_param_diff']:.1e}; "
        f"population {threaded_row['population_over_threaded']:.2f}x of it"
    )
    return row


def run_data_generation() -> dict:
    """The paper's split at budget 1 and at the process's own budget.

    After one warm-up each, the sides alternate, and the one that goes
    first rotates every repeat.  Each run's four arrays are hashed.
    """
    sides = {"budget_1": 1, "budget_process": None}
    seconds: dict[str, list[float]] = {label: [] for label in sides}
    digests: set[tuple[str, ...]] = set()

    def generate(label: str) -> float:
        budget = sides[label]
        context = contextlib.nullcontext() if budget is None else _cpu_budget(budget)
        with context:
            started = time.perf_counter()
            train, test = load_synthetic_mnist(DATA_N_TRAIN, DATA_N_TEST, seed=SEED)
            elapsed = time.perf_counter() - started
        digests.add(
            tuple(
                hashlib.sha256(array.tobytes()).hexdigest()
                for array in (train.features, train.labels, test.features, test.labels)
            )
        )
        return elapsed

    labels = list(sides)
    for label in labels:
        generate(label)
    for repeat in range(DATA_PAIRED_REPEATS):
        shift = repeat % len(labels)
        for label in labels[shift:] + labels[:shift]:
            seconds[label].append(generate(label))
    serial = float(np.median(seconds["budget_1"]))
    beside = float(np.median(seconds["budget_process"]))
    row = {
        "n_train": DATA_N_TRAIN,
        "n_test": DATA_N_TEST,
        "paired_repeats": DATA_PAIRED_REPEATS,
        "cpu_budget": cpu.cpu_budget(),
        "seconds_budget_1": seconds["budget_1"],
        "seconds_budget_process": seconds["budget_process"],
        "median_s_budget_1": serial,
        "median_s_budget_process": beside,
        # Recorded, not bounded.
        "ratio_vs_budget_1": beside / serial,
        "arrays_identical": len(digests) == 1,
    }
    print(
        f"data generation ({DATA_N_TRAIN} + {DATA_N_TEST}): budget 1 "
        f"{serial:.3f} s, budget {row['cpu_budget']} {beside:.3f} s, "
        f"{row['ratio_vs_budget_1']:.2f}x, "
        f"identical={row['arrays_identical']}"
    )
    return row


def _campaign_spec() -> CampaignSpec:
    base = RunSpec(
        name="bench-parallel",
        n_train=CAMPAIGN_N_TRAIN,
        n_test=CAMPAIGN_N_TEST,
        n_servers=CAMPAIGN_N_SERVERS,
        max_rounds=CAMPAIGN_MAX_ROUNDS,
        train_to_target=False,
        seed=SEED,
    )
    return CampaignSpec(
        name="bench-parallel",
        base=base,
        participants=CAMPAIGN_K,
        epochs=CAMPAIGN_E,
    )


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


def run_campaign_level(workdir: Path) -> dict:
    """Sequential vs ``jobs=4`` campaign, byte identity certified."""
    campaign = _campaign_spec()
    # Warm dataset/import caches so the first timed pass is fair.
    warm = CampaignRunner(campaign, ArtifactStore(workdir / "warm"))
    warm.run_unit(warm.units[0])

    seq_root = workdir / "sequential"
    started = time.perf_counter()
    summary = CampaignRunner(campaign, ArtifactStore(seq_root)).run()
    seq_s = time.perf_counter() - started
    assert summary.executed == len(campaign)

    par_root = workdir / "parallel"
    started = time.perf_counter()
    summary = CampaignRunner(campaign, ArtifactStore(par_root)).run(
        jobs=CAMPAIGN_JOBS
    )
    par_s = time.perf_counter() - started
    assert summary.executed == len(campaign)

    row = {
        "units": len(campaign),
        "jobs": CAMPAIGN_JOBS,
        "seconds_sequential": seq_s,
        "seconds_parallel": par_s,
        "speedup_parallel": seq_s / par_s,
        "stores_byte_identical": _store_digest(seq_root)
        == _store_digest(par_root),
    }
    print(
        f"campaign ({row['units']} units, jobs={CAMPAIGN_JOBS}): "
        f"{row['speedup_parallel']:.2f}x, "
        f"byte-identical={row['stores_byte_identical']}"
    )
    return row


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    out_path = Path(args[0]) if args else Path("BENCH_parallel.json")
    cpus = _available_cpus()
    cpu_limited = cpus < CAMPAIGN_JOBS
    print(f"available cpus: {cpus} (cpu_limited={cpu_limited})")

    paper_shape = run_paper_shape()
    data_generation = run_data_generation()
    workdir = Path(tempfile.mkdtemp(prefix="bench_parallel_"))
    try:
        campaign = run_campaign_level(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    payload = {
        "benchmark": "parallel",
        "available_cpus": cpus,
        "cpu_limited": cpu_limited,
        "paper_shape": paper_shape,
        "data_generation": data_generation,
        "campaign_parallel": campaign,
        "thresholds": {
            "accept_parallel_speedup": ACCEPT_PARALLEL_SPEEDUP,
            "accept_population_round_ratio": ACCEPT_POPULATION_ROUND_RATIO,
            "accept_population_atol": ACCEPT_POPULATION_ATOL,
            "min_bounded_speedup": MIN_BOUNDED_SPEEDUP,
            "campaign_jobs": CAMPAIGN_JOBS,
        },
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")

    failures = []
    # Determinism guards: unconditional.
    threaded = paper_shape["threaded_sequential"]
    if threaded["max_abs_param_diff"] != 0.0:
        failures.append(
            f"sequential at CPU budget {threaded['cpu_budget']} diverged "
            "from budget 1 at the paper shape (max|dparam| = "
            f"{threaded['max_abs_param_diff']:.2e}, must be 0)"
        )
    population = paper_shape["population"]
    if population["max_abs_param_diff"] > ACCEPT_POPULATION_ATOL:
        failures.append(
            "population backend diverged from sequential at the paper "
            f"shape (max|dparam| = {population['max_abs_param_diff']:.2e}, "
            f"must be <= {ACCEPT_POPULATION_ATOL:.0e})"
        )
    if population["ratio_vs_sequential"] > ACCEPT_POPULATION_ROUND_RATIO:
        failures.append(
            f"population takes {population['ratio_vs_sequential']:.2f}x "
            "sequential's seconds per round at the paper shape (ceiling "
            f"{ACCEPT_POPULATION_ROUND_RATIO:.2f}x)"
        )
    if not data_generation["arrays_identical"]:
        failures.append(
            "load_synthetic_mnist's arrays differ between CPU budget 1 and "
            f"budget {data_generation['cpu_budget']}"
        )
    if not campaign["stores_byte_identical"]:
        failures.append(
            "parallel campaign store is not byte-identical to sequential"
        )
    # Speed guard: the acceptance threshold where the cores exist, a
    # bounded-overhead floor everywhere.
    parallel_threshold = (
        ACCEPT_PARALLEL_SPEEDUP
        if cpus >= CAMPAIGN_JOBS
        else MIN_BOUNDED_SPEEDUP
    )
    if campaign["speedup_parallel"] < parallel_threshold:
        failures.append(
            f"parallel campaign speedup {campaign['speedup_parallel']:.2f}x "
            f"below {parallel_threshold:.2f}x threshold ({cpus} cpus)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
