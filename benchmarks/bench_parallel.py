"""Two-level parallel-runtime benchmark: pool engine + campaign jobs.

Measures both layers of the parallel execution runtime against their
sequential references and certifies the determinism contract alongside
the timings:

* **engine level** — the persistent-worker pool backend vs the
  sequential engine at the paper headline (K=20, E=16, 784x10 model),
  with ``max_abs_param_diff`` (must be exactly 0);
* **campaign level** — an 8-unit (K, E) grid run with ``jobs=4`` vs the
  sequential runner, with whole-store byte identity (unit files must
  hash identically and the index digests must be equal);
* **paper shape** — pool vs sequential at the paper's full data shape
  (3 000 samples per server, K=20, E=16, 784x10), the row behind the
  decision to keep the pool engine; and population vs sequential on
  the same data, in lock-step rounds, the row behind ``auto``'s pick
  of the population engine at this shape (max |dparam| <= 1e-10 and
  at most 1.05x sequential's seconds per round);
* **break-even sweep** — pool speedup across model sizes and epoch
  counts, reporting the measured (K, E, model) crossover where the pool
  starts to pay and its ``K * E * d`` work, which is the
  ``POOL_MIN_WORK`` constant ``backend="auto"`` uses in
  ``repro.fl.engine``.

Speed guards are CPU-aware: the acceptance thresholds (pool >= 1.5x at
the paper shape, parallel campaign >= 2.0x at 4 jobs) are physically
impossible without multiple cores, so they are enforced only when the container grants
enough CPUs; on smaller boxes the guard degrades to a bounded-overhead
floor and the JSON records ``cpu_limited: true``.  The determinism
guards (param diff 0, store byte identity) are enforced unconditionally
— parallelism must never change results, whatever the core count.

Writes ``BENCH_parallel.json`` and exits non-zero on any guard failure.

Not a pytest benchmark (no ``test_`` prefix — the timings are a
tracking artifact, not an assertion):

Run:  python benchmarks/bench_parallel.py [output.json]
"""

from __future__ import annotations

import os

# One BLAS thread per process, as benchmarks/e2e pins it: the pool's gain
# is process-level parallelism, and a multi-threaded BLAS would let the
# sequential baseline occupy the same cores.  Must run before numpy loads.
for _blas_threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_blas_threads, "1")

import hashlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.campaign import ArtifactStore, CampaignRunner, CampaignSpec, RunSpec
from repro.data.dataset import Dataset
from repro.fl.model import LogisticRegressionConfig
from repro.fl.partition import partition_iid
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients

SEED = 0
N_SERVERS = 20

# Engine-level headline: the paper model at the paper's largest cell.
HEADLINE_K = 20
HEADLINE_E = 16
HEADLINE_ROUNDS = 10
WARMUP_ROUNDS = 2
PAPER_MODEL = LogisticRegressionConfig(n_features=784, n_classes=10)
PAPER_SAMPLES_PER_SERVER = 100

# Paper shape: the prototype's 60k samples over 20 servers.
PAPER_SHAPE_SAMPLES_PER_SERVER = 3_000
PAPER_SHAPE_ROUNDS = 3
# Population vs sequential: rounds alternate between the two trainers,
# so host drift hits both sides alike; the medians are compared.
PAPER_SHAPE_PAIRED_ROUNDS = 5
ACCEPT_POPULATION_ROUND_RATIO = 1.05  # population / sequential s/round
ACCEPT_POPULATION_ATOL = 1e-10

# Campaign-level: the same 8-unit demo grid bench_campaign.py uses.
CAMPAIGN_N_SERVERS = 8
CAMPAIGN_N_TRAIN = 800
CAMPAIGN_N_TEST = 200
CAMPAIGN_MAX_ROUNDS = 10
CAMPAIGN_K = (1, 2, 4, 8)
CAMPAIGN_E = (1, 4)
CAMPAIGN_JOBS = 4

# Break-even sweep: where does the pool start to pay?
SWEEP_MODELS = (
    ("32x5", LogisticRegressionConfig(n_features=32, n_classes=5), 30),
    ("256x10", LogisticRegressionConfig(n_features=256, n_classes=10), 60),
    ("784x10", PAPER_MODEL, PAPER_SAMPLES_PER_SERVER),
)
SWEEP_E = (1, 4, 16)
SWEEP_K = 20
SWEEP_ROUNDS = 4

# CPU-aware guard thresholds.
ACCEPT_POOL_SPEEDUP = 1.5  # enforced when cpus >= POOL_CPU_FLOOR
ACCEPT_PARALLEL_SPEEDUP = 2.0  # enforced when cpus >= CAMPAIGN_JOBS
POOL_CPU_FLOOR = 2
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


def _timed_run(
    backend: str,
    model: LogisticRegressionConfig,
    data,
    participants: int,
    epochs: int,
    rounds: int,
    warmup_rounds: int = WARMUP_ROUNDS,
) -> tuple[float, np.ndarray]:
    trainer = _trainer(
        backend, model, data, participants, epochs, warmup_rounds + rounds
    )
    try:
        for _ in range(warmup_rounds):
            trainer.run_round()
        started = time.perf_counter()
        for _ in range(rounds):
            trainer.run_round()
        elapsed = time.perf_counter() - started
        return elapsed, trainer.coordinator.global_parameters.copy()
    finally:
        trainer.close()


def run_engine_level() -> dict:
    """Pool vs sequential at the paper headline, identity certified."""
    data = _make_data(PAPER_MODEL, PAPER_SAMPLES_PER_SERVER)
    seq_s, seq_params = _timed_run(
        "sequential", PAPER_MODEL, data, HEADLINE_K, HEADLINE_E,
        HEADLINE_ROUNDS,
    )
    pool_s, pool_params = _timed_run(
        "pool", PAPER_MODEL, data, HEADLINE_K, HEADLINE_E, HEADLINE_ROUNDS
    )
    max_diff = float(np.max(np.abs(pool_params - seq_params)))
    row = {
        "participants": HEADLINE_K,
        "epochs": HEADLINE_E,
        "rounds": HEADLINE_ROUNDS,
        "model": "784x10",
        "seconds_sequential": seq_s,
        "seconds_pool": pool_s,
        "speedup_pool": seq_s / pool_s,
        "max_abs_param_diff": max_diff,
    }
    print(
        f"engine headline (K={HEADLINE_K}, E={HEADLINE_E}, 784x10): "
        f"pool {row['speedup_pool']:.2f}x, max|dparam| {max_diff:.1e}"
    )
    return row


def _lockstep_rounds(
    backends: tuple[str, str], data, rounds: int
) -> dict[str, tuple[list[float], np.ndarray]]:
    """Per-round seconds and final parameters of two trainers in turn.

    After one warm-up round each, the two trainers alternate rounds,
    and the one that goes first swaps every round.
    """
    trainers = {
        backend: _trainer(
            backend, PAPER_MODEL, data, HEADLINE_K, HEADLINE_E, rounds + 1
        )
        for backend in backends
    }
    seconds: dict[str, list[float]] = {backend: [] for backend in backends}
    try:
        for trainer in trainers.values():
            trainer.run_round()
        for round_index in range(rounds):
            order = backends if round_index % 2 == 0 else backends[::-1]
            for backend in order:
                started = time.perf_counter()
                trainers[backend].run_round()
                seconds[backend].append(time.perf_counter() - started)
        return {
            backend: (
                seconds[backend],
                trainer.coordinator.global_parameters.copy(),
            )
            for backend, trainer in trainers.items()
        }
    finally:
        for trainer in trainers.values():
            trainer.close()


def run_paper_shape() -> dict:
    """Pool and population vs sequential at the paper's full data shape."""
    train, test, partitions = _make_data(
        PAPER_MODEL, PAPER_SHAPE_SAMPLES_PER_SERVER
    )
    # Evaluate on the small test split: the row times local training.
    data = (test, test, partitions)
    del train
    timings = {}
    params = {}
    for backend in ("sequential", "pool"):
        timings[backend], params[backend] = _timed_run(
            backend, PAPER_MODEL, data, HEADLINE_K, HEADLINE_E,
            PAPER_SHAPE_ROUNDS, warmup_rounds=1,
        )
    paired = _lockstep_rounds(
        ("sequential", "population"), data, PAPER_SHAPE_PAIRED_ROUNDS
    )
    seq_rounds, seq_params = paired["sequential"]
    pop_rounds, pop_params = paired["population"]
    row = {
        "participants": HEADLINE_K,
        "epochs": HEADLINE_E,
        "samples_per_server": PAPER_SHAPE_SAMPLES_PER_SERVER,
        "rounds": PAPER_SHAPE_ROUNDS,
        "model": "784x10",
        "seconds_per_round_sequential": timings["sequential"]
        / PAPER_SHAPE_ROUNDS,
        "seconds_per_round_pool": timings["pool"] / PAPER_SHAPE_ROUNDS,
        "speedup_pool": timings["sequential"] / timings["pool"],
        "max_abs_param_diff": float(
            np.max(np.abs(params["pool"] - params["sequential"]))
        ),
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
    population = row["population"]
    print(
        f"paper shape ({PAPER_SHAPE_SAMPLES_PER_SERVER} samples/server, "
        f"K={HEADLINE_K}, E={HEADLINE_E}, 784x10): "
        f"sequential {row['seconds_per_round_sequential']:.2f} s/round, "
        f"pool {row['seconds_per_round_pool']:.2f} s/round, "
        f"{row['speedup_pool']:.2f}x, "
        f"max|dparam| {row['max_abs_param_diff']:.1e}"
    )
    print(
        f"paper shape, lock-step rounds: sequential "
        f"{population['seconds_per_round_sequential']:.2f} s/round, "
        f"population {population['seconds_per_round_population']:.2f} "
        f"s/round, {population['ratio_vs_sequential']:.2f}x sequential, "
        f"max|dparam| {population['max_abs_param_diff']:.1e}"
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


def run_break_even() -> dict:
    """Pool speedup across model sizes/epochs; where does it cross 1x?"""
    rows = []
    for label, model, samples in SWEEP_MODELS:
        data = _make_data(model, samples)
        for epochs in SWEEP_E:
            seq_s, _ = _timed_run(
                "sequential", model, data, SWEEP_K, epochs, SWEEP_ROUNDS
            )
            pool_s, _ = _timed_run(
                "pool", model, data, SWEEP_K, epochs, SWEEP_ROUNDS
            )
            speedup = seq_s / pool_s
            rows.append(
                {
                    "model": label,
                    "participants": SWEEP_K,
                    "epochs": epochs,
                    "work": SWEEP_K * epochs * model.n_features,
                    "seconds_per_round_sequential": seq_s / SWEEP_ROUNDS,
                    "seconds_per_round_pool": pool_s / SWEEP_ROUNDS,
                    "speedup_pool": speedup,
                }
            )
            print(
                f"break-even sweep {label} K={SWEEP_K} E={epochs:2d}: "
                f"pool {speedup:.2f}x"
            )
    # The work proxy K*E*d ignores n and dispatch costs, so speedup is
    # not monotone in it: the crossover is the smallest profitable work
    # above which *every* measured row is profitable.
    crossover = None
    for row in sorted(rows, key=lambda r: r["work"], reverse=True):
        if row["speedup_pool"] < 1.0:
            break
        crossover = {
            key: row[key] for key in ("model", "participants", "epochs", "work")
        }
    if crossover is None:
        print("pool crossover work: none (the pool never paid)")
    else:
        print(
            f"pool crossover work K*E*d = {crossover['work']} "
            "(POOL_MIN_WORK in repro.fl.engine)"
        )
    return {"rows": rows, "first_crossover": crossover}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    out_path = Path(args[0]) if args else Path("BENCH_parallel.json")
    cpus = _available_cpus()
    cpu_limited = cpus < max(POOL_CPU_FLOOR, CAMPAIGN_JOBS)
    print(f"available cpus: {cpus} (cpu_limited={cpu_limited})")

    engine = run_engine_level()
    paper_shape = run_paper_shape()
    workdir = Path(tempfile.mkdtemp(prefix="bench_parallel_"))
    try:
        campaign = run_campaign_level(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    break_even = run_break_even()

    payload = {
        "benchmark": "parallel",
        "available_cpus": cpus,
        "cpu_limited": cpu_limited,
        "engine_headline": engine,
        "paper_shape": paper_shape,
        "campaign_parallel": campaign,
        "break_even": break_even,
        "thresholds": {
            "accept_pool_speedup": ACCEPT_POOL_SPEEDUP,
            "accept_parallel_speedup": ACCEPT_PARALLEL_SPEEDUP,
            "accept_population_round_ratio": ACCEPT_POPULATION_ROUND_RATIO,
            "accept_population_atol": ACCEPT_POPULATION_ATOL,
            "min_bounded_speedup": MIN_BOUNDED_SPEEDUP,
            "pool_cpu_floor": POOL_CPU_FLOOR,
            "campaign_jobs": CAMPAIGN_JOBS,
        },
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")

    failures = []
    # Determinism guards: unconditional.
    for label, row in (("headline", engine), ("paper shape", paper_shape)):
        if row["max_abs_param_diff"] != 0.0:
            failures.append(
                f"pool backend diverged from sequential at the {label} "
                f"(max|dparam| = {row['max_abs_param_diff']:.2e}, must be 0)"
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
    if not campaign["stores_byte_identical"]:
        failures.append(
            "parallel campaign store is not byte-identical to sequential"
        )
    # Speed guards: acceptance thresholds where the cores exist,
    # bounded-overhead floors everywhere.
    pool_threshold = (
        ACCEPT_POOL_SPEEDUP if cpus >= POOL_CPU_FLOOR else MIN_BOUNDED_SPEEDUP
    )
    # The acceptance bar applies to the paper's own data shape; the
    # 100-sample headline is too little work per round to amortise IPC
    # on two cores, so it only has to clear the bounded floor.
    if paper_shape["speedup_pool"] < pool_threshold:
        failures.append(
            f"pool speedup {paper_shape['speedup_pool']:.2f}x at the paper "
            f"shape below {pool_threshold:.2f}x threshold ({cpus} cpus)"
        )
    if engine["speedup_pool"] < MIN_BOUNDED_SPEEDUP:
        failures.append(
            f"pool speedup {engine['speedup_pool']:.2f}x at the headline "
            f"below the {MIN_BOUNDED_SPEEDUP:.2f}x floor"
        )
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
