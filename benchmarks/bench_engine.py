"""Execution-engine benchmark: sequential vs batched vs pool speedups.

Times the three :mod:`repro.fl.engine` backends over the ISSUE grid
(K ∈ {1, 5, 10, 20}, E ∈ {1, 4, 16}) at prototype scale — the reduced
20-server testbed the test suite runs, with an edge-IoT-sized model
(32 features, 5 classes, ~30 samples per server) whose per-client
kernels are small enough that Python dispatch, not BLAS, dominates the
sequential path.  That is the regime the batched backend exists for;
a paper-sized model row (784x10, BLAS-bound) is included for contrast.

Writes ``BENCH_engine.json`` and exits non-zero if the batched backend
is slower than sequential on the K=20, E=16 headline run (50 timed
rounds), guarding against performance regressions.  The headline also
records the max |param| difference between backends so the speedup and
the ``atol=1e-10`` equivalence are certified by the same artifact.

The paper-sized row also pins the dtype contract: datasets store float32
features while the model computes in float64, and each matrix must be
widened once by its owner, never inside every matmul.  The row times the
sequential backend on the same data stored as float32, round by round
alternated with float64, and fails if float32 is more than
``MAX_FLOAT32_RATIO`` slower (at ``DTYPE_SAMPLES_PER_SERVER``; see there).

The ``gemm_orientation`` row pins the kernels' GEMM orientation: 16
full-batch ``forward_backward`` epochs on one paper-shaped partition
(3 000 x 784, float32 widened once, with its ``features_t``) against the
same epochs written inline as the naive two matmuls, alternated.  It
fails if the parameters differ by a bit or the model's epochs take more
than ``MAX_GEMM_ORIENTATION_RATIO`` of the naive ones.

The ``evaluation`` row times one training-loss evaluation of a float32
evaluation set (``EVALUATION_ROWS`` x 784, build included) in the three
layouts :func:`repro.fl.model.evaluation_rows` chooses between: the
stored rows streamed through ``loss`` in widened row blocks, the held
transpose, and one widened float64 copy, at a CPU budget of 1 and of 2
(:mod:`repro.perf.cpu`, forced through its private BLAS-thread reader).
Each layout's peak-RSS growth is measured in a fresh child process.  It fails if the layouts' losses
or accuracies differ by a bit, or if a streamed evaluation takes longer
than a widened one; it records from which evaluation the held
transpose's build pays for itself (``_HELD_TRANSPOSE_MIN_EVALUATIONS``).

The paper-sized contrast row also times the persistent-worker pool
backend against sequential in lock-step: both trainers stay alive, each
repeat times ``GRID_ROUNDS`` rounds of one and then of the other, the
first mover swaps every repeat, and the guard reads the median of the
per-repeat speedups (one round is only ~0.05 s of work, too little for a
single back-to-back ratio to be stable).  The guard is CPU-aware: with
multiple cores the pool must beat sequential by the acceptance margin;
on a single-core container (where a speedup is physically impossible)
the guard degrades to a bounded-overhead floor and the row records
``cpu_limited: true``.
``benchmarks/bench_parallel.py`` owns the full two-level parallel
acceptance run.

Not a pytest benchmark (no ``test_`` prefix — the timings are a
tracking artifact, not an assertion):

Run:  python benchmarks/bench_engine.py [output.json]
"""

from __future__ import annotations

import os

# One BLAS thread per process, as benchmarks/e2e pins it: the pool's gain
# is process-level parallelism, and a multi-threaded BLAS would let the
# sequential baseline occupy the same cores.  Must run before numpy loads.
for _blas_threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_blas_threads, "1")

import contextlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.model import (
    _HELD_TRANSPOSE_MIN_EVALUATIONS,
    LogisticRegressionConfig,
    evaluation_rows,
    softmax,
    transpose_for_backward,
)
from repro.fl.partition import partition_iid
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients
from repro.perf import cpu

N_SERVERS = 20
SEED = 0
BACKENDS = ("sequential", "batched", "pool")
K_VALUES = (1, 5, 10, 20)
E_VALUES = (1, 4, 16)
GRID_ROUNDS = 10
WARMUP_ROUNDS = 2

# Headline / CI-guard cell: K=20, E=16, 50 timed rounds, best of 3.
HEADLINE_K = 20
HEADLINE_E = 16
HEADLINE_ROUNDS = 50
HEADLINE_REPS = 3

# Prototype scale: every edge server holds a small IoT-style dataset, so
# one client's forward/backward is microseconds of BLAS and the
# sequential loop's time is mostly interpreter dispatch.
IOT_MODEL = LogisticRegressionConfig(n_features=32, n_classes=5)
IOT_SAMPLES_PER_SERVER = 30

# Paper-sized contrast row: 784x10 kernels are BLAS-bound, so batching
# across clients cannot beat the per-client loop by much on one core.
PAPER_MODEL = LogisticRegressionConfig(n_features=784, n_classes=10)
PAPER_SAMPLES_PER_SERVER = 100

# Pool guard thresholds (paper contrast row): the acceptance speedup
# applies when the cores exist; otherwise only bounded overhead is
# enforceable.
ACCEPT_POOL_SPEEDUP = 1.5
MIN_BOUNDED_POOL_SPEEDUP = 0.5
POOL_CPU_FLOOR = 2
POOL_REPEATS = 7

# Dtype-contract guard (paper row): float32-stored features may cost at
# most this much more per round than float64 ones.  Timed at 1 000
# samples per server, where widening inside every matmul costs ~1.5x.
# At the row's 100 samples BLAS takes its small-matrix kernels, whose
# summation order depends on operand layout; keeping the float32 path's
# bits then needs the slower layout, ~1.1x whoever widens, which no
# 1.10 bound can separate from noise.
MAX_FLOAT32_RATIO = 1.10
DTYPE_SAMPLES_PER_SERVER = 1_000
DTYPE_ROUNDS = 10

# GEMM-orientation guard: the model's full-batch epochs at the paper's
# partition shape may take at most this share of the naive two-matmul
# epochs (measured 0.70x on one BLAS thread).
MAX_GEMM_ORIENTATION_RATIO = 0.85
GEMM_ROWS = 3_000
GEMM_EPOCHS = 16
GEMM_PAIRS = 10
GEMM_LEARNING_RATE = 0.01

# Evaluation-layout row: one loss evaluation of a float32 set of each
# size, alternated over the layouts for EVALUATION_PAIRS rounds.
EVALUATION_ROWS = (20_000, 40_000, 60_000)
EVALUATION_PAIRS = 5
EVALUATION_LAYOUTS = ("streamed", "held", "widened")
EVALUATION_BUDGETS = (1, 2)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _linear_task(n: int, model: LogisticRegressionConfig, seed: int) -> Dataset:
    """A noisy linear task at the model's dimensions."""
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


def _narrow(dataset: Dataset) -> Dataset:
    """The same dataset with its features stored as float32."""
    return Dataset(
        dataset.features.astype(np.float32), dataset.labels, dataset.n_classes
    )


def _as_float32(data):
    """The same datasets with their features stored as float32."""
    train, test, partitions = data
    return _narrow(train), _narrow(test), [_narrow(p) for p in partitions]


def run_dtype_contract(data, model: LogisticRegressionConfig) -> dict:
    """Sequential s/round on float64 vs float32-stored features.

    Two trainers, one per dtype, run their rounds alternately, so drift
    in the host's speed hits both alike; the ratio is the median of the
    per-pair ratios.
    """
    variants = {"float64": data, "float32": _as_float32(data)}
    trainers = {
        name: _trainer("sequential", model, variant, HEADLINE_K, HEADLINE_E)
        for name, variant in variants.items()
    }
    times: dict[str, list[float]] = {name: [] for name in variants}
    try:
        for _ in range(WARMUP_ROUNDS):
            for trainer in trainers.values():
                trainer.run_round()
        for _ in range(DTYPE_ROUNDS):
            for name, trainer in trainers.items():
                started = time.perf_counter()
                trainer.run_round()
                times[name].append(time.perf_counter() - started)
    finally:
        for trainer in trainers.values():
            trainer.close()
    ratios = [b / a for a, b in zip(times["float64"], times["float32"])]
    return {
        "samples_per_server": DTYPE_SAMPLES_PER_SERVER,
        "rounds": DTYPE_ROUNDS,
        "sequential_seconds_per_round_median": {
            name: statistics.median(values) for name, values in times.items()
        },
        "float32_over_float64": statistics.median(ratios),
        "max_float32_ratio": MAX_FLOAT32_RATIO,
    }


def _naive_epochs(
    features: np.ndarray,
    features_t: np.ndarray,
    labels: np.ndarray,
    params: np.ndarray,
    model: LogisticRegressionConfig,
) -> np.ndarray:
    """The client's epochs as ``features @ W`` and ``features_t @ probs``."""
    n = features.shape[0]
    rows = np.arange(n)
    n_weights = model.n_features * model.n_classes
    for _ in range(GEMM_EPOCHS):
        weights = params[:n_weights].reshape(model.n_features, model.n_classes)
        probs = softmax(features @ weights + params[n_weights:])
        # The loss forward_backward also returns, so both sides do it.
        np.mean(np.log(np.maximum(probs[rows, labels], 1e-12)))
        probs[rows, labels] -= 1.0
        grad_w = features_t @ probs / n
        grad_b = probs.sum(axis=0) / n
        gradient = np.concatenate([grad_w.ravel(), grad_b])
        params = params - GEMM_LEARNING_RATE * gradient
    return params


def _model_epochs(
    features: np.ndarray,
    features_t: np.ndarray,
    labels: np.ndarray,
    params: np.ndarray,
    model: LogisticRegressionConfig,
) -> np.ndarray:
    """The same epochs through ``forward_backward``, as the client runs them."""
    kernel = model.build()
    for _ in range(GEMM_EPOCHS):
        kernel.set_parameters(params, copy=False)
        _, gradient = kernel.forward_backward(features, labels, features_t)
        params = params - GEMM_LEARNING_RATE * gradient
    return params


def run_gemm_orientation(model: LogisticRegressionConfig) -> dict:
    """Model epochs vs naive-matmul epochs on one paper-shaped partition.

    The two run alternately, so drift in the host's speed hits both
    alike; the ratio is the median of the per-pair ratios.
    """
    stored = _narrow(_linear_task(GEMM_ROWS, model, seed=SEED))
    data = stored.widened()
    features_t = transpose_for_backward(stored.features)
    start = np.zeros(model.n_parameters)
    variants = {"naive": _naive_epochs, "model": _model_epochs}
    times: dict[str, list[float]] = {name: [] for name in variants}
    params = {}
    for _ in range(GEMM_PAIRS):
        for name, epochs in variants.items():
            started = time.perf_counter()
            params[name] = epochs(
                data.features, features_t, data.labels, start, model
            )
            times[name].append(time.perf_counter() - started)
    ratios = [b / a for a, b in zip(times["naive"], times["model"])]
    return {
        "rows": GEMM_ROWS,
        "epochs": GEMM_EPOCHS,
        "pairs": GEMM_PAIRS,
        "seconds_median": {
            name: statistics.median(values) for name, values in times.items()
        },
        "model_over_naive": statistics.median(ratios),
        "max_model_over_naive": MAX_GEMM_ORIENTATION_RATIO,
        "identical_parameters": bool(
            np.array_equal(params["model"], params["naive"])
        ),
    }


def _evaluation_set(n: int, model: LogisticRegressionConfig):
    rng = np.random.default_rng(n)
    features = rng.random((n, model.n_features), dtype=np.float32)
    labels = rng.integers(0, model.n_classes, size=n)
    kernel = model.build()
    kernel.set_parameters(rng.normal(scale=0.05, size=model.n_parameters))
    return kernel, features, labels


def _evaluation_layout(
    layout: str, features: np.ndarray, model: LogisticRegressionConfig
) -> np.ndarray:
    """The rows one evaluation scores: ``evaluation_rows``'s layout for a
    run too short to hold a transpose ("streamed") or long enough
    ("held"), or one widened float64 copy ("widened")."""
    if layout == "widened":
        return features.astype(np.float64)
    held = layout == "held"
    return evaluation_rows(
        features, model, _HELD_TRANSPOSE_MIN_EVALUATIONS if held else 1
    )


def _rss_high_water_bytes() -> int:
    """This process's peak RSS: Linux's ``VmHWM``, which, unlike
    ``ru_maxrss``, does not start from the parent's RSS at ``fork``."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


@contextlib.contextmanager
def _cpu_budget(budget: int):
    """Run at CPU budget ``budget`` by what the BLAS reader reports:
    ``None`` (unknown) gives 1, a ``1/budget`` share of the CPUs gives
    ``budget`` on a mask of ``budget`` CPUs."""
    reader = cpu._blas_threads
    cpu._blas_threads = (
        (lambda: None) if budget == 1 else (lambda: cpu.cpu_share() // budget)
    )
    try:
        yield cpu.cpu_budget()
    finally:
        cpu._blas_threads = reader


def evaluation_child(n: int, layout: str, budget: int) -> dict:
    """One evaluation in this (fresh) process: its peak-RSS growth."""
    kernel, features, labels = _evaluation_set(n, PAPER_MODEL)
    before = _rss_high_water_bytes()
    with _cpu_budget(budget):
        kernel.loss(_evaluation_layout(layout, features, PAPER_MODEL), labels)
    return {"rss_growth_bytes": _rss_high_water_bytes() - before}


def run_evaluation_layouts(model: LogisticRegressionConfig) -> list[dict]:
    """Per CPU budget and size: seconds per one-shot evaluation of each
    layout, build included, and of an evaluation on held rows already
    built."""
    rows = []
    for budget in EVALUATION_BUDGETS:
        for n in EVALUATION_ROWS:
            with _cpu_budget(budget) as actual:
                row = _evaluation_row(model, n, budget)
            row["cpu_budget"] = actual
            rows.append(row)
    return rows


def _evaluation_row(
    model: LogisticRegressionConfig, n: int, budget: int
) -> dict:
    kernel, features, labels = _evaluation_set(n, model)
    times: dict[str, list[float]] = {
        name: [] for name in (*EVALUATION_LAYOUTS, "held_built")
    }
    results = {}
    for pair in range(EVALUATION_PAIRS):
        order = EVALUATION_LAYOUTS[:: 1 if pair % 2 else -1]
        for layout in order:
            started = time.perf_counter()
            evaluated = _evaluation_layout(layout, features, model)
            loss = kernel.loss(evaluated, labels)
            times[layout].append(time.perf_counter() - started)
            if layout == "held":
                started = time.perf_counter()
                kernel.loss(evaluated, labels)
                times["held_built"].append(time.perf_counter() - started)
            results[layout] = (loss, kernel.accuracy(evaluated, labels))
            del evaluated
    seconds = {name: statistics.median(v) for name, v in times.items()}
    # Held rows pay from the evaluation at which their build plus
    # each evaluation on them costs no more than streaming every one.
    build = seconds["held"] - seconds["held_built"]
    saved = seconds["streamed"] - seconds["held_built"]
    growth = {}
    for layout in EVALUATION_LAYOUTS:
        child = subprocess.run(
            [
                sys.executable,
                __file__,
                "--evaluation-child",
                str(n),
                layout,
                str(budget),
            ],
            check=True,
            capture_output=True,
            text=True,
        )
        growth[layout] = json.loads(child.stdout.splitlines()[-1])[
            "rss_growth_bytes"
        ]
    row = {
        "rows": n,
        "pairs": EVALUATION_PAIRS,
        "seconds_median": seconds,
        "rss_growth_bytes": growth,
        "streamed_over_widened": statistics.median(
            s / w for s, w in zip(times["streamed"], times["widened"])
        ),
        "held_pays_from_evaluations": (
            math.ceil(build / saved) if saved > 0 else None
        ),
        "identical_results": len(set(results.values())) == 1,
        "loss_accuracy": list(results["held"]),
    }
    print(
        f"  budget {budget}, {n:,d} rows: "
        + ", ".join(
            f"{name} {value * 1000:.0f} ms"
            for name, value in seconds.items()
        )
        + "; RSS growth "
        + ", ".join(
            f"{name} {value / 2**20:.0f} MiB"
            for name, value in growth.items()
        )
        + f"; held pays from evaluation {row['held_pays_from_evaluations']}"
    )
    return row


def _trainer(
    backend: str,
    model: LogisticRegressionConfig,
    data,
    participants: int,
    epochs: int,
    rounds: int = 1_000,
) -> FederatedTrainer:
    train, test, partitions = data
    return FederatedTrainer(
        clients=build_clients(partitions, model),
        config=FederatedConfig(
            n_rounds=rounds,
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
) -> tuple[float, np.ndarray]:
    """Train ``warmup + rounds`` rounds; return (timed seconds, params)."""
    trainer = _trainer(
        backend, model, data, participants, epochs, WARMUP_ROUNDS + rounds
    )
    try:
        for _ in range(WARMUP_ROUNDS):
            trainer.run_round()
        started = time.perf_counter()
        for _ in range(rounds):
            trainer.run_round()
        elapsed = time.perf_counter() - started
        return elapsed, trainer.coordinator.global_parameters.copy()
    finally:
        trainer.close()


def run_grid(data, model: LogisticRegressionConfig) -> list[dict]:
    rows = []
    for participants in K_VALUES:
        for epochs in E_VALUES:
            timings = {}
            for backend in BACKENDS:
                elapsed, _ = _timed_run(
                    backend, model, data, participants, epochs, GRID_ROUNDS
                )
                timings[backend] = elapsed / GRID_ROUNDS
            row = {
                "participants": participants,
                "epochs": epochs,
                "rounds": GRID_ROUNDS,
                "seconds_per_round": timings,
                "speedup_batched": timings["sequential"] / timings["batched"],
                "speedup_pool": timings["sequential"] / timings["pool"],
            }
            rows.append(row)
            print(
                f"K={participants:2d} E={epochs:2d}: "
                f"seq {timings['sequential'] * 1000:7.2f} ms/round, "
                f"batched {row['speedup_batched']:5.2f}x, "
                f"pool {row['speedup_pool']:5.2f}x"
            )
    return rows


def run_pool_lockstep(
    data, model: LogisticRegressionConfig
) -> tuple[dict[str, list[float]], dict[str, np.ndarray]]:
    """Seconds per round of sequential and pool, repeat by repeat.

    Both trainers warm up, then each repeat times ``GRID_ROUNDS`` rounds
    of one backend and then of the other; which goes first swaps every
    repeat.  Returns the per-repeat seconds per round and the final
    parameters of each backend.
    """
    backends = ("sequential", "pool")
    rounds = WARMUP_ROUNDS + POOL_REPEATS * GRID_ROUNDS
    trainers = {
        backend: _trainer(
            backend, model, data, HEADLINE_K, HEADLINE_E, rounds
        )
        for backend in backends
    }
    seconds: dict[str, list[float]] = {backend: [] for backend in backends}
    try:
        for trainer in trainers.values():
            for _ in range(WARMUP_ROUNDS):
                trainer.run_round()
        for repeat in range(POOL_REPEATS):
            order = backends if repeat % 2 == 0 else backends[::-1]
            for backend in order:
                started = time.perf_counter()
                for _ in range(GRID_ROUNDS):
                    trainers[backend].run_round()
                seconds[backend].append(
                    (time.perf_counter() - started) / GRID_ROUNDS
                )
        return seconds, {
            backend: trainer.coordinator.global_parameters.copy()
            for backend, trainer in trainers.items()
        }
    finally:
        for trainer in trainers.values():
            trainer.close()


def run_headline(data, model: LogisticRegressionConfig) -> dict:
    """The acceptance cell: K=20, E=16, 50 timed rounds, best of N reps."""
    times: dict[str, list[float]] = {b: [] for b in BACKENDS}
    params: dict[str, np.ndarray] = {}
    for _ in range(HEADLINE_REPS):
        for backend in BACKENDS:
            elapsed, final = _timed_run(
                backend, model, data, HEADLINE_K, HEADLINE_E, HEADLINE_ROUNDS
            )
            times[backend].append(elapsed)
            params[backend] = final
    best = {b: min(times[b]) for b in BACKENDS}
    median = {b: statistics.median(times[b]) for b in BACKENDS}
    max_diff_batched = float(
        np.max(np.abs(params["batched"] - params["sequential"]))
    )
    max_diff_pool = float(
        np.max(np.abs(params["pool"] - params["sequential"]))
    )
    return {
        "participants": HEADLINE_K,
        "epochs": HEADLINE_E,
        "rounds": HEADLINE_ROUNDS,
        "reps": HEADLINE_REPS,
        "seconds_best": best,
        "seconds_median": median,
        "speedup_batched": best["sequential"] / best["batched"],
        "speedup_pool": best["sequential"] / best["pool"],
        "max_abs_param_diff_batched": max_diff_batched,
        "max_abs_param_diff_pool": max_diff_pool,
        "equivalent_at_1e-10": max_diff_batched <= 1e-10
        and max_diff_pool == 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--evaluation-child"]:
        print(json.dumps(evaluation_child(int(args[1]), args[2], int(args[3]))))
        return 0
    out_path = Path(args[0]) if args else Path("BENCH_engine.json")

    data = _make_data(IOT_MODEL, IOT_SAMPLES_PER_SERVER)
    print("grid (prototype scale, 32x5 model):")
    grid = run_grid(data, IOT_MODEL)
    print("headline (K=20, E=16, 50 rounds):")
    headline = run_headline(data, IOT_MODEL)
    print(
        f"  batched {headline['speedup_batched']:.2f}x, "
        f"pool {headline['speedup_pool']:.2f}x, "
        f"max|dparam| batched {headline['max_abs_param_diff_batched']:.2e}"
    )

    cpus = _available_cpus()
    paper_data = _make_data(PAPER_MODEL, PAPER_SAMPLES_PER_SERVER)
    elapsed, _ = _timed_run(
        "batched", PAPER_MODEL, paper_data, HEADLINE_K, HEADLINE_E, GRID_ROUNDS
    )
    repeats, paper_params = run_pool_lockstep(paper_data, PAPER_MODEL)
    paper_times = {
        "sequential": statistics.median(repeats["sequential"]),
        "batched": elapsed / GRID_ROUNDS,
        "pool": statistics.median(repeats["pool"]),
    }
    pool_speedups = [
        sequential / pool
        for sequential, pool in zip(repeats["sequential"], repeats["pool"])
    ]
    paper_row = {
        "participants": HEADLINE_K,
        "epochs": HEADLINE_E,
        "rounds": GRID_ROUNDS,
        "seconds_per_round": paper_times,
        "speedup_batched": paper_times["sequential"] / paper_times["batched"],
        "pool_repeats": POOL_REPEATS,
        "seconds_per_round_repeats": repeats,
        "speedup_pool_repeats": pool_speedups,
        "speedup_pool": statistics.median(pool_speedups),
        "max_abs_param_diff_pool": float(
            np.max(np.abs(paper_params["pool"] - paper_params["sequential"]))
        ),
        "available_cpus": cpus,
        "cpu_limited": cpus < POOL_CPU_FLOOR,
        "note": "784x10 kernels are BLAS-bound; cross-client batching "
        "mostly removes dispatch overhead, so the gain is modest.  The "
        "pool row is the workload the persistent-worker runtime targets "
        "— its speedup scales with available cores.",
    }
    paper_row["dtype_contract"] = run_dtype_contract(
        _make_data(PAPER_MODEL, DTYPE_SAMPLES_PER_SERVER), PAPER_MODEL
    )
    paper_row["gemm_orientation"] = run_gemm_orientation(PAPER_MODEL)
    print(
        f"paper-sized model contrast: batched "
        f"{paper_row['speedup_batched']:.2f}x, "
        f"pool {paper_row['speedup_pool']:.2f}x "
        f"({cpus} cpus), float32/float64 sequential "
        f"{paper_row['dtype_contract']['float32_over_float64']:.2f}x, "
        f"model/naive epochs "
        f"{paper_row['gemm_orientation']['model_over_naive']:.2f}x"
    )

    print("evaluation layouts (784x10, float32 rows, one evaluation):")
    evaluation = run_evaluation_layouts(PAPER_MODEL)

    payload = {
        "benchmark": "engine",
        "config": {
            "n_servers": N_SERVERS,
            "seed": SEED,
            "grid_k": list(K_VALUES),
            "grid_e": list(E_VALUES),
            "grid_rounds": GRID_ROUNDS,
            "warmup_rounds": WARMUP_ROUNDS,
            "iot_model": {
                "n_features": IOT_MODEL.n_features,
                "n_classes": IOT_MODEL.n_classes,
                "samples_per_server": IOT_SAMPLES_PER_SERVER,
            },
            "paper_model": {
                "n_features": PAPER_MODEL.n_features,
                "n_classes": PAPER_MODEL.n_classes,
                "samples_per_server": PAPER_SAMPLES_PER_SERVER,
            },
        },
        "grid": grid,
        "headline": headline,
        "paper_model_contrast": paper_row,
        "evaluation": {
            "rows": evaluation,
            "held_transpose_min_evaluations": _HELD_TRANSPOSE_MIN_EVALUATIONS,
        },
        "pool_thresholds": {
            "repeats": POOL_REPEATS,
            "accept_pool_speedup": ACCEPT_POOL_SPEEDUP,
            "min_bounded_pool_speedup": MIN_BOUNDED_POOL_SPEEDUP,
            "pool_cpu_floor": POOL_CPU_FLOOR,
        },
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")

    failures = []
    if headline["speedup_batched"] < 1.0:
        failures.append(
            "batched backend slower than sequential at "
            f"K={HEADLINE_K}, E={HEADLINE_E} "
            f"({headline['speedup_batched']:.2f}x)"
        )
    if paper_row["max_abs_param_diff_pool"] != 0.0:
        failures.append(
            "pool backend diverged from sequential at paper scale "
            f"(max|dparam| = {paper_row['max_abs_param_diff_pool']:.2e})"
        )
    pool_threshold = (
        ACCEPT_POOL_SPEEDUP
        if cpus >= POOL_CPU_FLOOR
        else MIN_BOUNDED_POOL_SPEEDUP
    )
    if paper_row["speedup_pool"] < pool_threshold:
        failures.append(
            f"median pool speedup {paper_row['speedup_pool']:.2f}x over "
            f"{POOL_REPEATS} lock-step repeats at paper scale below "
            f"{pool_threshold:.2f}x threshold ({cpus} cpus)"
        )
    dtype_ratio = paper_row["dtype_contract"]["float32_over_float64"]
    if dtype_ratio > MAX_FLOAT32_RATIO:
        failures.append(
            f"float32-stored features cost {dtype_ratio:.2f}x float64 per "
            f"sequential round with the paper model (limit "
            f"{MAX_FLOAT32_RATIO:.2f}x): features are widened inside the "
            "kernels instead of once by their owner"
        )
    gemm = paper_row["gemm_orientation"]
    if not gemm["identical_parameters"]:
        failures.append(
            "forward_backward epochs diverged from the naive two-matmul "
            "epochs at paper shape"
        )
    if gemm["model_over_naive"] > MAX_GEMM_ORIENTATION_RATIO:
        failures.append(
            f"forward_backward epochs take {gemm['model_over_naive']:.2f}x "
            f"the naive two-matmul epochs at paper shape (limit "
            f"{MAX_GEMM_ORIENTATION_RATIO:.2f}x)"
        )
    for row in evaluation:
        if not row["identical_results"]:
            failures.append(
                f"evaluation layouts disagree at {row['rows']:,d} rows "
                f"(budget {row['cpu_budget']}): the "
                "streamed, held and widened rows must give the same bits"
            )
        if row["streamed_over_widened"] > 1.0:
            failures.append(
                f"a streamed evaluation of {row['rows']:,d} float32 rows takes "
                f"{row['streamed_over_widened']:.2f}x a widened one "
                f"(budget {row['cpu_budget']})"
            )
    for n in EVALUATION_ROWS:
        if len({tuple(r["loss_accuracy"]) for r in evaluation if r["rows"] == n}) > 1:
            failures.append(
                f"CPU budgets 1 and 2 gave different evaluations at {n:,d} rows"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
