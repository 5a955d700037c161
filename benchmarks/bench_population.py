"""Population-engine benchmark: struct-of-arrays scale and fog tiers.

Three questions, one artifact (``BENCH_population.json``):

* **Scale** — per-round wall-clock and peak RSS while training a
  sampled cohort out of N ∈ {10^3, 10^4, 10^5, 10^6} clients held as
  stacked arrays (:meth:`PopulationState.synthesize`, float32).  The
  cohort is 10 % of the population, capped at 10^5 — the ISSUE's
  million-client acceptance cell is N=10^6 with a 10^5-client cohort.
* **Aggregation topology** — cloud-side cost of combining a round,
  flat (K messages) vs a 100-tier fog network (min(100, K) tier
  partials): message counts from the energy model's
  :func:`cloud_fan_in` plus the measured cloud-combine time.  The
  tiered count is constant once K > tiers, which is the sub-linear
  claim the guard pins.
* **Equivalence** — at N=20 the population backend must match the
  sequential reference (max |dparam| <= 1e-10), and the float32 opt-in
  must stay within 1e-3 of float64 (the measured delta is recorded
  either way).
* **Population round** — the whole prototype round at the e2e
  ``population-10k`` shape, from real :func:`load_synthetic_mnist`
  partitions (10^4 devices, K=10^3, E=1, 10 rounds, population
  backend): the median seconds per round, split into local training,
  evaluation, aggregation and the energy ledger, plus the population
  state's ``state_nbytes``: the pooled rows it shares with the trainer
  and its row indexes, with no copy of a sample.  The split comes from
  timing wrappers on public entry points only, so the row runs
  unchanged against older sources.  Two repeats must give identical energy and history.  The
  row also counts what set-up and the rounds build per device:
  ``EdgeServerClient``s, ``RaspberryPiEdgeServer``s and
  ``Dataset.subset`` copies, guarded at 0, and ``np.random.default_rng``
  streams, guarded below ``MAX_RUN_STREAMS`` whatever N is.
* **CPU budget** — two rounds timed at a CPU budget of 1 and of 2
  (:mod:`repro.perf.cpu`), in alternated pairs, in a child process with
  one BLAS thread (as ``benchmarks/e2e`` runs; at OpenBLAS's default of
  2 threads on 2 vCPUs the budget is 1 and nothing is threaded): a
  ``population-10k``-shaped round (``train_cohort`` over 1 000
  four-sample lanes, then a loss evaluation of 40 000 held rows and an
  accuracy of 2 000) and a paper-shaped population round (20 lanes of
  3 000 samples, E=16, then 60 000 + 10 000 held rows).  The budget is
  forced through the module's private BLAS-thread reader.  Both budgets
  must give identical bits, and budget 2 may take no longer than 1.
* **Fleet** — ``RunSpec`` to ``PrototypeResult`` at 10^5 and 10^6
  devices (population backend, K = 10 % of N, E=1, 3 rounds), each in
  a fresh process: data-generation and set-up seconds (set-up runs from
  ``execute_unit`` to the first round), median round seconds, peak RSS.
  A row's memory budget is computed first (:func:`_fleet_budget`):
  the larger of data generation's transient (two float32 copies of
  every sample) and what the rounds hold (every training sample's
  ``_bytes_per_sample`` and every participant's update,
  ``BYTES_PER_PARTICIPANT``), over ``BASE_BYTES``.  The row runs only
  if the budget fits under ``MEMORY_CAP_BYTES``, and its peak RSS must
  then stay within the budget; otherwise the row records the budget
  and names the parts that alone exceed the cap.

Exits non-zero if any guard fails.  Not a pytest benchmark (no
``test_`` prefix — the timings are a tracking artifact).

Run:  python benchmarks/bench_population.py [output.json]
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.campaign import RunSpec
from repro.campaign.runner import execute_unit
from repro.core.energy_model import cloud_fan_in
from repro.data.dataset import Dataset
from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.fl.client import EdgeServerClient
from repro.fl.engine import PopulationEngine
from repro.fl.history_io import history_to_json
from repro.fl.model import (
    _HELD_TRANSPOSE_MIN_EVALUATIONS,
    LogisticRegressionConfig,
    LogisticRegressionModel,
    evaluation_rows,
)
from repro.fl.partition import iid_partitions, partition_iid
from repro.fl.population import (
    AggregationTree,
    PopulationState,
    train_cohort,
)
from repro.fl.sampling import FloydSampler
from repro.fl.server import Coordinator
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients
from repro.hardware.raspberry_pi import RaspberryPiEdgeServer
from repro.perf import cpu

SEED = 0
POPULATION_SIZES = (1_000, 10_000, 100_000, 1_000_000)
COHORT_FRACTION = 0.1
COHORT_CAP = 100_000
SCALE_ROUNDS = 3
FOG_TIERS = 100
SAMPLES_PER_CLIENT = 4
N_FEATURES = 8
N_CLASSES = 4

# Guards.
MIN_SCALE_DEMONSTRATED = 100_000
ACCEPT_EQUIVALENCE_ATOL = 1e-10
ACCEPT_FLOAT32_ATOL = 1e-3
# Cloud combines min(tiers, K) messages: at the 10^5 cohort that is
# 100/100000 of the flat count.
ACCEPT_TIER_MESSAGE_RATIO = 0.01
# A vectorized round must process clients faster than this, or the
# struct-of-arrays layout has regressed to per-client dispatch.
MIN_CLIENTS_PER_SECOND = 10_000

# The population round row: the e2e population-10k operation.
ROUND_SPEC = RunSpec(
    name="population-10k",
    n_train=40_000,
    n_test=2_000,
    n_servers=10_000,
    participants=1_000,
    epochs=1,
    max_rounds=10,
    train_to_target=False,
    backend="population",
    seed=SEED,
)
ROUND_REPEATS = 2
# Generators one execute_unit draws from whatever N is: the split, the
# sampler, and the dropout and resilience streams.
MAX_RUN_STREAMS = 8

# The CPU-budget row: (name, train rows, test rows, clients, cohort,
# epochs); every client holds train rows / clients samples.
BUDGET_ROUNDS = (
    ("population-10k", 40_000, 2_000, 10_000, 1_000, 1),
    ("paper", 60_000, 10_000, 20, 20, 16),
)
BUDGET_PAIRS = 5
BUDGETS = (1, 2)
BUDGET_CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The fleet rows: (devices, samples per device).  The ROADMAP's ask is
# 4 samples per device.
FLEET_ROWS = ((100_000, 4), (100_000, 1), (1_000_000, 4))
FLEET_ROUNDS = 3
FLEET_N_TEST = 2_000

# A round's (K, P) float64 update matrix, per participant: the 784 x 10
# model's 7 850 parameters.
BYTES_PER_PARTICIPANT = 7_850 * 8
# One 784-feature sample as load_synthetic_mnist stores it (float32).
FLOAT32_SAMPLE_BYTES = 784 * 4
# load_synthetic_mnist's final permutation gathers a second float32
# copy of the training set while the first is still alive.
DATA_GENERATION_COPIES = 2
# Interpreter and numpy (39 MiB after import), the test set, evaluation
# transients and allocator slack.  The population-10k peak RSS (502 MiB)
# is 83 MiB over its samples' and updates' budget (419 MiB), and the
# 10^5-device fleet rows peaked 53 and 77 MiB over theirs.
BASE_BYTES = 128 * 2**20
# A run must leave most of this 7 GiB host, which others share, free.
MEMORY_CAP_BYTES = 3 * 2**30


def _bytes_per_sample(rounds: int) -> int:
    """What one 784-feature training sample holds while the rounds run:
    its one float32 copy, which the population state gathers from
    without copying, and, in a run long enough for the trainer to hold
    them (``evaluation_rows``), float64 (8 B) training-loss evaluation
    rows; shorter runs score the stored rows."""
    held = rounds >= _HELD_TRANSPOSE_MIN_EVALUATIONS
    return FLOAT32_SAMPLE_BYTES + (784 * 8 if held else 0)


def _fleet_budget(spec: RunSpec) -> tuple[int, dict[str, int]]:
    """A fleet row's memory budget and the parts it is built from.

    Data generation frees its transient before the rounds start, so the
    budget is the larger of the two phases over ``BASE_BYTES``."""
    parts = {
        "data generation's float32 copies": DATA_GENERATION_COPIES
        * FLOAT32_SAMPLE_BYTES
        * spec.n_train,
        "training samples": _bytes_per_sample(spec.max_rounds) * spec.n_train,
        "(K, P) float64 update matrix": BYTES_PER_PARTICIPANT
        * spec.participants,
    }
    rounds = parts["training samples"] + parts["(K, P) float64 update matrix"]
    budget = BASE_BYTES + max(parts["data generation's float32 copies"], rounds)
    return budget, parts


def _peak_rss_bytes() -> int:
    """Process peak RSS (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def run_scale_row(n_clients: int) -> dict:
    cohort_size = min(int(n_clients * COHORT_FRACTION), COHORT_CAP)
    build_started = time.perf_counter()
    state = PopulationState.synthesize(
        n_clients,
        n_features=N_FEATURES,
        n_classes=N_CLASSES,
        samples_per_client=SAMPLES_PER_CLIENT,
        seed=SEED,
        dtype=np.float32,
    )
    build_s = time.perf_counter() - build_started
    sampler = FloydSampler(n_clients, cohort_size, seed=SEED)
    params = state.model_config.build().get_parameters()
    tree = AggregationTree(FOG_TIERS)
    round_seconds = []
    flat_combine_s = tiered_cloud_combine_s = 0.0
    for round_index in range(SCALE_ROUNDS):
        cohort = sampler.select(round_index)
        started = time.perf_counter()
        updates = train_cohort(
            state, cohort, params, epochs=1, learning_rate=0.1
        )
        stacked = updates.parameters
        params = stacked.mean(axis=0)
        round_seconds.append(time.perf_counter() - started)
        if round_index == SCALE_ROUNDS - 1:
            # Cloud-side combine cost, measured on the last round's
            # updates: flat mean over K rows vs mean over the fog
            # tiers' partials (the fog fold itself is charged to the
            # fog nodes, in parallel in a real deployment).
            started = time.perf_counter()
            stacked.mean(axis=0)
            flat_combine_s = time.perf_counter() - started
            fan_in = tree.fan_in(len(updates))
            partials = np.stack(
                [chunk.mean(axis=0) for chunk in np.array_split(stacked, fan_in)]
            )
            started = time.perf_counter()
            partials.mean(axis=0)
            tiered_cloud_combine_s = time.perf_counter() - started
    per_round = float(np.mean(round_seconds))
    row = {
        "n_clients": n_clients,
        "cohort_size": cohort_size,
        "rounds": SCALE_ROUNDS,
        "state_build_s": build_s,
        "state_nbytes": int(state.nbytes),
        "seconds_per_round": per_round,
        "clients_per_second": cohort_size / per_round,
        "peak_rss_bytes": _peak_rss_bytes(),
        "aggregation": {
            "fog_tiers": FOG_TIERS,
            "flat_cloud_messages": cloud_fan_in(cohort_size, 0),
            "tiered_cloud_messages": cloud_fan_in(cohort_size, FOG_TIERS),
            "flat_cloud_combine_s": flat_combine_s,
            "tiered_cloud_combine_s": tiered_cloud_combine_s,
        },
    }
    print(
        f"N={n_clients:>9,d}: cohort {cohort_size:>7,d}, "
        f"{per_round * 1000:8.1f} ms/round "
        f"({row['clients_per_second']:,.0f} clients/s), "
        f"peak RSS {row['peak_rss_bytes'] / 2**20:,.0f} MiB, "
        f"cloud messages {row['aggregation']['flat_cloud_messages']:,d} "
        f"flat -> {row['aggregation']['tiered_cloud_messages']} tiered"
    )
    return row


def _linear_task(n: int, model: LogisticRegressionConfig, seed: int) -> Dataset:
    projection = np.random.default_rng(424242).normal(
        size=(model.n_features, model.n_classes)
    )
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, model.n_features))
    scores = features @ projection
    labels = np.argmax(scores + rng.normal(0, 0.5, size=scores.shape), axis=1)
    return Dataset(features, labels, model.n_classes)


def _final_params(backend: str, dtype: str = "float64") -> np.ndarray:
    model = LogisticRegressionConfig(n_features=8, n_classes=3)
    train = _linear_task(600, model, seed=SEED)
    test = _linear_task(100, model, seed=SEED + 99)
    partitions = partition_iid(train, 20, np.random.default_rng(1))
    trainer = FederatedTrainer(
        clients=build_clients(partitions, model),
        config=FederatedConfig(
            n_rounds=10,
            participants_per_round=8,
            local_epochs=2,
            sgd=SGDConfig(learning_rate=0.5, decay=0.99),
            seed=SEED,
            backend=backend,
            population_dtype=dtype,
        ),
        train_eval=train,
        test_eval=test,
    )
    trainer.run()
    return trainer.coordinator.global_parameters.copy()


def run_equivalence() -> dict:
    sequential = _final_params("sequential")
    population = _final_params("population")
    population_f32 = _final_params("population", dtype="float32")
    row = {
        "n_clients": 20,
        "rounds": 10,
        "max_abs_param_diff_vs_sequential": float(
            np.max(np.abs(population - sequential))
        ),
        "float32_max_abs_param_diff": float(
            np.max(np.abs(population_f32 - population))
        ),
        "tolerance_note": (
            "the population kernel mirrors the per-client op order, so "
            "the sequential diff is bounded by the certified atol=1e-10"
        ),
    }
    print(
        "equivalence (N=20): "
        f"vs sequential {row['max_abs_param_diff_vs_sequential']:.2e}, "
        f"float32 delta {row['float32_max_abs_param_diff']:.2e}"
    )
    return row


@contextlib.contextmanager
def _timed_layers():
    """Record the calls of a prototype run's layers, then unwrap them.

    Yields ``calls``: layer name -> list of ``(start, end)`` per call,
    plus ``"engine"``, the population engines built.
    """
    calls: dict[str, list] = {"engine": []}
    wrapped = [
        (FederatedTrainer, "run_round", "round"),
        (PopulationEngine, "train_round", "train"),
        (LogisticRegressionModel, "loss", "eval"),
        (LogisticRegressionModel, "accuracy", "eval"),
        (Coordinator, "aggregate", "aggregate"),
        (FederatedTrainer, "run", "training"),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in wrapped]
    for (owner, name, layer), (_, _, original) in zip(wrapped, originals):

        @functools.wraps(original)
        def timed(*args, _original=original, _layer=layer, **kwargs):
            start = time.perf_counter()
            try:
                return _original(*args, **kwargs)
            finally:
                calls.setdefault(_layer, []).append(
                    (start, time.perf_counter())
                )

        setattr(owner, name, timed)
    engine_init = PopulationEngine.__init__

    def recording_init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        calls["engine"].append(self)

    PopulationEngine.__init__ = recording_init
    try:
        yield calls
    finally:
        PopulationEngine.__init__ = engine_init
        for owner, name, original in originals:
            setattr(owner, name, original)


@contextlib.contextmanager
def _object_counts():
    """Count per-device objects and RNG streams built, then unwrap."""
    counts = {
        "EdgeServerClient": 0,
        "RaspberryPiEdgeServer": 0,
        "Dataset.subset": 0,
        "default_rng": 0,
    }

    def counting(key, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    patched = [
        (EdgeServerClient, "__init__", "EdgeServerClient"),
        (RaspberryPiEdgeServer, "__init__", "RaspberryPiEdgeServer"),
        (Dataset, "subset", "Dataset.subset"),
        (np.random, "default_rng", "default_rng"),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patched]
    for owner, name, key in patched:
        setattr(owner, name, counting(key, getattr(owner, name)))
    try:
        yield counts
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def _per_round(calls: list, rounds: list) -> list[float]:
    """Seconds of ``calls`` that fall inside each round's interval."""
    return [
        sum(end - start for start, end in calls if lo <= start and end <= hi)
        for lo, hi in rounds
    ]


def run_population_round_row() -> dict:
    """The population-10k prototype round, split into its layers."""
    spec = ROUND_SPEC
    repeats = []
    for _ in range(ROUND_REPEATS):
        datasets = load_synthetic_mnist(
            n_train=spec.n_train,
            n_test=spec.n_test,
            seed=spec.seed,
            noise_std=spec.noise_std,
        )
        with _timed_layers() as calls, _object_counts() as built:
            result = execute_unit(spec, datasets=datasets)
        # A round runs from its run_round start to the next one's (the
        # last to the end of FederatedTrainer.run): the prototype prices
        # the round's energy and duration after run_round returns.
        starts = [start for start, _ in calls["round"]]
        ends = starts[1:] + [calls["training"][-1][1]]
        rounds = list(zip(starts, ends))
        round_s = [hi - lo for lo, hi in rounds]
        layers = {
            layer: _per_round(calls.get(layer, []), rounds)
            for layer in ("train", "eval", "aggregate")
        }
        layers["ledger"] = [
            total - (end - start)
            for total, (start, end) in zip(round_s, calls["round"])
        ]
        repeats.append(
            {
                "round_s": round_s,
                "layers": layers,
                "state_nbytes": int(calls["engine"][0].state.nbytes),
                "built": dict(built),
                "total_energy_j": result.total_energy_j,
                "energy_digest": hashlib.sha256(
                    np.asarray(result.energy_per_round_j).tobytes()
                ).hexdigest(),
                "history_digest": hashlib.sha256(
                    history_to_json(result.history).encode()
                ).hexdigest(),
            }
        )
    first = repeats[0]
    row = {
        "spec": {
            "n_servers": spec.n_servers,
            "participants": spec.participants,
            "epochs": spec.epochs,
            "rounds": spec.max_rounds,
            "n_train": spec.n_train,
            "n_test": spec.n_test,
            "backend": spec.backend,
            "data": "load_synthetic_mnist partitions (float32)",
        },
        "repeats": ROUND_REPEATS,
        "seconds_per_round_median": statistics.median(
            s for r in repeats for s in r["round_s"]
        ),
        "layer_seconds_per_round_median": {
            layer: statistics.median(
                s for r in repeats for s in r["layers"][layer]
            )
            for layer in first["layers"]
        },
        "state_nbytes": first["state_nbytes"],
        "built_per_run": first["built"],
        "total_energy_j": first["total_energy_j"],
        "energy_digest": first["energy_digest"],
        "history_digest": first["history_digest"],
        "repeats_identical": all(
            r[key] == first[key]
            for r in repeats
            for key in (
                "total_energy_j",
                "energy_digest",
                "history_digest",
                "built",
            )
        ),
        "peak_rss_bytes": _peak_rss_bytes(),
        "layer_note": (
            "ledger = a round's wall time after run_round returns, until "
            "the next round starts: the prototype's energy and duration "
            "pricing"
        ),
    }
    split = row["layer_seconds_per_round_median"]
    print(
        f"population round (N={spec.n_servers:,d}, K={spec.participants:,d}, "
        f"E={spec.epochs}, real partitions): "
        f"{row['seconds_per_round_median'] * 1000:.1f} ms/round median; "
        + ", ".join(f"{k} {v * 1000:.1f} ms" for k, v in split.items())
        + f"; state {row['state_nbytes'] / 2**20:,.0f} MiB; "
        f"repeats identical: {row['repeats_identical']}; "
        f"built per run: {row['built_per_run']}"
    )
    return row


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


def budget_child() -> dict:
    """The CPU-budget rounds, in this process (run with one BLAS thread)."""
    rounds = []
    for name, n_train, n_test, clients, cohort, epochs in BUDGET_ROUNDS:
        train, test = load_synthetic_mnist(
            n_train=n_train, n_test=n_test, seed=SEED
        )
        model_config = LogisticRegressionConfig()
        state = PopulationState.from_partitions(
            iid_partitions(train, clients, np.random.default_rng(SEED)),
            model_config,
        )
        ids = np.sort(
            np.random.default_rng(SEED).choice(clients, cohort, replace=False)
        )
        params = np.random.default_rng(SEED + 1).normal(
            scale=0.01, size=model_config.n_parameters
        )
        model = model_config.build()
        model.set_parameters(params)
        held_train = evaluation_rows(train.features, model_config, 10)
        held_test = evaluation_rows(test.features, model_config, 10)

        def one_round():
            started = time.perf_counter()
            updates = train_cohort(
                state, ids, params, epochs=epochs, learning_rate=0.01
            )
            trained = time.perf_counter()
            loss = model.loss(held_train, train.labels)
            accuracy = model.accuracy(held_test, test.labels)
            ended = time.perf_counter()
            digest = hashlib.sha256(updates.parameters.tobytes())
            digest.update(updates.losses.tobytes())
            digest.update(repr((loss, accuracy)).encode())
            return ended - started, trained - started, digest.hexdigest()

        times: dict[int, list] = {budget: [] for budget in BUDGETS}
        digests = set()
        budgets_seen = dict.fromkeys(BUDGETS)
        one_round()  # warm the allocator and the caches
        for pair in range(BUDGET_PAIRS):
            for budget in BUDGETS[:: 1 if pair % 2 else -1]:
                with _cpu_budget(budget) as actual:
                    round_s, train_s, digest = one_round()
                budgets_seen[budget] = actual
                times[budget].append((round_s, train_s))
                digests.add(digest)
        rounds.append(
            {
                "name": name,
                "cohort": cohort,
                "samples_per_lane": n_train // clients,
                "epochs": epochs,
                "evaluated_rows": [n_train, n_test],
                "pairs": BUDGET_PAIRS,
                "budgets": budgets_seen,
                "round_s_median": {
                    str(b): statistics.median(r for r, _ in v)
                    for b, v in times.items()
                },
                "train_s_median": {
                    str(b): statistics.median(t for _, t in v)
                    for b, v in times.items()
                },
                "identical_bits": len(digests) == 1,
            }
        )
        del state, held_train, held_test, train, test
    return {"blas_threads": cpu._blas_threads(), "rounds": rounds}


def run_cpu_budget_row() -> dict:
    """The CPU-budget rounds, in a child process with one BLAS thread."""
    child = subprocess.run(
        [sys.executable, __file__, "--budget-row"],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, **BUDGET_CHILD_ENV},
    )
    row = json.loads(child.stdout.splitlines()[-1])
    for shape in row["rounds"]:
        one, two = (shape["round_s_median"][str(b)] for b in BUDGETS)
        train_one, train_two = (shape["train_s_median"][str(b)] for b in BUDGETS)
        shape["round_ratio"] = two / one
        print(
            f"cpu budget, {shape['name']} round: {one * 1000:.0f} ms at "
            f"budget 1, {two * 1000:.0f} ms at budget "
            f"{shape['budgets'][str(BUDGETS[1])]} ({two / one:.2f}x); "
            f"training {train_one * 1000:.0f} -> {train_two * 1000:.0f} ms; "
            f"identical bits: {shape['identical_bits']}"
        )
    return row


def _fleet_spec(n_devices: int, samples: int) -> RunSpec:
    return RunSpec(
        name=f"fleet-{n_devices}x{samples}",
        n_train=n_devices * samples,
        n_test=FLEET_N_TEST,
        n_servers=n_devices,
        participants=n_devices // 10,
        epochs=1,
        max_rounds=FLEET_ROUNDS,
        train_to_target=False,
        backend="population",
        seed=SEED,
    )


def fleet_child(n_devices: int, samples: int) -> dict:
    """One fleet row, run in this (fresh) process: its peak RSS is the
    row's own."""
    spec = _fleet_spec(n_devices, samples)
    started = time.perf_counter()
    datasets = load_synthetic_mnist(
        n_train=spec.n_train,
        n_test=spec.n_test,
        seed=spec.seed,
        noise_std=spec.noise_std,
    )
    starts: list[float] = []
    run_round = FederatedTrainer.run_round

    def timed_round(trainer):
        starts.append(time.perf_counter())
        return run_round(trainer)

    FederatedTrainer.run_round = timed_round
    data_s = time.perf_counter() - started
    started = time.perf_counter()
    result = execute_unit(spec, datasets=datasets)
    ended = time.perf_counter()
    FederatedTrainer.run_round = run_round
    bounds = starts + [ended]
    return {
        "data_s": data_s,
        "setup_s": starts[0] - started,
        "round_s_median": statistics.median(
            hi - lo for lo, hi in zip(bounds, bounds[1:])
        ),
        "rounds": result.rounds,
        "total_energy_j": result.total_energy_j,
        "peak_rss_bytes": _peak_rss_bytes(),
    }


def run_fleet_rows() -> list[dict]:
    """The fleet rows whose memory budget fits, each in a child process."""
    rows = []
    for n_devices, samples in FLEET_ROWS:
        spec = _fleet_spec(n_devices, samples)
        budget, parts = _fleet_budget(spec)
        row = {
            "spec": {
                "n_servers": n_devices,
                "samples_per_device": samples,
                "participants": spec.participants,
                "epochs": spec.epochs,
                "rounds": spec.max_rounds,
                "n_test": spec.n_test,
                "backend": spec.backend,
            },
            "memory_budget_bytes": budget,
            "memory_budget_parts_bytes": parts,
        }
        if budget > MEMORY_CAP_BYTES:
            blockers = ", ".join(
                f"{name} ({size / 2**30:.1f} GiB)"
                for name, size in parts.items()
                if size > MEMORY_CAP_BYTES
            )
            row["skipped"] = (
                f"memory budget {budget / 2**30:.1f} GiB exceeds the "
                f"{MEMORY_CAP_BYTES / 2**30:.0f} GiB cap; alone over it: "
                f"{blockers}"
            )
            print(f"fleet {n_devices:,d} x {samples}: {row['skipped']}")
            rows.append(row)
            continue
        child = subprocess.run(
            [sys.executable, __file__, "--fleet-row", str(n_devices), str(samples)],
            check=True,
            capture_output=True,
            text=True,
        )
        row.update(json.loads(child.stdout.splitlines()[-1]))
        print(
            f"fleet {n_devices:,d} x {samples}: data {row['data_s']:.2f} s, "
            f"set-up {row['setup_s']:.2f} s, "
            f"{row['round_s_median'] * 1000:.0f} ms/round median, peak RSS "
            f"{row['peak_rss_bytes'] / 2**20:,.0f} MiB "
            f"(budget {budget / 2**20:,.0f} MiB)"
        )
        rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--fleet-row"]:
        print(json.dumps(fleet_child(int(args[1]), int(args[2]))))
        return 0
    if args[:1] == ["--budget-row"]:
        print(json.dumps(budget_child()))
        return 0
    out_path = Path(args[0]) if args else Path("BENCH_population.json")

    print("scale (struct-of-arrays, float32, E=1):")
    scale_rows = [run_scale_row(n) for n in POPULATION_SIZES]
    equivalence = run_equivalence()
    population = run_population_round_row()
    cpu_budget = run_cpu_budget_row()
    fleet = run_fleet_rows()

    payload = {
        "benchmark": "population",
        "config": {
            "seed": SEED,
            "population_sizes": list(POPULATION_SIZES),
            "cohort_fraction": COHORT_FRACTION,
            "cohort_cap": COHORT_CAP,
            "rounds": SCALE_ROUNDS,
            "fog_tiers": FOG_TIERS,
            "samples_per_client": SAMPLES_PER_CLIENT,
            "model": f"{N_FEATURES}x{N_CLASSES}",
            "scale_dtype": "float32",
        },
        "scale": scale_rows,
        "equivalence": equivalence,
        "population": population,
        "cpu_budget": cpu_budget,
        "fleet": fleet,
        "thresholds": {
            "min_scale_demonstrated": MIN_SCALE_DEMONSTRATED,
            "accept_equivalence_atol": ACCEPT_EQUIVALENCE_ATOL,
            "accept_float32_atol": ACCEPT_FLOAT32_ATOL,
            "accept_tier_message_ratio": ACCEPT_TIER_MESSAGE_RATIO,
            "min_clients_per_second": MIN_CLIENTS_PER_SECOND,
            "max_run_streams": MAX_RUN_STREAMS,
            "memory_cap_bytes": MEMORY_CAP_BYTES,
        },
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")

    failures = []
    largest = max(row["n_clients"] for row in scale_rows)
    if largest < MIN_SCALE_DEMONSTRATED:
        failures.append(
            f"largest population trained is {largest:,d} clients; "
            f"acceptance floor is {MIN_SCALE_DEMONSTRATED:,d}"
        )
    big_rows = [
        row for row in scale_rows if row["n_clients"] >= MIN_SCALE_DEMONSTRATED
    ]
    for row in big_rows:
        if row["clients_per_second"] < MIN_CLIENTS_PER_SECOND:
            failures.append(
                f"N={row['n_clients']:,d} trained only "
                f"{row['clients_per_second']:,.0f} clients/s "
                f"(floor {MIN_CLIENTS_PER_SECOND:,d})"
            )
        agg = row["aggregation"]
        ratio = agg["tiered_cloud_messages"] / agg["flat_cloud_messages"]
        if ratio > ACCEPT_TIER_MESSAGE_RATIO:
            failures.append(
                f"N={row['n_clients']:,d}: tiered cloud message ratio "
                f"{ratio:.4f} above {ACCEPT_TIER_MESSAGE_RATIO} "
                "(fog aggregation not sub-linear)"
            )
    if (
        equivalence["max_abs_param_diff_vs_sequential"]
        > ACCEPT_EQUIVALENCE_ATOL
    ):
        failures.append(
            "population diverged from sequential at N=20 (max|dparam| = "
            f"{equivalence['max_abs_param_diff_vs_sequential']:.2e})"
        )
    if equivalence["float32_max_abs_param_diff"] > ACCEPT_FLOAT32_ATOL:
        failures.append(
            "float32 population drifted beyond the documented tolerance "
            f"({equivalence['float32_max_abs_param_diff']:.2e} > "
            f"{ACCEPT_FLOAT32_ATOL})"
        )
    if not population["repeats_identical"]:
        failures.append(
            "two population-10k repeats gave different energy or history"
        )
    built = population["built_per_run"]
    objects = {k: v for k, v in built.items() if k != "default_rng"}
    if any(objects.values()):
        failures.append(f"population-10k built per-device objects: {objects}")
    if built["default_rng"] > MAX_RUN_STREAMS:
        failures.append(
            f"population-10k made {built['default_rng']} RNG streams "
            f"(cap {MAX_RUN_STREAMS}, whatever N is)"
        )
    for shape in cpu_budget["rounds"]:
        if not shape["identical_bits"]:
            failures.append(
                f"{shape['name']} round: budgets 1 and 2 gave different bits"
            )
        if shape["budgets"][str(BUDGETS[1])] > 1 and shape["round_ratio"] > 1.0:
            failures.append(
                f"{shape['name']} round: budget 2 took "
                f"{shape['round_ratio']:.2f}x budget 1's time"
            )
    if not any("skipped" not in row for row in fleet):
        failures.append("no fleet row fitted its memory budget")
    for row in fleet:
        if "skipped" not in row and (
            row["peak_rss_bytes"] > row["memory_budget_bytes"]
        ):
            failures.append(
                f"fleet {row['spec']['n_servers']:,d} x "
                f"{row['spec']['samples_per_device']}: peak RSS "
                f"{row['peak_rss_bytes'] / 2**20:,.0f} MiB over its "
                f"{row['memory_budget_bytes'] / 2**20:,.0f} MiB budget"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
