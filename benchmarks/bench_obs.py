"""Telemetry-overhead benchmark: events+metrics on vs off, spool vs in-process.

Observability must be cheap enough to leave on: the campaign runner now
attaches a :class:`~repro.obs.sink.SpoolObserver` to every unit, so any
real per-event cost is paid on every round of every unit.  This benchmark
times the K=20, E=16 headline cell (the same one ``bench_engine.py``
guards) in three telemetry modes:

* **off** — no observer anywhere (the floor);
* **in-process** — a plain :class:`~repro.obs.Observer` attached to the
  trainer (events, counters, histograms, spans in memory);
* **spool** — a :class:`SpoolObserver` streaming the same telemetry to
  an append-only JSONL spool file, one flushed line per event — the
  cross-process transport the campaign runner uses.

on the ``sequential`` execution backend.

Guards (median of paired per-rep ratios):

* full in-process telemetry must cost < 10 % wall-clock over off;
* spool streaming must add < 5 % over in-process telemetry.

The guards are **noise-aware**, mirroring ``bench_campaign.py``'s
CPU-aware pattern: each rep also times the *off* mode twice, and the
spread of those identical-work ratios is the box's timing noise floor.
A shared 1-CPU box routinely shows ±30 % rep-to-rep noise — no honest
wall-clock measurement can resolve a 5 % threshold there — so when the
floor is too high the strict thresholds relax to a bounded-overhead
ceiling and the JSON records ``noise_limited: true``.  A per-event
microbenchmark (tight loop, 10^4 events) is recorded alongside: it
resolves microsecond costs regardless of box noise and is the number to
watch when the macro guard is noise-limited.

Writes ``BENCH_obs.json`` and exits non-zero when a guard fails.

Not a pytest benchmark (no ``test_`` prefix — the timings are a
tracking artifact, not an assertion):

Run:  python benchmarks/bench_obs.py [output.json]
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.model import LogisticRegressionConfig
from repro.fl.partition import partition_iid
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients
from repro.obs import Observer, SpoolObserver, TelemetrySpool

N_SERVERS = 20
SEED = 0
BACKENDS = ("sequential",)
MODES = ("off", "inproc", "spool")

# Headline cell (mirrors bench_engine): K=20 participants, E=16 local
# epochs, IoT-sized model so Python dispatch — the layer telemetry hooks
# into — dominates, making this the *worst* case for relative overhead.
HEADLINE_K = 20
HEADLINE_E = 16
# Long timed regions so per-round scheduling jitter averages out inside
# one measurement.
TIMED_ROUNDS = 40
WARMUP_ROUNDS = 2
# Overhead is estimated pairwise: each rep times the three modes
# back-to-back (off, inproc, spool) and yields one inproc/off and one
# spool/inproc ratio, so slow drift in background load cancels within
# the pair; the guard checks the *median* ratio across reps, which a
# couple of noisy reps cannot move.
REPS = 5

IOT_MODEL = LogisticRegressionConfig(n_features=32, n_classes=5)
IOT_SAMPLES_PER_SERVER = 30

# Guard thresholds.
MAX_TELEMETRY_OVERHEAD = 0.10  # in-process vs off
MAX_SPOOL_OVERHEAD = 0.05  # spool vs in-process
# A threshold is only enforceable when the box's same-work noise floor
# is comfortably below it; otherwise the bounded ceiling applies.
NOISE_RESOLUTION_FACTOR = 3.0
MAX_BOUNDED_OVERHEAD = 0.50  # always enforced, even noise-limited


def _linear_task(n: int, model: LogisticRegressionConfig, seed: int) -> Dataset:
    d, c = model.n_features, model.n_classes
    projection = np.random.default_rng(424242).normal(size=(d, c))
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    scores = features @ projection
    labels = np.argmax(scores + rng.normal(0, 0.5, size=scores.shape), axis=1)
    return Dataset(features, labels, c)


def _make_data():
    train = _linear_task(IOT_SAMPLES_PER_SERVER * N_SERVERS, IOT_MODEL, SEED)
    test = _linear_task(200, IOT_MODEL, seed=SEED + 99)
    partitions = partition_iid(train, N_SERVERS, np.random.default_rng(1))
    return train, test, partitions


def _make_observer(mode: str, scratch: Path) -> Observer | None:
    if mode == "off":
        return None
    if mode == "inproc":
        return Observer()
    spool = TelemetrySpool(scratch / "bench-unit.jsonl", unit="bench")
    return SpoolObserver(spool)


def _timed_run(backend: str, mode: str, data, scratch: Path) -> dict:
    """One training run; returns timing plus telemetry volume."""
    train, test, partitions = data
    observer = _make_observer(mode, scratch)
    trainer = FederatedTrainer(
        clients=build_clients(partitions, IOT_MODEL),
        config=FederatedConfig(
            n_rounds=WARMUP_ROUNDS + TIMED_ROUNDS,
            participants_per_round=HEADLINE_K,
            local_epochs=HEADLINE_E,
            sgd=SGDConfig(learning_rate=0.1, decay=0.995),
            seed=SEED,
            backend=backend,
        ),
        train_eval=train,
        test_eval=test,
        observer=observer,
    )
    try:
        for _ in range(WARMUP_ROUNDS):
            trainer.run_round()
        started = time.perf_counter()
        for _ in range(TIMED_ROUNDS):
            trainer.run_round()
        elapsed = time.perf_counter() - started
    finally:
        if isinstance(observer, SpoolObserver):
            observer.finalize()
    row = {"elapsed_s": elapsed}
    if observer is not None:
        row["events"] = len(observer.events)
        row["instruments"] = len(observer.metrics)
    if mode == "spool":
        spools = sorted(scratch.glob("*.jsonl"))
        row["spool_files"] = len(spools)
        row["spool_bytes"] = sum(path.stat().st_size for path in spools)
    return row


def _micro_costs(n: int = 10_000) -> dict[str, float]:
    """Per-event microsecond costs from tight loops (noise-immune)."""
    from repro.obs import Observer

    costs: dict[str, float] = {}
    observer = Observer()
    started = time.perf_counter()
    for i in range(n):
        observer.emit("client.train", client=i % 20, train_s=0.1)
    costs["plain_emit"] = (time.perf_counter() - started) / n * 1e6
    with tempfile.TemporaryDirectory() as scratch:
        spool = TelemetrySpool(Path(scratch) / "m.jsonl", unit="bench")
        spooled = SpoolObserver(spool)
        started = time.perf_counter()
        for i in range(n):
            spooled.emit("client.train", client=i % 20, train_s=0.1)
        costs["spooled_emit_bulk"] = (time.perf_counter() - started) / n * 1e6
        started = time.perf_counter()
        for i in range(n):
            spooled.emit("round.end", round=i)
        costs["spooled_emit_live"] = (time.perf_counter() - started) / n * 1e6
        spooled.finalize()
    return costs


def run_benchmark(output: Path) -> int:
    data = _make_data()
    results: dict = {
        "config": {
            "n_servers": N_SERVERS,
            "participants": HEADLINE_K,
            "epochs": HEADLINE_E,
            "timed_rounds": TIMED_ROUNDS,
            "reps": REPS,
            "model": "32x5 (IoT scale)",
        },
        "guards": {
            "max_telemetry_overhead": MAX_TELEMETRY_OVERHEAD,
            "max_spool_overhead": MAX_SPOOL_OVERHEAD,
        },
        "backends": {},
    }
    failures: list[str] = []
    results["per_event_us"] = _micro_costs()
    print(
        "per-event: "
        + ", ".join(
            f"{k} {v:.1f}us" for k, v in results["per_event_us"].items()
        )
    )
    for backend in BACKENDS:
        timings: dict[str, dict] = {}
        telemetry_ratios: list[float] = []
        spool_ratios: list[float] = []
        noise_ratios: list[float] = []
        for _ in range(REPS):
            rep: dict[str, dict] = {}
            # "off" twice per rep: the second/first ratio does identical
            # work, so its deviation from 1.0 is pure box noise.
            for mode in (*MODES, "off2"):
                with tempfile.TemporaryDirectory() as scratch:
                    rep[mode] = _timed_run(
                        backend, mode.rstrip("2"), data, Path(scratch)
                    )
                best = timings.get(mode)
                if best is None or rep[mode]["elapsed_s"] < best["elapsed_s"]:
                    timings[mode] = rep[mode]
            telemetry_ratios.append(
                rep["inproc"]["elapsed_s"] / rep["off"]["elapsed_s"]
            )
            spool_ratios.append(
                rep["spool"]["elapsed_s"] / rep["inproc"]["elapsed_s"]
            )
            noise_ratios.append(
                rep["off2"]["elapsed_s"] / rep["off"]["elapsed_s"]
            )
        for mode in MODES:
            print(
                f"{backend:>10s} / {mode:<6s}: "
                f"{timings[mode]['elapsed_s']:.3f}s (best of {REPS})"
            )
        telemetry_overhead = statistics.median(telemetry_ratios) - 1.0
        spool_overhead = statistics.median(spool_ratios) - 1.0
        noise_floor = statistics.median(
            abs(ratio - 1.0) for ratio in noise_ratios
        )
        resolvable = noise_floor * NOISE_RESOLUTION_FACTOR
        noise_limited = resolvable > MAX_SPOOL_OVERHEAD
        results["backends"][backend] = {
            **{mode: timings[mode] for mode in MODES},
            "telemetry_ratios": telemetry_ratios,
            "spool_ratios": spool_ratios,
            "noise_ratios": noise_ratios,
            "noise_floor": noise_floor,
            "telemetry_overhead": telemetry_overhead,
            "spool_overhead": spool_overhead,
            "noise_limited": noise_limited,
        }
        print(
            f"{backend:>10s}: telemetry {telemetry_overhead:+.1%}, "
            f"spool {spool_overhead:+.1%} "
            f"(noise floor ±{noise_floor:.1%}"
            f"{', noise-limited' if noise_limited else ''})"
        )
        telemetry_limit = (
            MAX_BOUNDED_OVERHEAD
            if resolvable > MAX_TELEMETRY_OVERHEAD
            else MAX_TELEMETRY_OVERHEAD
        )
        spool_limit = (
            MAX_BOUNDED_OVERHEAD if noise_limited else MAX_SPOOL_OVERHEAD
        )
        if telemetry_overhead > telemetry_limit:
            failures.append(
                f"{backend}: in-process telemetry overhead "
                f"{telemetry_overhead:.1%} > {telemetry_limit:.0%}"
            )
        if spool_overhead > spool_limit:
            failures.append(
                f"{backend}: spool streaming overhead "
                f"{spool_overhead:.1%} > {spool_limit:.0%}"
            )
    results["failures"] = failures
    output.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    if failures:
        for failure in failures:
            print(f"GUARD FAILED: {failure}", file=sys.stderr)
        return 1
    print("all telemetry-overhead guards passed")
    return 0


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("BENCH_obs.json")
    raise SystemExit(run_benchmark(out))
