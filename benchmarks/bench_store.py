"""Store-index scaling benchmark: the SQLite index at 10^2..10^4 units.

The store index must not cap campaigns below the 10^5–10^6-unit grids
a campaign service indexes: a lookup must cost O(log n), not a linear
scan.  This benchmark certifies that at 10^2 / 10^3 / 10^4 synthetic
units:

* **lookup** — ``contains()`` over a fixed probe set (half present,
  half absent) against pre-seeded stores of each size;
* **sub-linear scaling** — per-lookup cost may grow by at most
  ``MAX_SQLITE_LOOKUP_GROWTH`` from 10^2 to 10^4 units, two decades of
  data for which a linear scan grows ~100x.  The guard compares medians
  of many probes and is enforced unconditionally;
* **insert** — per-entry ``put_entry()`` cost at each pre-seeded size
  (tracking only).

Entries are synthetic (fabricated keys and checksums through the same
``put_entry``/``bulk_put_entries`` index API the legacy import uses) so
the benchmark measures pure index mechanics, not training.

Writes ``BENCH_store.json`` and exits non-zero on any guard failure.

Not a pytest benchmark (no ``test_`` prefix — timings are a tracking
artifact, not an assertion):

Run:  python benchmarks/bench_store.py [output.json]
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.campaign import ArtifactStore, CampaignSpec, RunSpec

SIZES = (100, 1_000, 10_000)
REPS = 5
PROBES = 32  # present keys per batch; the same count of absent keys rides along
INSERTS = 16  # per-entry inserts timed per rep

# Guard.
MAX_SQLITE_LOOKUP_GROWTH = 10.0  # 10^2 -> 10^4 units (linear would be ~100x)


def _campaign() -> CampaignSpec:
    base = RunSpec(
        name="bench-store",
        n_train=64,
        n_test=32,
        n_servers=2,
        max_rounds=1,
        train_to_target=False,
    )
    return CampaignSpec(name="bench-store", base=base)


def _synthetic_key(index: int) -> str:
    # Same shape as RunSpec.key(): 16 lowercase hex chars.
    return hashlib.sha256(f"bench-unit-{index}".encode()).hexdigest()[:16]


def _synthetic_entry(index: int) -> dict:
    def digest(field: str) -> str:
        return hashlib.sha256(f"{field}-{index}".encode()).hexdigest()

    return {
        "name": f"bench/K1-E1-s{index}",
        "files": {
            "spec.json": digest("spec"),
            "history.json": digest("history"),
            "result.json": digest("result"),
        },
    }


def _seed_store(root: Path, size: int) -> ArtifactStore:
    """A store whose index holds ``size`` synthetic entries."""
    store = ArtifactStore(root)
    store.initialize(_campaign())
    store.bulk_put_entries(
        {_synthetic_key(i): _synthetic_entry(i) for i in range(size)}
    )
    return store


def _probe_keys(size: int) -> list[str]:
    """Half recorded keys spread through the range, half misses."""
    stride = max(1, size // PROBES)
    present = [_synthetic_key(i) for i in range(0, size, stride)][:PROBES]
    absent = [_synthetic_key(size + i) for i in range(PROBES)]
    return present + absent


def _time_lookups(store: ArtifactStore, keys: list[str]) -> float:
    """Seconds per ``contains()`` call over one probe batch."""
    started = time.perf_counter()
    hits = 0
    for key in keys:
        if store.contains(key):
            hits += 1
    elapsed = time.perf_counter() - started
    assert hits == PROBES, f"expected {PROBES} hits, saw {hits}"
    return elapsed / len(keys)


def _time_inserts(store: ArtifactStore, start: int, count: int) -> float:
    """Seconds per single-entry ``put_entry()`` at the current size."""
    started = time.perf_counter()
    for i in range(start, start + count):
        store.put_entry(_synthetic_key(i), _synthetic_entry(i))
    return (time.perf_counter() - started) / count


def run_size(workdir: Path, size: int) -> dict:
    """Benchmark the index at one pre-seeded store size."""
    keys = _probe_keys(size)
    root = workdir / f"store-{size}"
    store = _seed_store(root, size)
    lookup_times: list[float] = []
    insert_times: list[float] = []
    extra = size  # synthetic keys beyond the seeded range
    for _ in range(REPS):
        lookup_times.append(_time_lookups(store, keys))
        extra += PROBES  # keep the probe misses truly absent
        insert_times.append(_time_inserts(store, extra, INSERTS))
        extra += INSERTS
    row = {
        "units": size,
        "reps": REPS,
        "lookup_s_median": statistics.median(lookup_times),
        "lookup_s_all": lookup_times,
        "insert_s_median": statistics.median(insert_times),
        "insert_s_all": insert_times,
        "index_bytes": (root / store.index_filename).stat().st_size,
    }
    print(
        f"n={size:>6}: lookup {row['lookup_s_median'] * 1e6:7.1f}us  "
        f"insert {row['insert_s_median'] * 1e6:7.1f}us"
    )
    return row


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    out_path = Path(args[0]) if args else Path("BENCH_store.json")

    workdir = Path(tempfile.mkdtemp(prefix="bench_store_"))
    try:
        rows = [run_size(workdir, size) for size in SIZES]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    growth = rows[-1]["lookup_s_median"] / rows[0]["lookup_s_median"]
    payload = {
        "benchmark": "store",
        "sizes": rows,
        "sqlite_lookup_growth_1e2_to_1e4": growth,
        "thresholds": {"max_sqlite_lookup_growth": MAX_SQLITE_LOOKUP_GROWTH},
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"lookup growth 1e2->1e4: {growth:.1f}x (linear ~100x)")
    print(f"wrote {out_path}")

    if growth > MAX_SQLITE_LOOKUP_GROWTH:
        print(
            f"FAIL: lookup cost grew {growth:.1f}x from {SIZES[0]} to "
            f"{SIZES[-1]} units (> {MAX_SQLITE_LOOKUP_GROWTH:.0f}x; "
            "not sub-linear)",
            file=sys.stderr,
        )
        return 1
    print("all store-index guards passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
