"""Pure helpers shared by the end-to-end benchmark scripts.

Nothing here imports :mod:`repro` or NumPy, so ``run.py`` can check
for the program's source before touching it and ``compare.py`` runs
without it.  The module holds the workload and metric tables, the
statistics the benchmark reports (quartiles, the tail percentile rule),
the self-time fold over a span tree, and the reference gate.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
REFERENCE_FILE = HERE / "reference.json"

#: Every metric name the benchmark prints must match this.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: The tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Relative tolerance of the reference gate.
REFERENCE_RTOL = 1e-9

WORKLOADS = ("paper-20pi", "population-10k", "faults-1k", "campaign-grid")

#: Set for every workload process: one BLAS thread.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: End-to-end metrics (untraced run): name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "round_s_p50": ("s", "lower"),
    "clients_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: The root span of one benchmark operation; its self time is harness glue.
OP_SPAN = "bench.op"

#: Every named layer of a traced run, in reporting order.  Span layers
#: are named after the module whose entry point they wrap.
LAYERS = (
    "data.load",
    "campaign.store.open",
    "campaign.runner.pass",
    "campaign.runner.unit",
    "hardware.prototype.init",
    "fl.training.build_clients",
    "fl.training.init",
    "hardware.prototype.round",
    "sim.engine.run",
    "fl.training.loop",
    "fl.sampling.select",
    "fl.engine.train",
    "fl.model.eval",
    "perf.cache.eval",
    "fl.server.aggregate",
    "hardware.raspberry_pi.ledger",
    "faults.upload",
    "faults.injector",
    "obs.observer.emit",
    "obs.sink.spool",
    "campaign.store.record",
    "campaign.store.verify_unit",
    "campaign.store.lookup",
    "campaign.report.render",
    "campaign.store.verify",
)

#: Per-operation counts of a traced run: metric -> (fold key, unit, better).
LAYER_COUNTS = {
    "fl.engine.clients": ("fl.engine.clients", "count", "higher"),
    "fl.model.eval_rows": ("fl.model.eval_rows", "count", "lower"),
    "fl.server.updates": ("fl.server.updates", "count", "higher"),
    "hardware.raspberry_pi.calls": (
        "hardware.raspberry_pi.ledger.calls",
        "count",
        "lower",
    ),
    "faults.upload_attempts": ("faults.upload_attempts", "count", "lower"),
    "faults.injector.calls": ("faults.injector.calls", "count", "lower"),
    "obs.observer.events": ("obs.observer.emit.calls", "count", "lower"),
    "obs.sink.records": ("obs.sink.spool.calls", "count", "lower"),
}

#: Run-level per-layer metrics: name -> (unit, better).  The trace.*
#: ratios describe the traced run; the last three come from the
#: untraced run made alongside it, because they are timings.
LAYER_RATIOS = {
    "perf.cache.eval_hit_ratio": ("ratio", "higher"),
    "perf.scheduler.busy_share": ("ratio", "higher"),
    "trace.residual_share": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "fl.training.round_s_tail": ("s", "lower"),
    "campaign.runner.units_per_s": ("1/s", "higher"),
    "campaign.report.read_pass_s": ("s", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric a traced run prints: name -> (unit, better)."""
    metrics: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = ("s", "lower")
        metrics[f"{layer}_share"] = ("ratio", "lower")
    for name, (_, unit, better) in LAYER_COUNTS.items():
        metrics[name] = (unit, better)
    metrics.update(LAYER_RATIOS)
    return metrics


def load_benchmark(path: Path = BENCHMARK_FILE) -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(path.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_iqr(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def tail_percentile(
    values: list[float], min_beyond: int = TAIL_MIN_BEYOND
) -> tuple[float, float] | None:
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(percentile, value)``: with ``n`` samples the value is the
    ``n - min_beyond``-th smallest, so exactly ``min_beyond`` samples
    rank above it (100 samples give the 90th percentile).  ``None`` when
    there are too few samples for any percentile to qualify.
    """
    n = len(values)
    if n <= min_beyond:
        return None
    ordered = sorted(values)
    return 100.0 * (n - min_beyond) / n, float(ordered[n - min_beyond - 1])


# ----------------------------------------------------------------------
# Span trees.  Spans are the dicts of ``repro.obs.tracing.Span.to_dict``:
# ``{"name", "duration_s", "attributes", "children"}``.  A leaf layer
# folded into its enclosing span appears as two attributes on it,
# ``<layer>_s`` (self seconds) and ``<layer>_n`` (calls); a span may
# also carry dotted count attributes (``fl.engine.clients`` ...).
# ----------------------------------------------------------------------


def leaf_layers(attributes: dict) -> dict[str, float]:
    """``{layer: self seconds}`` of the leaf layers folded into a span."""
    return {
        key[: -len("_s")]: float(value)
        for key, value in attributes.items()
        if key.endswith("_s") and f"{key[: -len('_s')]}_n" in attributes
    }


def self_time(span: dict) -> float:
    """Span duration minus its child spans and its folded leaf calls."""
    covered = sum(child["duration_s"] for child in span["children"])
    covered += sum(leaf_layers(span["attributes"]).values())
    return span["duration_s"] - covered


def fold_layers(roots: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Sum self time and counts per layer over a span forest.

    Returns ``(seconds, counts)``.  ``seconds`` maps each span name and
    each leaf layer to its total self time; over a forest they sum to
    the summed root durations.  ``counts`` maps ``<layer>.calls`` for
    leaf layers, plus every numeric span attribute whose name is dotted
    (layer-qualified, e.g. ``fl.engine.clients``); undotted attributes
    such as ``worker`` are labels, not counts.
    """
    seconds: dict[str, float] = {}
    counts: dict[str, float] = {}
    stack = list(roots)
    while stack:
        span = stack.pop()
        stack.extend(span["children"])
        name = span["name"]
        seconds[name] = seconds.get(name, 0.0) + self_time(span)
        attributes = span["attributes"]
        leaves = leaf_layers(attributes)
        for layer, value in leaves.items():
            seconds[layer] = seconds.get(layer, 0.0) + value
            calls = f"{layer}.calls"
            counts[calls] = counts.get(calls, 0) + attributes[f"{layer}_n"]
        for key, value in attributes.items():
            if key[:-2] in leaves and key.endswith(("_s", "_n")):
                continue
            if "." in key and isinstance(value, (int, float)):
                counts[key] = counts.get(key, 0) + value
    return seconds, counts


def residual_share(roots: list[dict], named: set[str]) -> float:
    """Share of the forest's time spent in no layer listed in ``named``."""
    seconds, _ = fold_layers(roots)
    total = sum(root["duration_s"] for root in roots)
    if total <= 0:
        return 0.0
    attributed = sum(v for layer, v in seconds.items() if layer in named)
    return 1.0 - attributed / total


def _span_durations(roots: list[dict], name: str) -> float:
    total = 0.0
    stack = list(roots)
    while stack:
        span = stack.pop()
        stack.extend(span["children"])
        if span["name"] == name:
            total += span["duration_s"]
    return total


def layer_metrics(roots: list[dict], n_ops: int, jobs: int) -> dict[str, float]:
    """The traced run's per-layer metrics from its span forest.

    Seconds and counts are per operation; a ``*_share`` is the layer's
    self time over the forest's total time (the operations in this
    process plus, for a campaign, the units in its workers), so the
    shares of all layers and the residual sum to one.
    """
    seconds, counts = fold_layers(roots)
    total = sum(root["duration_s"] for root in roots) or 1.0
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = seconds.get(layer, 0.0) / n_ops
        metrics[f"{layer}_share"] = seconds.get(layer, 0.0) / total
    for name, (key, _, _) in LAYER_COUNTS.items():
        metrics[name] = counts.get(key, 0) / n_ops
    lookups = counts.get("perf.cache.eval.calls", 0)
    metrics["perf.cache.eval_hit_ratio"] = (
        counts.get("perf.cache.eval_hits", 0) / lookups if lookups else 0.0
    )
    pass_s = _span_durations(roots, "campaign.runner.pass")
    busy_s = sum(r["duration_s"] for r in roots if "worker" in r["attributes"])
    metrics["perf.scheduler.busy_share"] = (
        busy_s / (jobs * pass_s) if pass_s else 0.0
    )
    metrics["trace.residual_share"] = residual_share(roots, set(LAYERS))
    return metrics


# ----------------------------------------------------------------------
# Reference gate.
# ----------------------------------------------------------------------


def compare_outputs(
    expected, actual, rtol: float = REFERENCE_RTOL, path: str = ""
) -> list[str]:
    """Differences between two output documents, as readable lines.

    Floats compare at relative tolerance ``rtol``; every other value
    (ints, bools, strings, ``None``, the shape of lists and dicts) must
    match exactly.
    """
    where = path or "<root>"
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                problems.append(f"{where}: missing {key!r}")
            elif key not in expected:
                problems.append(f"{where}: unexpected {key!r}")
            else:
                problems += compare_outputs(
                    expected[key], actual[key], rtol, f"{path}/{key}"
                )
        return problems
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        problems = []
        for index, (e, a) in enumerate(zip(expected, actual)):
            problems += compare_outputs(e, a, rtol, f"{path}[{index}]")
        return problems
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if not isinstance(actual, bool) and math.isclose(
            expected, actual, rel_tol=rtol, abs_tol=0.0
        ):
            return []
        return [f"{where}: {actual!r} != {expected!r} (rtol {rtol})"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    """``{workload: {seed: outputs}}`` from the reference file."""
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def check_reference(
    reference: dict, workload: str, seed: int, outputs: dict
) -> tuple[str, list[str]]:
    """``("match" | "mismatch" | "unchecked", problems)`` for one run."""
    expected = reference.get(workload, {}).get(str(seed))
    if expected is None:
        return "unchecked", []
    problems = compare_outputs(expected, outputs)
    return ("mismatch" if problems else "match"), problems
