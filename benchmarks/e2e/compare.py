"""Compare two sets of benchmark runs: a parent commit and a change.

Usage:

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Both files are written by ``run.py --out``.  Make at least ten
parent/change pairs per workload with the same seeds and ``--seconds``,
alternating which side runs first; run ``i`` of one file is paired with
run ``i`` of the other.  For every workload and end-to-end metric of
``BENCHMARK.json`` this prints one verdict:

* ``gain`` — the pairs alternated which side ran first, the change wins
  at least 9 of 10 pairs (ties count for neither) and the medians
  differ, in the metric's better direction, by more than the distance
  between the parent's quartiles;
* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the run-to-run spread (the larger relative IQR of the
  two sides) exceeds the bound, and not every run of the change reads
  better than every run of the parent;
* ``no regression`` — none of the above.

A larger share of failed operations (``failed / attempted``) on the
change side is a failure.  Exits 1 on any regression or failure, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness

MIN_PAIRS = 10
WIN_SHARE = 0.9


def decide(
    parent: list[float],
    change: list[float],
    better: str,
    bound: float,
    alternating: bool = True,
) -> tuple[str, dict]:
    """The verdict for one metric on one workload, with its evidence.

    Without ``alternating`` pairs no gain is claimed: the host's speed
    drifts over minutes, and a side that always ran later sees a
    different machine.
    """
    n = min(len(parent), len(change))
    sign = 1.0 if better == "lower" else -1.0
    q1_p, med_p, q3_p = harness.quartiles(parent)
    _, med_c, _ = harness.quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    evidence = {
        "pairs": n,
        "wins": wins,
        "parent_median": med_p,
        "change_median": med_c,
        "worse_by": sign * (med_c - med_p) / abs(med_p),
        "spread": max(harness.relative_iqr(parent), harness.relative_iqr(change)),
    }
    if n < MIN_PAIRS:
        return "too few pairs", evidence
    improved = sign * (med_c - med_p) < 0
    if (
        alternating
        and improved
        and wins >= WIN_SHARE * n
        and abs(med_c - med_p) > q3_p - q1_p
    ):
        return "gain", evidence
    every_run_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if evidence["spread"] > bound and not every_run_better:
        return "unresolved", evidence
    if evidence["worse_by"] > bound:
        return "regression", evidence
    return "no regression", evidence


def failure_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def _by_workload(path: Path) -> dict[str, list[dict]]:
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    grouped: dict[str, list[dict]] = {}
    for run in runs:
        if run.get("trace", 0) == 0:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    metrics = harness.load_benchmark()["end_to_end"]
    parent_runs, change_runs = _by_workload(args.parent), _by_workload(args.change)
    failed = False
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        pairs = list(zip(parent, change))
        parent_first = sum(1 for p, c in pairs if p["started_unix"] < c["started_unix"])
        alternating = abs(2 * parent_first - len(pairs)) <= 1
        order = f"parent ran first in {parent_first} of {len(pairs)} pairs"
        if not alternating:
            order += " (not alternating: no gain can be claimed)"
        print(f"{workload}: {order}")
        for metric in metrics:
            name = metric["name"]
            verdict, evidence = decide(
                [run["metrics"][name]["value"] for run in parent],
                [run["metrics"][name]["value"] for run in change],
                metric["better"],
                metric["bound"],
                alternating,
            )
            failed |= verdict == "regression"
            print(
                f"  {name:14s} {verdict:14s} parent {evidence['parent_median']:.6g} "
                f"change {evidence['change_median']:.6g} {metric['unit']} "
                f"(worse by {evidence['worse_by']:+.1%}, bound {metric['bound']:.0%}, "
                f"spread {evidence['spread']:.1%}, "
                f"wins {evidence['wins']}/{evidence['pairs']})"
            )
        shares = failure_share(parent), failure_share(change)
        if shares[1] > shares[0]:
            failed = True
            print(f"  error_rate     FAILED parent {shares[0]:.3g} change {shares[1]:.3g}")
        else:
            print(f"  error_rate     ok parent {shares[0]:.3g} change {shares[1]:.3g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
