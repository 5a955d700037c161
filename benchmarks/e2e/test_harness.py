"""Tests of the end-to-end benchmark's own logic.

Run:  PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys

import pytest

import compare
import harness


def span(name, duration, children=(), **attributes):
    return {
        "name": name,
        "duration_s": duration,
        "attributes": attributes,
        "children": list(children),
    }


# ----------------------------------------------------------------------
# Span folding.
# ----------------------------------------------------------------------


def synthetic_forest():
    # op 10 s: data 2 s, loop 7 s (engine 4 s, ledger leaf 0.5 s over
    # 3 calls, emit leaf 0.25 s over 5 calls); 1 s of glue in op itself.
    loop = span(
        "fl.training.loop",
        7.0,
        [span("fl.engine.train", 4.0, **{"fl.engine.clients": 20})],
        **{
            "hardware.raspberry_pi.ledger_s": 0.5,
            "hardware.raspberry_pi.ledger_n": 3,
            "obs.observer.emit_s": 0.25,
            "obs.observer.emit_n": 5,
            "round": 0,
        },
    )
    return [span(harness.OP_SPAN, 10.0, [span("data.load", 2.0), loop])]


def test_self_time_subtracts_children_and_folded_leaves():
    loop = synthetic_forest()[0]["children"][1]
    assert harness.self_time(loop) == pytest.approx(7.0 - 4.0 - 0.5 - 0.25)


def test_fold_layers_sums_to_the_root_and_counts_calls():
    seconds, counts = harness.fold_layers(synthetic_forest())
    assert seconds == pytest.approx(
        {
            harness.OP_SPAN: 1.0,
            "data.load": 2.0,
            "fl.training.loop": 2.25,
            "fl.engine.train": 4.0,
            "hardware.raspberry_pi.ledger": 0.5,
            "obs.observer.emit": 0.25,
        }
    )
    assert sum(seconds.values()) == pytest.approx(10.0)
    assert counts == {
        "fl.engine.clients": 20,
        "hardware.raspberry_pi.ledger.calls": 3,
        "obs.observer.emit.calls": 5,
    }


def test_residual_is_the_time_in_no_named_layer():
    assert harness.residual_share(
        synthetic_forest(), set(harness.LAYERS)
    ) == pytest.approx(0.1)


def test_layer_metrics_are_per_operation_shares_and_counts():
    forest = synthetic_forest() * 2
    metrics = harness.layer_metrics(forest, n_ops=2, jobs=1)
    assert metrics["fl.engine.train_s"] == pytest.approx(4.0)
    assert metrics["fl.engine.train_share"] == pytest.approx(0.4)
    assert metrics["hardware.raspberry_pi.calls"] == 3
    assert metrics["obs.observer.events"] == 5
    assert metrics["trace.residual_share"] == pytest.approx(0.1)
    assert metrics["perf.scheduler.busy_share"] == 0.0


def test_busy_share_counts_worker_roots_against_the_pass():
    forest = [
        span(harness.OP_SPAN, 10.0, [span("campaign.runner.pass", 8.0)]),
        span("campaign.runner.unit", 6.0, worker=101),
        span("campaign.runner.unit", 6.0, worker=102),
    ]
    metrics = harness.layer_metrics(forest, n_ops=1, jobs=2)
    assert metrics["perf.scheduler.busy_share"] == pytest.approx(12.0 / 16.0)


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert harness.tail_percentile(values) == (90.0, 90.0)
    percentile, value = harness.tail_percentile(list(range(160)))
    assert percentile == pytest.approx(93.75)
    assert sum(1 for v in range(160) if v > value) == 10


def test_tail_percentile_needs_more_than_ten_samples():
    assert harness.tail_percentile([1.0] * 10) is None
    assert harness.tail_percentile([float(v) for v in range(11)]) == (
        pytest.approx(100 / 11),
        0.0,
    )


def test_relative_iqr_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, q2, q3 = harness.quartiles(values)
    assert harness.relative_iqr(values) == pytest.approx((q3 - q1) / q2)


# ----------------------------------------------------------------------
# compare.py's decision rule.
# ----------------------------------------------------------------------

PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def test_a_consistent_large_improvement_is_a_gain():
    change = [v * 0.8 for v in PARENT]
    assert compare.decide(PARENT, change, "lower", 0.1)[0] == "gain"
    assert compare.decide(PARENT, change, "higher", 0.1)[0] == "regression"


def test_no_gain_without_alternated_pairs():
    change = [v * 0.8 for v in PARENT]
    verdict, _ = compare.decide(PARENT, change, "lower", 0.1, alternating=False)
    assert verdict == "no regression"


def test_a_gain_needs_nine_wins_in_ten():
    change = [v * 0.8 for v in PARENT[:8]] + [v * 1.01 for v in PARENT[8:]]
    verdict, evidence = compare.decide(PARENT, change, "lower", 0.1)
    assert evidence["wins"] == 8
    assert verdict == "no regression"


def test_a_gain_needs_the_medians_apart_by_more_than_the_parent_iqr():
    change = [v - 0.01 for v in PARENT]
    verdict, evidence = compare.decide(PARENT, change, "lower", 0.1)
    assert evidence["wins"] == 10
    assert verdict == "no regression"


def test_a_worsening_beyond_the_bound_is_a_regression():
    change = [v * 1.2 for v in PARENT]
    assert compare.decide(PARENT, change, "lower", 0.1)[0] == "regression"
    assert compare.decide(PARENT, change, "lower", 0.3)[0] == "no regression"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert compare.decide(PARENT, noisy, "lower", 0.1)[0] == "unresolved"
    # ... unless every run of the change reads better than every parent run.
    better = [v * 0.5 for v in noisy]
    assert compare.decide(PARENT, better, "lower", 0.1)[0] != "unresolved"


def test_fewer_than_ten_pairs_decide_nothing():
    assert compare.decide(PARENT[:9], PARENT[:9], "lower", 0.1)[0] == "too few pairs"


def test_more_failed_operations_fail_the_change():
    assert compare.failure_share([{"attempted": 4, "failed": 1}]) == 0.25
    assert compare.failure_share([{"attempted": 0, "failed": 0}]) == 0.0


# ----------------------------------------------------------------------
# Names.
# ----------------------------------------------------------------------


def test_every_metric_name_is_well_formed():
    benchmark = harness.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    names += [m["name"] for m in benchmark["end_to_end"]]
    names += [m["name"] for m in benchmark["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names + list(harness.END_TO_END) + list(harness.per_layer_metrics()):
        assert harness.NAME_RE.fullmatch(name), name


def test_run_output_names_agree_with_benchmark_json():
    benchmark = harness.load_benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(harness.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in benchmark["end_to_end"]
    } == harness.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in benchmark["per_layer"]
    } == harness.per_layer_metrics()
    # setup_s carries the largest bound, and every bound is admissible.
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_the_workload_process_reports_exactly_the_listed_metrics():
    import run
    import workloads

    ops = [
        {
            "setup_s": 1.0,
            "run_s": 2.0,
            "rounds": [0.1] * 12,
            "participants": 40,
            "units": 25,
            "pass_s": 1.5,
            "read_s": [0.1],
        }
    ]
    assert set(workloads.end_to_end(ops)) == set(harness.END_TO_END)
    plain = {"e2e": workloads.end_to_end(ops), "extras": workloads.extras(ops)}
    traced = {
        "e2e": plain["e2e"],
        "layers": harness.layer_metrics(synthetic_forest(), 1, 1),
    }
    assert set(run.per_layer(plain, traced)) == set(harness.per_layer_metrics())


# ----------------------------------------------------------------------
# Reference gate.
# ----------------------------------------------------------------------


def test_reference_covers_seeds_zero_and_one_of_every_workload():
    reference = harness.load_reference()
    for workload in harness.WORKLOADS:
        assert set(reference[workload]) >= {"0", "1"}, workload


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_the_reference_gate_fails_on_a_perturbed_reference(workload):
    reference = harness.load_reference()
    outputs = copy.deepcopy(reference[workload]["0"])
    assert harness.check_reference(reference, workload, 0, outputs) == (
        "match",
        [],
    )
    perturbed = copy.deepcopy(reference)
    entry = perturbed[workload]["0"]
    if workload == "campaign-grid":
        entry = next(iter(entry["units"].values()))
    entry["total_energy_j"] *= 1 + 1e-6
    status, problems = harness.check_reference(perturbed, workload, 0, outputs)
    assert status == "mismatch"
    assert any("total_energy_j" in p for p in problems)
    assert harness.check_reference(reference, workload, 7, outputs)[0] == "unchecked"


def test_compare_outputs_is_exact_on_everything_but_floats():
    assert harness.compare_outputs({"a": 1.0}, {"a": 1.0 + 1e-12}) == []
    assert harness.compare_outputs({"a": 1}, {"a": 2})
    assert harness.compare_outputs({"a": [1, 2]}, {"a": [1]})
    assert harness.compare_outputs({"a": None}, {"a": 0.0})
    assert harness.compare_outputs({"a": 1.0}, {"b": 1.0})


# ----------------------------------------------------------------------
# The bare benchmark directory.
# ----------------------------------------------------------------------


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(harness.BENCHMARK_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        harness.HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "faults-1k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
