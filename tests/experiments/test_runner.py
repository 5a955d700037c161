"""Unit tests for the CLI experiment runner."""

from __future__ import annotations

import pytest

from repro.experiments import runner
from repro.experiments.runner import SCALES, build_parser, main


class TestParser:
    def test_parses_experiment_and_scale(self) -> None:
        args = build_parser().parse_args(["fig5", "--scale", "test"])
        assert args.experiment == "fig5"
        assert args.scale == "test"

    def test_default_scale_is_tiny(self) -> None:
        args = build_parser().parse_args(["table1"])
        assert args.scale == "tiny"

    def test_rejects_unknown_experiment(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7"])

    def test_rejects_unknown_scale(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--scale", "huge"])

    def test_all_is_accepted(self) -> None:
        assert build_parser().parse_args(["all"]).experiment == "all"


class TestScales:
    def test_three_scales_registered(self) -> None:
        assert set(SCALES) == {"tiny", "test", "paper"}

    def test_scales_ordered_by_size(self) -> None:
        assert (
            SCALES["tiny"].n_train
            < SCALES["test"].n_train
            < SCALES["paper"].n_train
        )


class TestMain:
    def test_table1_runs_and_prints(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "c0" in out

    def test_fig3_runs_and_prints(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "training" in out

    def test_plan_runs_at_tiny_scale(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["plan", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "EE-FEI plan" in out
        assert "Calibrated constants" in out

    def test_frontier_runs_at_tiny_scale(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["frontier", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "deadline" in out

    def test_sensitivity_runs_at_tiny_scale(
        self, capsys: pytest.CaptureFixture
    ) -> None:
        assert main(["sensitivity", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "regret" in out

    def test_calibration_cached_across_invocations(
        self, capsys: pytest.CaptureFixture
    ) -> None:
        # A second plan run without telemetry must reuse the calibrated
        # system (same object identity).
        assert main(["plan", "--scale", "tiny"]) == 0
        before = runner._CALIBRATION_CACHE["tiny/sequential"]
        assert main(["plan", "--scale", "tiny"]) == 0
        assert runner._CALIBRATION_CACHE["tiny/sequential"] is before


@pytest.mark.telemetry_smoke
class TestTelemetry:
    def test_telemetry_flag_writes_jsonl(
        self, tmp_path, capsys: pytest.CaptureFixture
    ) -> None:
        from repro.obs import EventLog

        out = tmp_path / "telemetry.jsonl"
        assert main(["fig3", "--telemetry", str(out)]) == 0
        captured = capsys.readouterr()
        assert "Fig. 3" in captured.out
        assert "telemetry:" in captured.err
        assert "experiment.duration_s" in captured.err

        log = EventLog.load_jsonl(out)
        categories = log.categories()
        assert categories["experiment.start"] == 1
        assert categories["experiment.end"] == 1
        assert log[-1].category == "metrics.snapshot"
        end = log.filter("experiment.end")[0]
        assert end.fields["experiment"] == "fig3"
        assert end.fields["duration_s"] > 0

    def test_telemetry_after_a_cached_calibration(
        self, tmp_path, monkeypatch: pytest.MonkeyPatch, capsys
    ) -> None:
        # A system calibrated without telemetry must not be reused by a
        # later --telemetry call: its prototype would report to no one.
        from repro.obs import EventLog

        monkeypatch.setattr(
            runner, "_CALIBRATION_CACHE", dict(runner._CALIBRATION_CACHE)
        )
        assert main(["plan", "--scale", "tiny"]) == 0
        out = tmp_path / "telemetry.jsonl"
        assert main(["plan", "--scale", "tiny", "--telemetry", str(out)]) == 0
        categories = EventLog.load_jsonl(out).categories()
        assert categories.get("round.end", 0) > 0
        assert categories.get("prototype.round", 0) == categories["round.end"]

    def test_no_telemetry_leaves_observer_unset(self) -> None:
        assert main(["table1"]) == 0
        assert runner._ACTIVE_OBSERVER is None
