"""The ``repro campaign`` subcommand and the shared CLI flag surface."""

from __future__ import annotations

import pytest

from repro.campaign import ArtifactStore, CampaignRunner, CampaignSpec
from repro.experiments.runner import build_parser, main

pytestmark = pytest.mark.campaign_smoke


class TestSharedFlags:
    """One parent parser supplies the cross-cutting flags everywhere."""

    @pytest.mark.parametrize("command", ["fig5", "resilience", "all"])
    def test_experiment_subcommands_accept_common_flags(
        self, command: str
    ) -> None:
        args = build_parser().parse_args(
            [command, "--backend", "pool", "--quorum", "2"]
        )
        assert args.backend == "pool"
        assert args.quorum == 2
        assert args.scale == "tiny"

    def test_campaign_accepts_common_flags(self, tmp_path) -> None:
        args = build_parser().parse_args(
            [
                "campaign",
                "run",
                "--backend",
                "batched",
                "--fault-plan",
                str(tmp_path / "plan.json"),
                "--quorum",
                "3",
                "--telemetry",
                str(tmp_path / "t.jsonl"),
            ]
        )
        assert args.experiment == "campaign"
        assert args.action == "run"
        assert args.backend == "batched"
        assert args.quorum == 3
        assert args.telemetry is not None

    def test_backend_defaults_to_none_everywhere(self) -> None:
        # None means "no override": experiments fall back to sequential,
        # campaigns respect each unit's own spec.
        assert build_parser().parse_args(["fig5"]).backend is None
        assert (
            build_parser().parse_args(["campaign", "status"]).backend is None
        )

    def test_campaign_rejects_unknown_action(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "destroy"])

    def test_quorum_validated_before_dispatch(self, capsys) -> None:
        assert main(["campaign", "run", "--quorum", "0"]) == 2
        assert "--quorum" in capsys.readouterr().err


class TestCampaignCli:
    def test_init_writes_loadable_spec(self, tmp_path, capsys) -> None:
        path = tmp_path / "sweep.json"
        assert main(["campaign", "init", "--spec", str(path)]) == 0
        assert "wrote demo campaign spec" in capsys.readouterr().out
        demo = CampaignSpec.load(path)
        assert len(demo) > 1

    def test_init_without_spec_fails(self, tmp_path, capsys) -> None:
        assert main(["campaign", "init"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_run_interrupt_resume_and_status(
        self, tmp_path, capsys, tiny_campaign: CampaignSpec
    ) -> None:
        spec_path = tmp_path / "campaign.json"
        tiny_campaign.save(spec_path)
        store_dir = tmp_path / "artifacts"

        # First pass: stop after two units, checkpointed.
        assert (
            main(
                [
                    "campaign",
                    "run",
                    "--spec",
                    str(spec_path),
                    "--dir",
                    str(store_dir),
                    "--max-units",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 units run" in out
        assert "interrupted" in out
        assert "to resume" in out

        # Second pass resumes from the store alone (no --spec needed).
        assert main(["campaign", "run", "--dir", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 units run, 2 resumed from artifacts" in out
        assert "Mean energy (J) per (K, E) cell" in out

        # Status: complete and integrity-clean.
        assert main(["campaign", "status", "--dir", str(store_dir)]) == 0
        captured = capsys.readouterr()
        assert "4/4 units complete" in captured.out
        assert captured.err == ""

    def test_status_flags_corruption(
        self, tmp_path, capsys, tiny_campaign: CampaignSpec
    ) -> None:
        store = ArtifactStore(tmp_path / "artifacts")
        CampaignRunner(tiny_campaign, store).run(max_units=1)
        key = next(iter(store.completed_keys()))
        (store.unit_dir(key) / "result.json").unlink()
        assert main(["campaign", "status", "--dir", str(store.root)]) == 1
        assert "integrity" in capsys.readouterr().err

    def test_status_without_store_fails(self, tmp_path, capsys) -> None:
        missing = tmp_path / "nowhere"
        assert main(["campaign", "status", "--dir", str(missing)]) == 2
        assert "no campaign store" in capsys.readouterr().err

    def test_report_regenerates_grid_without_training(
        self, tmp_path, capsys, monkeypatch, tiny_campaign: CampaignSpec
    ) -> None:
        store = ArtifactStore(tmp_path / "artifacts")
        CampaignRunner(tiny_campaign, store).run()
        capsys.readouterr()

        # From here on, any training attempt is an error: the report
        # must come from stored artifacts alone.
        def _no_training(*args, **kwargs):
            raise AssertionError("report must not re-run training")

        monkeypatch.setattr(
            "repro.hardware.prototype.HardwarePrototype.run", _no_training
        )
        monkeypatch.setattr(
            "repro.campaign.runner.CampaignRunner.run_unit", _no_training
        )
        assert main(["campaign", "report", "--dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "4 completed units" in out
        assert "Mean energy (J) per (K, E) cell" in out
        assert "best plan: K=" in out
        assert "saving vs (K=1, E=1) baseline" in out

    def test_report_without_store_fails(self, tmp_path, capsys) -> None:
        assert main(["campaign", "report", "--dir", str(tmp_path / "x")]) == 2
        assert "no campaign store" in capsys.readouterr().err

    def test_run_backend_override_rewrites_unit_specs(
        self, tmp_path, capsys, tiny_campaign: CampaignSpec
    ) -> None:
        spec_path = tmp_path / "campaign.json"
        tiny_campaign.save(spec_path)
        store_dir = tmp_path / "artifacts"
        assert (
            main(
                [
                    "campaign",
                    "run",
                    "--spec",
                    str(spec_path),
                    "--dir",
                    str(store_dir),
                    "--backend",
                    "batched",
                    "--max-units",
                    "1",
                ]
            )
            == 0
        )
        capsys.readouterr()
        store = ArtifactStore(store_dir)
        (artifact,) = list(store.units())
        assert artifact.spec().backend == "batched"
        # The store is bound to the overridden campaign, so resuming
        # the original spec into it is refused.
        assert store.campaign_key() != tiny_campaign.key()


class TestSupervisionCli:
    def _solo_spec_path(self, tmp_path, tiny_spec):
        campaign = CampaignSpec(name="solo", base=tiny_spec)
        path = tmp_path / "spec.json"
        campaign.save(path)
        return path, campaign

    def _chaos_path(self, tmp_path, kind="crash", times=-1):
        from repro.faults import ChaosPlan, Saboteur

        plan = ChaosPlan.build({"solo": Saboteur(kind=kind, times=times)})
        path = tmp_path / "chaos.json"
        path.write_text(plan.to_json())
        return path

    def test_parser_accepts_supervision_flags(self) -> None:
        args = build_parser().parse_args(
            [
                "campaign",
                "run",
                "--retries",
                "5",
                "--unit-timeout",
                "30",
                "--retry-quarantined",
                "--chaos-plan",
                "plan.json",
            ]
        )
        assert args.retries == 5
        assert args.unit_timeout == 30.0
        assert args.retry_quarantined is True
        assert args.chaos_plan == "plan.json"
        assert args.no_supervise is False
        doctor = build_parser().parse_args(
            ["campaign", "doctor", "--dir", "d", "--repair"]
        )
        assert doctor.action == "doctor"
        assert doctor.repair is True

    def test_chaos_run_exits_degraded_then_heals(
        self, tmp_path, capsys, tiny_spec
    ) -> None:
        spec_path, campaign = self._solo_spec_path(tmp_path, tiny_spec)
        chaos_path = self._chaos_path(tmp_path)
        store = tmp_path / "store"
        code = main(
            [
                "campaign",
                "run",
                "--spec",
                str(spec_path),
                "--dir",
                str(store),
                "--chaos-plan",
                str(chaos_path),
                "--retries",
                "0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "1 QUARANTINED" in captured.out
        assert "DEGRADED" in captured.err
        assert "--retry-quarantined" in captured.err

        # status flags the quarantined unit with a non-zero exit...
        assert main(["campaign", "status", "--dir", str(store)]) == 1
        out = capsys.readouterr().out
        assert "1 quarantined" in out

        # ... and a fresh budget (chaos gone) heals to a clean exit.
        assert (
            main(
                [
                    "campaign",
                    "run",
                    "--dir",
                    str(store),
                    "--retry-quarantined",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["campaign", "status", "--dir", str(store)]) == 0

    def test_no_supervise_restores_fail_fast(
        self, tmp_path, capsys, tiny_spec
    ) -> None:
        from repro.faults import ChaosError

        spec_path, _ = self._solo_spec_path(tmp_path, tiny_spec)
        chaos_path = self._chaos_path(tmp_path)
        with pytest.raises(ChaosError):
            main(
                [
                    "campaign",
                    "run",
                    "--spec",
                    str(spec_path),
                    "--dir",
                    str(tmp_path / "store"),
                    "--chaos-plan",
                    str(chaos_path),
                    "--no-supervise",
                ]
            )

    def test_doctor_diagnoses_and_repairs_with_exit_codes(
        self, tmp_path, capsys, tiny_spec
    ) -> None:
        spec_path, _ = self._solo_spec_path(tmp_path, tiny_spec)
        store = tmp_path / "store"
        assert (
            main(
                ["campaign", "run", "--spec", str(spec_path), "--dir", str(store)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["campaign", "doctor", "--dir", str(store)]) == 0
        assert "healthy" in capsys.readouterr().out

        index_filename = ArtifactStore(store).index_filename
        (store / index_filename).unlink()
        assert main(["campaign", "doctor", "--dir", str(store)]) == 1
        assert f"{index_filename} missing" in capsys.readouterr().out
        assert (
            main(["campaign", "doctor", "--dir", str(store), "--repair"]) == 0
        )
        out = capsys.readouterr().out
        assert "adopted orphan" in out
        # Zero retraining afterwards: the run resumes from artifacts.
        assert main(["campaign", "run", "--dir", str(store)]) == 0
        assert "0 units run, 1 resumed from artifacts" in capsys.readouterr().out

    def test_doctor_without_store_exits_2(self, tmp_path, capsys) -> None:
        assert (
            main(["campaign", "doctor", "--dir", str(tmp_path / "nope")]) == 2
        )
        assert "no campaign store" in capsys.readouterr().err
