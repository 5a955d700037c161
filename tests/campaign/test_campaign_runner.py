"""CampaignRunner: spec knobs reach the trainer; overrides stay consistent.

Two regression families live here.  First, ``run_unit`` must hand the
unit's *full* ``FederatedConfig`` projection to the training stack — a
spec declaring ``dropout_probability=0.3`` must actually train with
dropout, because the artifact store records (and content-keys) the spec
as what ran.  Second, grid-wide overrides rewrite the campaign itself
and the unit list is the rewritten campaign's expansion, so the stored
``campaign.json``, ``len(campaign)``, and every unit name/key describe
exactly the units that run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignRunner,
    CampaignSpec,
    ResilienceAxis,
    RunSpec,
)
from repro.faults import ResilienceConfig, make_demo_plan
from repro.fl.history_io import history_to_json

pytestmark = pytest.mark.campaign_smoke


class TestRunUnitHonorsSpec:
    def test_trainer_receives_the_spec_federated_config(
        self, tmp_path, monkeypatch, tiny_spec: RunSpec
    ) -> None:
        # Spy on the trainer construction: the config it receives must
        # be exactly the spec's projection, including the knobs the old
        # loop arguments could not express.
        import repro.hardware.prototype as prototype_module

        captured: dict = {}
        real_trainer = prototype_module.FederatedTrainer

        def spy(*args, **kwargs):
            captured["config"] = kwargs["config"]
            return real_trainer(*args, **kwargs)

        monkeypatch.setattr(prototype_module, "FederatedTrainer", spy)
        spec = dataclasses.replace(
            tiny_spec,
            dropout_probability=0.25,
            proximal_mu=0.5,
        )
        runner = CampaignRunner(
            CampaignSpec(name="knobs", base=spec),
            ArtifactStore(tmp_path / "store"),
        )
        runner.run_unit(spec)
        config = captured["config"]
        assert config == spec.federated_config()
        assert config.dropout_probability == 0.25
        assert config.proximal_mu == 0.5

    def test_dropout_probability_changes_what_trains(
        self, tmp_path, tiny_spec: RunSpec
    ) -> None:
        # End-to-end: a spec with heavy dropout must produce a different
        # training history than the clean spec (before the fix both
        # trained identically with the default, dropout-free config).
        dropped = dataclasses.replace(tiny_spec, dropout_probability=0.9)
        runner = CampaignRunner(
            CampaignSpec(name="dropout", base=tiny_spec),
            ArtifactStore(tmp_path / "store"),
        )
        clean_history = history_to_json(runner.run_unit(tiny_spec).history)
        dropped_history = history_to_json(runner.run_unit(dropped).history)
        assert clean_history != dropped_history


class TestOverrideConsistency:
    def test_backend_override_collapses_the_backend_axis(
        self, tmp_path, tiny_spec: RunSpec
    ) -> None:
        # A --backend override over a 2-backend axis must run ONE unit,
        # not the identical computation twice under stale labels.
        campaign = CampaignSpec(
            name="engines",
            base=tiny_spec,
            backends=("sequential", "batched"),
        )
        store = ArtifactStore(tmp_path / "store")
        runner = CampaignRunner(campaign, store, backend_override="batched")
        assert len(runner.units) == 1
        assert len(runner.units) == len(runner.campaign)
        (unit,) = runner.units
        assert unit.backend == "batched"
        assert "sequential" not in unit.name
        # The stored campaign.json describes the same units, so status
        # denominators computed from it are correct.
        assert store.campaign().key() == runner.campaign.key()
        assert len(store.campaign()) == len(runner.units)
        summary = runner.run()
        assert summary.executed == 1
        assert len(store.completed_keys()) == 1

    def test_fault_plan_override_collapses_the_fault_axis(
        self, tmp_path, tiny_spec: RunSpec
    ) -> None:
        from repro.campaign import FaultAxis

        plan = make_demo_plan(tiny_spec.n_servers, seed=7)
        campaign = CampaignSpec(
            name="faulted",
            base=tiny_spec,
            faults=(
                FaultAxis(label="clean"),
                FaultAxis(
                    label="demo",
                    plan=make_demo_plan(tiny_spec.n_servers, seed=0),
                ),
            ),
        )
        runner = CampaignRunner(
            campaign,
            ArtifactStore(tmp_path / "store"),
            fault_plan_override=plan,
        )
        assert len(runner.units) == 1
        assert len(runner.units) == len(runner.campaign)
        assert runner.units[0].fault_plan == plan

    def test_quorum_override_preserves_the_resilience_axis(
        self, tmp_path, tiny_spec: RunSpec
    ) -> None:
        # Forcing min_quorum must not collapse a labelled resilience
        # axis: each point keeps its label and its other policy fields.
        campaign = CampaignSpec(
            name="policies",
            base=tiny_spec,
            resiliences=(
                ResilienceAxis(label="none"),
                ResilienceAxis(
                    label="strict",
                    config=ResilienceConfig(upload_timeout_s=30.0),
                ),
            ),
        )
        runner = CampaignRunner(
            campaign, ArtifactStore(tmp_path / "store"), quorum_override=2
        )
        assert len(runner.units) == 2
        assert len(runner.units) == len(runner.campaign)
        by_label = {
            unit.name.rsplit("-r.", 1)[1]: unit for unit in runner.units
        }
        assert set(by_label) == {"none", "strict"}
        assert all(u.resilience.min_quorum == 2 for u in runner.units)
        assert by_label["strict"].resilience.upload_timeout_s == 30.0

    def test_quorum_override_without_axis_rewrites_the_base(
        self, tmp_path, tiny_spec: RunSpec
    ) -> None:
        runner = CampaignRunner(
            CampaignSpec(name="single", base=tiny_spec),
            ArtifactStore(tmp_path / "store"),
            quorum_override=1,
        )
        (unit,) = runner.units
        assert unit.resilience is not None
        assert unit.resilience.min_quorum == 1

    def test_no_overrides_leave_the_campaign_untouched(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        runner = CampaignRunner(
            tiny_campaign, ArtifactStore(tmp_path / "store")
        )
        assert runner.campaign is tiny_campaign
        assert runner.units == tiny_campaign.expand()
