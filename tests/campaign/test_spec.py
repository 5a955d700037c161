"""RunSpec/CampaignSpec: round-trips, deterministic keys, validation."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaign import (
    CampaignSpec,
    FaultAxis,
    ResilienceAxis,
    RunSpec,
    make_demo_campaign,
)
from repro.experiments.config import ExperimentScale
from repro.faults import FaultPlan, ResilienceConfig, RetryPolicy, make_demo_plan
from repro.fl.training import FederatedConfig

pytestmark = pytest.mark.campaign_smoke


class TestRunSpecRoundTrip:
    def test_dict_round_trip_is_identity(self, tiny_spec: RunSpec) -> None:
        assert RunSpec.from_dict(tiny_spec.to_dict()) == tiny_spec

    def test_json_round_trip_is_identity(self, tiny_spec: RunSpec) -> None:
        assert RunSpec.from_json(tiny_spec.to_json(indent=2)) == tiny_spec

    def test_round_trip_preserves_fault_and_resilience(self) -> None:
        spec = RunSpec(
            n_servers=8,
            participants=2,
            fault_plan=make_demo_plan(8, seed=3),
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_retries=3),
                upload_timeout_s=30.0,
                min_quorum=2,
            ),
        )
        back = RunSpec.from_json(spec.to_json())
        assert back == spec
        assert back.fault_plan == spec.fault_plan
        assert back.resilience == spec.resilience

    def test_rejects_unknown_schema(self, tiny_spec: RunSpec) -> None:
        data = tiny_spec.to_dict()
        data["schema"] = "repro.run-spec/999"
        with pytest.raises(ValueError, match="schema"):
            RunSpec.from_dict(data)

    def test_rejects_missing_field(self, tiny_spec: RunSpec) -> None:
        data = tiny_spec.to_dict()
        del data["participants"]
        with pytest.raises(ValueError, match="malformed"):
            RunSpec.from_dict(data)


class TestRunSpecValidation:
    def test_rejects_bad_backend(self) -> None:
        with pytest.raises(ValueError, match="backend"):
            RunSpec(backend="gpu")

    def test_rejects_zero_participants(self) -> None:
        with pytest.raises(ValueError, match="participants"):
            RunSpec(participants=0)

    def test_rejects_participants_beyond_testbed(self) -> None:
        with pytest.raises(ValueError, match="n_servers"):
            RunSpec(n_servers=4, participants=3, overselection=2)

    def test_projects_onto_legacy_trio(self, tiny_spec: RunSpec) -> None:
        scale = tiny_spec.scale()
        federated = tiny_spec.federated_config()
        assert scale.n_servers == tiny_spec.n_servers
        assert federated.participants_per_round == tiny_spec.participants
        assert federated.local_epochs == tiny_spec.epochs
        # Fixed-budget mode: no early-stop target on the training config.
        assert federated.target_accuracy is None

    def test_from_components_round_trips_the_trio(self) -> None:
        scale = ExperimentScale(
            name="combo",
            n_train=400,
            n_test=100,
            n_servers=8,
            max_rounds=10,
            target_accuracy=0.7,
        )
        federated = FederatedConfig(
            n_rounds=10,
            participants_per_round=4,
            local_epochs=5,
            sgd=scale.sgd_config(),
            target_accuracy=0.7,
            backend="batched",
        )
        spec = RunSpec.from_components(scale, federated)
        assert spec.participants == 4
        assert spec.epochs == 5
        assert spec.backend == "batched"
        assert spec.train_to_target is True
        assert spec.scale() == scale


class TestRunSpecKeys:
    def test_key_is_deterministic(self, tiny_spec: RunSpec) -> None:
        assert tiny_spec.key() == tiny_spec.key()
        assert tiny_spec.key() == RunSpec.from_dict(tiny_spec.to_dict()).key()

    def test_key_survives_json_field_reordering(
        self, tiny_spec: RunSpec
    ) -> None:
        shuffled = dict(reversed(list(tiny_spec.to_dict().items())))
        assert RunSpec.from_dict(json.loads(json.dumps(shuffled))).key() == (
            tiny_spec.key()
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 1},
            {"epochs": 3},
            {"backend": "batched"},
            {"max_rounds": 4},
            {"train_to_target": True},
        ],
    )
    def test_any_semantic_change_changes_key(
        self, tiny_spec: RunSpec, change: dict
    ) -> None:
        assert dataclasses.replace(tiny_spec, **change).key() != tiny_spec.key()

    @pytest.mark.parametrize("change", [{"telemetry": True}])
    def test_result_neutral_knobs_do_not_change_key(
        self, tiny_spec: RunSpec, change: dict
    ) -> None:
        # Telemetry cannot change what a run computes; toggling it on a
        # finished campaign must not invalidate its completed units.
        assert dataclasses.replace(tiny_spec, **change).key() == tiny_spec.key()

    def test_a_stored_pool_spec_with_its_worker_count_still_loads(
        self,
    ) -> None:
        # A unit's spec.json as written while the pool backend ran worker
        # processes, with their count, which never entered the key.  The
        # key below was computed by that release.
        document = {
            "schema": "repro.run-spec/1",
            "name": "run",
            "n_train": 2000,
            "n_test": 600,
            "n_servers": 20,
            "participants": 1,
            "epochs": 1,
            "max_rounds": 150,
            "target_accuracy": 0.82,
            "train_to_target": True,
            "l2": 0.001,
            "seed": 0,
            "noise_std": 0.25,
            "dropout_probability": 0.0,
            "proximal_mu": 0.0,
            "overselection": 0,
            "backend": "pool",
            "pool_workers": 2,
            "tiers": 0,
            "population_dtype": "float64",
            "telemetry": False,
            "fault_plan": None,
            "resilience": None,
        }
        spec = RunSpec.from_dict(document)
        assert spec.backend == "pool"
        assert spec.key() == "e68aa65386ee519d"
        assert RunSpec.from_json(json.dumps(document)) == spec
        # The document format is unchanged, so new units keep the bytes.
        assert spec.to_dict() == document
        assert list(spec.to_dict()) == list(document)

    def test_result_neutral_knobs_do_not_change_campaign_key(
        self, tiny_campaign: CampaignSpec
    ) -> None:
        toggled = dataclasses.replace(
            tiny_campaign,
            base=dataclasses.replace(tiny_campaign.base, telemetry=True),
        )
        assert toggled.key() == tiny_campaign.key()


class TestCampaignSpec:
    def test_expand_is_deterministic_row_major(
        self, tiny_campaign: CampaignSpec
    ) -> None:
        first = tiny_campaign.expand()
        second = tiny_campaign.expand()
        assert first == second
        assert [u.key() for u in first] == [u.key() for u in second]
        assert [(u.participants, u.epochs) for u in first] == [
            (1, 1),
            (1, 2),
            (2, 1),
            (2, 2),
        ]

    def test_len_matches_axis_product(self, tiny_campaign: CampaignSpec) -> None:
        assert len(tiny_campaign) == 4
        assert len(tiny_campaign.expand()) == 4

    def test_empty_axes_pin_to_base(self, tiny_spec: RunSpec) -> None:
        campaign = CampaignSpec(name="single", base=tiny_spec)
        (unit,) = campaign.expand()
        assert unit.participants == tiny_spec.participants
        assert unit.epochs == tiny_spec.epochs
        assert unit.seed == tiny_spec.seed

    def test_unit_keys_are_unique(self, tiny_campaign: CampaignSpec) -> None:
        keys = [u.key() for u in tiny_campaign.expand()]
        assert len(keys) == len(set(keys))

    def test_json_round_trip_preserves_keys(
        self, tiny_campaign: CampaignSpec
    ) -> None:
        back = CampaignSpec.from_json(tiny_campaign.to_json(indent=2))
        assert back == tiny_campaign
        assert back.key() == tiny_campaign.key()
        assert [u.key() for u in back.expand()] == [
            u.key() for u in tiny_campaign.expand()
        ]

    def test_round_trip_with_fault_and_resilience_axes(
        self, tiny_spec: RunSpec
    ) -> None:
        campaign = CampaignSpec(
            name="faulted",
            base=tiny_spec,
            faults=(
                FaultAxis(label="clean"),
                FaultAxis(label="demo", plan=make_demo_plan(4, seed=0)),
            ),
            resiliences=(
                ResilienceAxis(label="none"),
                ResilienceAxis(
                    label="quorum1", config=ResilienceConfig(min_quorum=1)
                ),
            ),
        )
        back = CampaignSpec.from_json(campaign.to_json())
        assert back == campaign
        assert len(back) == 4

    def test_save_load_round_trip(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        path = tmp_path / "campaign.json"
        tiny_campaign.save(path)
        assert CampaignSpec.load(path) == tiny_campaign

    def test_rejects_duplicate_axis_values(self, tiny_spec: RunSpec) -> None:
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(name="dup", base=tiny_spec, participants=(1, 1))

    def test_rejects_invalid_grid_cell(self, tiny_spec: RunSpec) -> None:
        # K=8 exceeds the base's 4-server testbed: fail at declaration.
        with pytest.raises(ValueError, match="n_servers"):
            CampaignSpec(name="bad", base=tiny_spec, participants=(1, 8))

    def test_demo_campaign_is_a_valid_fixed_budget_grid(self) -> None:
        demo = make_demo_campaign()
        assert len(demo) == len(demo.participants) * len(demo.epochs)
        assert all(not u.train_to_target for u in demo.expand())


class TestDeprecationShims:
    @pytest.mark.parametrize(
        "name", ["ExperimentScale", "FederatedConfig", "ResilienceConfig"]
    )
    def test_top_level_legacy_names_warn(self, name: str) -> None:
        import repro

        with pytest.warns(DeprecationWarning, match=name):
            obj = getattr(repro, name)
        assert obj.__name__ == name

    def test_unknown_attribute_still_raises(self) -> None:
        import repro

        with pytest.raises(AttributeError):
            repro.NoSuchThing
