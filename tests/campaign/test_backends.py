"""The store's one index (SQLite) and the import of legacy JSON stores.

Completed units are indexed in a SQLite ``manifest.db``.  Stores written
before that kept a ``manifest.json`` document instead;
``data/legacy_json_store`` holds the bytes such a store left on disk
(the tiny 2x2 campaign plus one failure record).  ``migrate`` imports
one into a new directory, and the imported store must be observably
identical to the same campaign run today: the same unit keys, artifact
bytes, logical index, reports and CLI output.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignRepository,
    CampaignRunner,
    CampaignSpec,
    CampaignReport,
    StoreError,
    StoreHealthReport,
    migrate_store,
    open_store,
)
from repro.experiments.runner import main

pytestmark = pytest.mark.campaign_smoke

LEGACY_STORE = Path(__file__).parent / "data" / "legacy_json_store"
#: ``index_digest()`` the JSON index reported for the legacy store.
LEGACY_DIGEST = "32968dd1bbfe680c1eda40ae8ad6e3430e4c2c00a40dcabbdea0c9fde485f186"
#: The completed unit whose first attempt failed (``attempt-1.json``).
LEGACY_FAILED_KEY = "26cdca76036ad56e"


def _unit_fingerprint(root: Path) -> dict[str, bytes]:
    """Every artifact byte under ``units/`` plus the campaign binding."""
    fingerprint = {}
    units = root / "units"
    if units.exists():
        for path in sorted(units.rglob("*")):
            if path.is_file():
                fingerprint[str(path.relative_to(root))] = path.read_bytes()
    campaign = root / "campaign.json"
    if campaign.exists():
        fingerprint["campaign.json"] = campaign.read_bytes()
    return fingerprint


def _legacy_copy(tmp_path: Path) -> Path:
    """A writable copy of the legacy store."""
    return Path(shutil.copytree(LEGACY_STORE, tmp_path / "legacy"))


@pytest.fixture()
def both_stores(tmp_path, tiny_campaign: CampaignSpec):
    """The legacy store imported, and the same campaign run afresh."""
    migrate_store(LEGACY_STORE, tmp_path / "legacy")
    fresh = ArtifactStore(tmp_path / "fresh")
    CampaignRunner(tiny_campaign, fresh).run()
    return {"legacy": ArtifactStore(tmp_path / "legacy"), "fresh": fresh}


class TestDispatch:
    """``open_store`` opens the SQLite index and refuses anything else."""

    def test_explicit_sqlite(self, tmp_path) -> None:
        store = open_store(tmp_path / "new", backend="sqlite")
        assert type(store) is ArtifactStore
        assert type(open_store(tmp_path / "new")) is ArtifactStore

    def test_backend_mismatch_raises(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        with pytest.raises(StoreError, match="migrate"):
            open_store(tmp_path / "new", backend="json")
        legacy = _legacy_copy(tmp_path)
        with pytest.raises(StoreError, match="campaign migrate"):
            open_store(legacy)
        with pytest.raises(StoreError, match="campaign migrate"):
            CampaignRunner(tiny_campaign, legacy)
        assert not (legacy / "manifest.db").exists()

    def test_store_satisfies_repository_protocol(self, tmp_path) -> None:
        assert isinstance(ArtifactStore(tmp_path / "new"), CampaignRepository)


class TestParity:
    """An imported legacy store and a fresh run are observably identical."""

    def test_same_keys_and_artifact_bytes(self, both_stores) -> None:
        legacy, fresh = both_stores["legacy"], both_stores["fresh"]
        assert legacy.keys() == fresh.keys()
        assert _unit_fingerprint(legacy.root) == _unit_fingerprint(
            LEGACY_STORE
        )
        assert _unit_fingerprint(legacy.root) == _unit_fingerprint(fresh.root)

    def test_same_logical_index(self, both_stores) -> None:
        legacy, fresh = both_stores["legacy"], both_stores["fresh"]
        assert legacy.index_digest() == LEGACY_DIGEST
        assert fresh.index_digest() == LEGACY_DIGEST
        document = json.loads(
            (LEGACY_STORE / "manifest.json").read_text(encoding="utf-8")
        )
        assert legacy.manifest() == document == fresh.manifest()

    def test_same_histories(self, both_stores) -> None:
        for key in both_stores["legacy"].keys():
            legacy_unit = both_stores["legacy"].get(key)
            fresh_unit = both_stores["fresh"].get(key)
            assert legacy_unit.history().records == (
                fresh_unit.history().records
            )
            assert legacy_unit.result() == fresh_unit.result()

    def test_same_report_tables(self, both_stores) -> None:
        assert (
            CampaignReport.from_store(both_stores["legacy"]).render()
            == CampaignReport.from_store(both_stores["fresh"]).render()
        )

    def test_same_cli_report_output(self, both_stores, capsys) -> None:
        outputs = {}
        for origin, store in both_stores.items():
            assert (
                main(["campaign", "report", "--dir", str(store.root)]) == 0
            )
            outputs[origin] = capsys.readouterr().out
        assert outputs["legacy"] == outputs["fresh"]

    def test_prefix_scan_matches_filter(self, both_stores) -> None:
        for store in both_stores.values():
            key = store.keys()[0]
            prefix = key[:3]
            assert store.keys(prefix=prefix) == [
                k for k in store.keys() if k.startswith(prefix)
            ]

    def test_contains_is_membership(self, both_stores) -> None:
        for store in both_stores.values():
            for key in store.keys():
                assert store.contains(key)
            assert not store.contains("0" * 16)


class TestSqliteInvariants:
    """The store invariants the runner relies on."""

    def test_kill_and_resume_byte_identity(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        oneshot = ArtifactStore(tmp_path / "oneshot")
        CampaignRunner(tiny_campaign, oneshot).run()
        resumed = ArtifactStore(tmp_path / "resumed")
        CampaignRunner(tiny_campaign, resumed).run(max_units=2)
        assert len(resumed.keys()) == 2
        summary = CampaignRunner(tiny_campaign, resumed).run()
        assert summary.skipped == 2
        assert _unit_fingerprint(resumed.root) == _unit_fingerprint(
            oneshot.root
        )
        assert resumed.index_digest() == oneshot.index_digest()

    @pytest.mark.parallel_smoke
    def test_parallel_matches_sequential(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        sequential = ArtifactStore(tmp_path / "seq")
        CampaignRunner(tiny_campaign, sequential).run()
        parallel = ArtifactStore(tmp_path / "par")
        CampaignRunner(tiny_campaign, parallel).run(jobs=2)
        assert _unit_fingerprint(parallel.root) == _unit_fingerprint(
            sequential.root
        )
        assert parallel.index_digest() == sequential.index_digest()

    def test_doctor_rebuilds_deleted_index(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        store = ArtifactStore(tmp_path / "store")
        CampaignRunner(tiny_campaign, store).run()
        digest = store.index_digest()
        (store.root / "manifest.db").unlink()
        broken = ArtifactStore(store.root)
        report = broken.doctor(repair=True)
        assert "manifest.db missing" in report.problems
        assert sorted(report.adopted) == broken.keys()
        assert report.healthy
        assert broken.index_digest() == digest

    def test_doctor_quarantines_corrupt_unit(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        store = ArtifactStore(tmp_path / "store")
        CampaignRunner(tiny_campaign, store).run()
        victim = store.keys()[0]
        (store.unit_dir(victim) / "result.json").write_text(
            "garbage", encoding="utf-8"
        )
        report = store.doctor(repair=True)
        assert victim in report.quarantined
        assert not store.contains(victim)
        assert store.attempts_used(victim) == 1
        assert store.verify().healthy

    def test_store_at_rest_is_single_file_index(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        # Per-operation connections checkpoint the WAL on close, so
        # nothing but manifest.db survives a finished run.
        store = ArtifactStore(tmp_path / "store")
        CampaignRunner(tiny_campaign, store).run()
        assert not (store.root / "manifest.db-wal").exists()
        assert not (store.root / "manifest.db-shm").exists()


class TestHealthReport:
    """verify()/doctor() share one typed report, list-compatible."""

    def test_typed_and_list_compatible(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        store = ArtifactStore(tmp_path / "store")
        CampaignRunner(tiny_campaign, store).run(max_units=1)
        health = store.verify()
        assert isinstance(health, StoreHealthReport)
        assert health == []  # legacy list contract
        assert not health  # falsy when problem-free
        assert list(health) == []
        assert health.healthy
        assert health.checked == 1
        checkup = store.doctor()
        assert isinstance(checkup, StoreHealthReport)
        assert checkup.healthy

    def test_problems_surface_through_list_protocol(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        store = ArtifactStore(tmp_path / "store")
        CampaignRunner(tiny_campaign, store).run(max_units=1)
        key = store.keys()[0]
        (store.unit_dir(key) / "history.json").write_text(
            "{}", encoding="utf-8"
        )
        health = store.verify()
        assert health  # truthy when problems exist
        assert len(health) == 1
        assert any("checksum mismatch" in problem for problem in health)
        assert not health.healthy
        assert "integrity problem" in health.render()


class TestMigration:
    """``migrate`` imports a legacy ``manifest.json`` store."""

    def test_import_keeps_failure_trail_and_resumes_nothing(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        result = migrate_store(LEGACY_STORE, tmp_path / "dst")
        assert result.units == 4
        assert result.index_digest == LEGACY_DIGEST
        # campaign.json, 4 units x 3 files and the failure record.
        assert result.files_copied == 14
        store = ArtifactStore(tmp_path / "dst")
        assert store.verify() == []
        assert store.attempts_used(LEGACY_FAILED_KEY) == 1
        record_path = (
            LEGACY_STORE / "quarantine" / LEGACY_FAILED_KEY / "attempt-1.json"
        )
        assert store.failure_records(LEGACY_FAILED_KEY) == [
            json.loads(record_path.read_text(encoding="utf-8"))
        ]
        summary = CampaignRunner(tiny_campaign, store).run()
        assert summary.executed == 0
        assert summary.skipped == 4

    def test_import_keeps_recorded_checksums(self, tmp_path) -> None:
        # A unit byte changed after the manifest recorded it must still
        # fail verify() once imported: the recorded checksums carry over
        # instead of being recomputed from the bytes on disk.
        legacy = _legacy_copy(tmp_path)
        history = legacy / "units" / LEGACY_FAILED_KEY / "history.json"
        history.write_bytes(history.read_bytes().replace(b"0", b"1", 1))
        result = migrate_store(legacy, tmp_path / "dst")
        assert result.index_digest == LEGACY_DIGEST
        (problem,) = ArtifactStore(tmp_path / "dst").verify()
        assert problem.startswith(
            f"{LEGACY_FAILED_KEY}: checksum mismatch on history.json"
        )

    def test_refuses_an_index_that_disagrees_with_the_manifest(
        self, tmp_path
    ) -> None:
        legacy = _legacy_copy(tmp_path)
        manifest_path = legacy / "manifest.json"
        document = json.loads(manifest_path.read_text(encoding="utf-8"))
        document["campaign_name"] = "renamed"
        manifest_path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(StoreError, match="different logical index"):
            migrate_store(legacy, tmp_path / "dst")

    def test_refuses_nonempty_destination(self, tmp_path) -> None:
        occupied = tmp_path / "dst"
        occupied.mkdir()
        (occupied / "keep.txt").write_text("mine", encoding="utf-8")
        with pytest.raises(StoreError, match="not empty"):
            migrate_store(LEGACY_STORE, occupied)
        assert (occupied / "keep.txt").read_text(encoding="utf-8") == "mine"

    def test_refuses_missing_source(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        with pytest.raises(StoreError, match="no campaign store"):
            migrate_store(tmp_path / "nothing", tmp_path / "dst")
        # A store that already has a SQLite index has nothing to import.
        ArtifactStore(tmp_path / "sqlite").initialize(tiny_campaign)
        with pytest.raises(StoreError, match="no campaign store"):
            migrate_store(tmp_path / "sqlite", tmp_path / "dst")


class TestCli:
    """The campaign CLI over the SQLite store and the legacy import."""

    def test_run_status_with_sqlite_backend(
        self, tmp_path, tiny_campaign: CampaignSpec, capsys
    ) -> None:
        spec_path = tmp_path / "campaign.json"
        tiny_campaign.save(spec_path)
        store_dir = tmp_path / "store"
        assert (
            main(
                [
                    "campaign",
                    "run",
                    "--spec",
                    str(spec_path),
                    "--dir",
                    str(store_dir),
                ]
            )
            == 0
        )
        assert (store_dir / "manifest.db").exists()
        assert not (store_dir / "manifest.json").exists()
        capsys.readouterr()
        assert main(["campaign", "status", "--dir", str(store_dir)]) == 0
        assert "4/4 units complete" in capsys.readouterr().out

    def test_cli_migrate_imports_legacy_store(self, tmp_path, capsys) -> None:
        out = tmp_path / "imported"
        assert (
            main(
                [
                    "campaign",
                    "migrate",
                    "--dir",
                    str(LEGACY_STORE),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert "imported" in capsys.readouterr().out
        assert main(["campaign", "status", "--dir", str(out)]) == 0
        assert "4/4 units complete" in capsys.readouterr().out

    def test_cli_migrate_requires_out(self, tmp_path, capsys) -> None:
        assert main(["campaign", "migrate", "--dir", str(tmp_path)]) == 2
        assert "requires --out" in capsys.readouterr().err

    def test_cli_backend_mismatch_is_an_error(
        self, tmp_path, tiny_campaign: CampaignSpec, capsys
    ) -> None:
        # An un-imported legacy directory is refused by every action
        # that opens a store — doctor --repair included, which must not
        # adopt the units as orphans and drop their recorded checksums.
        legacy = _legacy_copy(tmp_path)
        spec_path = tmp_path / "campaign.json"
        tiny_campaign.save(spec_path)
        for action in (
            ["status"],
            ["doctor", "--repair"],
            ["run", "--spec", str(spec_path)],
        ):
            argv = ["campaign", action[0], "--dir", str(legacy), *action[1:]]
            assert main(argv) == 2
            assert "campaign migrate" in capsys.readouterr().err
        assert _unit_fingerprint(legacy) == _unit_fingerprint(LEGACY_STORE)
        assert sorted(p.name for p in legacy.iterdir()) == sorted(
            p.name for p in LEGACY_STORE.iterdir()
        )
