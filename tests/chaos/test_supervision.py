"""Chaos acceptance: the supervised runtime under crash/hang/kill/corrupt.

The acceptance bar for supervision is *degraded completion with healthy
bytes*: an 8-unit ``--jobs 4`` campaign seeded with saboteurs must end
with the crash-once unit retried to success, the unrecoverable units
quarantined behind durable failure records, and every healthy unit's
artifacts byte-identical to a fault-free sequential run — chaos may
decide *whether* a unit completes, never *what* it computes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignRunner,
    CampaignSpec,
    RunSpec,
)
from repro.faults import ChaosPlan, RetryPolicy, Saboteur
from repro.obs.observer import Observer
from repro.perf.scheduler import SupervisionPolicy

pytestmark = pytest.mark.chaos_smoke

# Subprocess campaigns import the package from this checkout.
_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _unit_digest(store: ArtifactStore, key: str) -> dict[str, str]:
    """SHA-256 of one unit directory's files by name."""
    unit_dir = store.unit_dir(key)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(unit_dir.iterdir())
        if path.is_file()
    }


def _keys_by_token(runner: CampaignRunner) -> dict[str, str]:
    """Map each unit's ``K?-E?-s?`` grid token to its content key."""
    mapping = {}
    for spec in runner.units:
        # "chaos-grid/K1-E1-s0-sequential-f.base-r.base" -> "K1-E1-s0"
        token = "-".join(spec.name.split("/", 1)[1].split("-")[:3])
        mapping[token] = spec.key()
    return mapping


class TestParallelChaosCampaign:
    def test_eight_unit_campaign_survives_the_full_saboteur_grid(
        self,
        tmp_path,
        chaos_campaign: CampaignSpec,
        fast_supervision: SupervisionPolicy,
    ) -> None:
        # The acceptance scenario: four healthy units, one crash-once,
        # and three unrecoverables (hang, SIGKILL, corrupt-write).
        plan = ChaosPlan.build(
            {
                "K1-E1-s0": Saboteur(kind="crash", times=1),
                "K1-E2-s0": Saboteur(kind="hang", times=-1, hang_s=60.0),
                "K2-E1-s0": Saboteur(kind="kill", times=-1),
                "K2-E2-s0": Saboteur(kind="corrupt", times=-1),
            }
        )
        store = ArtifactStore(tmp_path / "chaos")
        observer = Observer()
        runner = CampaignRunner(
            chaos_campaign, store, observer=observer, chaos=plan
        )
        summary = runner.run(jobs=4, supervision=fast_supervision)

        # Degraded completion: the pass neither raised nor gave up.
        assert not summary.interrupted
        assert summary.degraded
        assert summary.quarantined == 3
        assert summary.executed == 5  # four healthy + the crash-once
        assert len(store.completed_keys()) == 5
        assert store.verify() == []

        keys = _keys_by_token(runner)
        # The crash-once unit burned exactly one attempt and recovered.
        crash_key = keys["K1-E1-s0"]
        assert crash_key in store.completed_keys()
        assert store.attempts_used(crash_key) == 1
        records = store.failure_records(crash_key)
        assert len(records) == 1
        assert records[0]["quarantined"] is False
        assert "ChaosError" in records[0]["error"]

        # Each unrecoverable burned the full budget and left a terminal
        # failure record attributing the right kind of death.
        expected_kinds = {
            "K1-E2-s0": "timeout",
            "K2-E1-s0": "worker-lost",
            "K2-E2-s0": "error",
        }
        assert store.quarantined_keys() == {
            keys[token] for token in expected_kinds
        }
        for token, kind in expected_kinds.items():
            records = store.failure_records(keys[token])
            assert len(records) == fast_supervision.max_attempts
            assert records[-1]["quarantined"] is True
            assert records[-1]["kind"] == kind
        # The corrupt-write unit failed via verify-after-write, and its
        # poisoned bytes were evicted out of units/ but kept around.
        corrupt_records = store.failure_records(keys["K2-E2-s0"])
        assert "UnitVerificationError" in corrupt_records[-1]["error"]
        evicted = store.quarantine_dir / keys["K2-E2-s0"] / "artifacts"
        assert (evicted / "history.json").exists()

        # Supervision machinery actually engaged: SIGKILLs broke the
        # pool (rebuilt), and the watchdog reclaimed the hung worker.
        assert observer.metrics.value("scheduler.pool_rebuilds") >= 1
        assert observer.metrics.value("watchdog.timeouts") >= 1

        # Healthy bytes: every completed unit — including the retried
        # crash-once — is byte-identical to a fault-free sequential run.
        reference = ArtifactStore(tmp_path / "reference")
        CampaignRunner(chaos_campaign, reference).run()
        for key in store.completed_keys():
            assert _unit_digest(store, key) == _unit_digest(reference, key)


class TestSequentialSupervision:
    def _solo(self, tiny_spec: RunSpec) -> CampaignSpec:
        return CampaignSpec(name="solo", base=tiny_spec)

    def test_crash_once_retries_to_byte_identical_store(
        self, tmp_path, tiny_spec: RunSpec, fast_supervision, store_digest
    ) -> None:
        campaign = self._solo(tiny_spec)
        chaos = ChaosPlan.build({"K2-E2": Saboteur(kind="crash", times=1)})
        store = ArtifactStore(tmp_path / "chaos")
        summary = CampaignRunner(campaign, store, chaos=chaos).run(
            supervision=fast_supervision
        )
        assert summary.executed == 1
        assert not summary.degraded
        (outcome,) = summary.outcomes
        assert outcome.attempts == 2  # one failure + the success

        key = campaign.expand()[0].key()
        assert store.attempts_used(key) == 1
        (record,) = store.failure_records(key)
        assert record["quarantined"] is False
        assert record["kind"] == "error"

        reference = ArtifactStore(tmp_path / "reference")
        CampaignRunner(campaign, reference).run()
        assert store_digest(store.root) == store_digest(
            reference.root
        )

    def test_unrecoverable_crash_is_quarantined_then_healable(
        self, tmp_path, tiny_spec: RunSpec, fast_supervision, store_digest
    ) -> None:
        campaign = self._solo(tiny_spec)
        chaos = ChaosPlan.build({"solo": Saboteur(kind="crash", times=-1)})
        store = ArtifactStore(tmp_path / "store")
        summary = CampaignRunner(campaign, store, chaos=chaos).run(
            supervision=fast_supervision
        )
        assert summary.degraded
        assert summary.quarantined == 1
        assert summary.executed == 0
        key = campaign.expand()[0].key()
        assert store.attempts_used(key) == fast_supervision.max_attempts
        assert store.quarantined_keys() == {key}

        # A plain re-run skips the quarantined unit; granting a fresh
        # budget (with the chaos gone) heals the campaign completely.
        again = CampaignRunner(campaign, store).run(
            supervision=fast_supervision
        )
        assert again.executed == 0 and again.quarantined == 1
        healed = CampaignRunner(campaign, store).run(
            supervision=fast_supervision, retry_quarantined=True
        )
        assert healed.executed == 1 and not healed.degraded
        reference = ArtifactStore(tmp_path / "reference")
        CampaignRunner(campaign, reference).run()
        assert store_digest(store.root) == store_digest(
            reference.root
        )


class TestKillAndResumeDeterminism:
    def test_sigkill_mid_retry_resumes_to_identical_bytes_and_attempts(
        self, tmp_path, tiny_spec: RunSpec, store_digest
    ) -> None:
        # A crash-twice saboteur under a ~30s backoff gives the parent a
        # wide window: wait for the first durable failure record, then
        # SIGKILL the whole campaign process mid-backoff.  The resumed
        # run must continue attempt numbering from the failure trail and
        # land the exact bytes an uninterrupted run produces.
        killed_root = tmp_path / "killed"
        script = textwrap.dedent(
            """
            import dataclasses
            import sys

            from repro.campaign import ArtifactStore, CampaignRunner
            from repro.campaign import CampaignSpec, RunSpec
            from repro.campaign.runner import DEFAULT_SUPERVISION
            from repro.faults import ChaosPlan, RetryPolicy, Saboteur

            spec = RunSpec(
                name="tiny", n_train=160, n_test=80, n_servers=4,
                participants=2, epochs=2, max_rounds=3,
                train_to_target=False,
            )
            campaign = CampaignSpec(name="resume-chaos", base=spec)
            chaos = ChaosPlan.build(
                {"K2-E2": Saboteur(kind="crash", times=2)}
            )
            supervision = dataclasses.replace(
                DEFAULT_SUPERVISION,
                retry=RetryPolicy(
                    max_retries=3, base_backoff_s=30.0, max_backoff_s=40.0
                ),
            )
            CampaignRunner(
                campaign, ArtifactStore(sys.argv[1]), chaos=chaos
            ).run(supervision=supervision)
            """
        )
        script_path = tmp_path / "campaign_script.py"
        script_path.write_text(script)
        env = {**os.environ, "PYTHONPATH": _SRC}
        process = subprocess.Popen(
            [sys.executable, str(script_path), str(killed_root)], env=env
        )
        try:
            campaign = CampaignSpec(name="resume-chaos", base=tiny_spec)
            key = campaign.expand()[0].key()
            record_path = killed_root / "quarantine" / key / "attempt-1.json"
            deadline = time.monotonic() + 120
            while not record_path.exists():
                assert time.monotonic() < deadline, "first attempt never failed"
                assert process.poll() is None, "campaign exited prematurely"
                time.sleep(0.05)
            process.send_signal(signal.SIGKILL)
        finally:
            process.kill()
            process.wait(timeout=30)

        killed = ArtifactStore(killed_root)
        assert killed.completed_keys() == set()
        assert killed.attempts_used(key) == 1

        # Resume (fast backoff — backoff never reaches the artifacts):
        # the saboteur still owes one crash, charged as attempt 2.
        chaos = ChaosPlan.build({"K2-E2": Saboteur(kind="crash", times=2)})
        supervision = SupervisionPolicy(
            retry=RetryPolicy(
                max_retries=3, base_backoff_s=0.01, max_backoff_s=0.05
            )
        )
        resumed = CampaignRunner(campaign, killed, chaos=chaos).run(
            supervision=supervision
        )
        assert resumed.executed == 1
        (outcome,) = resumed.outcomes
        assert outcome.attempts == 3

        # Uninterrupted reference with the same saboteur budget.
        reference_root = tmp_path / "reference"
        reference = ArtifactStore(reference_root)
        CampaignRunner(campaign, reference, chaos=chaos).run(
            supervision=supervision
        )
        assert store_digest(killed_root) == store_digest(
            reference_root
        )
        # Identical durable attempt trails: same record files, same
        # attempt numbers, same failure kinds.
        assert killed.attempts_used(key) == reference.attempts_used(key) == 2
        killed_trail = [
            (r["attempt"], r["kind"]) for r in killed.failure_records(key)
        ]
        reference_trail = [
            (r["attempt"], r["kind"]) for r in reference.failure_records(key)
        ]
        assert killed_trail == reference_trail == [(1, "error"), (2, "error")]


class TestSigtermDrain:
    def test_sigterm_checkpoints_like_ctrl_c_and_resumes_cleanly(
        self, tmp_path, tiny_spec: RunSpec, store_digest
    ) -> None:
        # A campaign process that SIGTERMs itself as soon as the first
        # unit lands: the handler must convert the signal into the
        # graceful drain-and-checkpoint path (exit 0, consistent store),
        # and a resumed run must finish the grid byte-identically.
        store_root = tmp_path / "store"
        script = textwrap.dedent(
            """
            import json
            import os
            import signal
            import sys
            import threading
            import time

            from repro.campaign import ArtifactStore, CampaignRunner
            from repro.campaign import CampaignSpec, RunSpec

            spec = RunSpec(
                name="tiny", n_train=160, n_test=80, n_servers=4,
                participants=2, epochs=2, max_rounds=3,
                train_to_target=False,
            )
            campaign = CampaignSpec(
                name="drain", base=spec, participants=(1, 2), epochs=(1, 2)
            )
            store = ArtifactStore(sys.argv[1])

            runner = CampaignRunner(campaign, store)

            def preempt():
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    try:
                        done = store.completed_keys()
                    except Exception:
                        done = set()
                    if done:
                        os.kill(os.getpid(), signal.SIGTERM)
                        return
                    time.sleep(0.01)

            threading.Thread(target=preempt, daemon=True).start()
            summary = runner.run()
            print(json.dumps({
                "executed": summary.executed,
                "interrupted": summary.interrupted,
            }))
            """
        )
        script_path = tmp_path / "drain_script.py"
        script_path.write_text(script)
        env = {**os.environ, "PYTHONPATH": _SRC}
        completed = subprocess.run(
            [sys.executable, str(script_path), str(store_root)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        summary = json.loads(completed.stdout.strip().splitlines()[-1])
        assert summary["interrupted"] or summary["executed"] == 4

        # Whatever the drain checkpointed is consistent and resumable.
        store = ArtifactStore(store_root)
        assert store.verify() == []
        assert len(store.completed_keys()) >= 1
        campaign = CampaignSpec(
            name="drain", base=tiny_spec, participants=(1, 2), epochs=(1, 2)
        )
        resumed = CampaignRunner(campaign, store).run()
        assert len(store.completed_keys()) == 4
        assert resumed.executed + summary["executed"] == 4

        reference = ArtifactStore(tmp_path / "reference")
        CampaignRunner(campaign, reference).run()
        assert store_digest(store_root) == store_digest(
            reference.root
        )


class TestDoctor:
    def _grid(self, tiny_spec: RunSpec) -> CampaignSpec:
        return CampaignSpec(
            name="doctored", base=tiny_spec, participants=(1, 2), epochs=(1, 2)
        )

    def test_repair_rebuilds_a_deleted_manifest_without_retraining(
        self, tmp_path, tiny_spec: RunSpec
    ) -> None:
        campaign = self._grid(tiny_spec)
        store = ArtifactStore(tmp_path / "store")
        CampaignRunner(campaign, store).run()
        index_path = store.root / store.index_filename
        original = store.index_digest()
        store.close()
        index_path.unlink()

        diagnosis = store.doctor(repair=False)
        assert not diagnosis.healthy
        assert any(
            f"{store.index_filename} missing" in p for p in diagnosis.problems
        )
        assert index_path.exists() is False  # diagnosis never mutates

        report = store.doctor(repair=True)
        assert report.healthy
        assert len(report.adopted) == 4
        # The rebuilt index is logically identical to the lost one.
        assert store.index_digest() == original
        # Zero retraining: the adopted store satisfies every resume check.
        summary = CampaignRunner(campaign, store).run()
        assert summary.executed == 0
        assert summary.skipped == 4

    def test_repair_evicts_corrupt_unit_and_next_run_retrains_it(
        self, tmp_path, tiny_spec: RunSpec
    ) -> None:
        campaign = self._grid(tiny_spec)
        store = ArtifactStore(tmp_path / "store")
        CampaignRunner(campaign, store).run()
        victim = campaign.expand()[0].key()
        history = store.unit_dir(victim) / "history.json"
        history.write_bytes(b"\x00" * len(history.read_bytes()))
        assert store.verify() != []

        report = store.doctor(repair=True)
        assert report.healthy
        assert report.quarantined == [victim]
        assert (
            store.quarantine_dir / victim / "artifacts" / "history.json"
        ).exists()
        (record,) = store.failure_records(victim)
        assert record["kind"] == "corrupt-artifact"
        # The eviction is non-terminal: no quarantine skip, so the next
        # pass retrains exactly the evicted unit.
        assert store.quarantined_keys() == set()
        summary = CampaignRunner(campaign, store).run()
        assert summary.executed == 1
        assert summary.skipped == 3
        assert store.verify() == []

        reference = ArtifactStore(tmp_path / "reference")
        CampaignRunner(campaign, reference).run()
        for key in reference.completed_keys():
            assert _unit_digest(store, key) == _unit_digest(reference, key)

    def test_repair_adopts_orphans_left_by_a_crash_window(
        self, tmp_path, tiny_spec: RunSpec
    ) -> None:
        campaign = self._grid(tiny_spec)
        store = ArtifactStore(tmp_path / "store")
        CampaignRunner(campaign, store).run()
        # Fabricate the files-written/index-lost crash shape for one
        # unit by dropping its index entry.
        victim = campaign.expand()[2].key()
        original = store.index_digest()
        store._index_delete(victim)
        assert store.orphan_unit_keys() == [victim]
        assert any("orphan" in problem for problem in store.verify())

        report = store.doctor(repair=True)
        assert report.healthy
        assert report.adopted == [victim]
        assert store.index_digest() == original
        assert store.verify() == []

    def test_doctor_refuses_a_store_without_campaign_binding(
        self, tmp_path
    ) -> None:
        report = ArtifactStore(tmp_path / "empty").doctor(repair=True)
        assert not report.healthy
        assert any("not recoverable" in p for p in report.problems)
