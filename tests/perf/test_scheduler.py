"""Parallel campaign scheduler: cost model, determinism, resume.

The acceptance bar for ``--jobs`` is byte-identity: a parallel campaign
(any worker count, any completion order, killed and resumed or not)
must leave the artifact store — unit files *and* manifest — with
exactly the bytes a sequential run produces.
"""

from __future__ import annotations

import hashlib
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignRunner,
    CampaignSpec,
    RunSpec,
)
from repro.campaign.runner import ParallelUnitError
from repro.obs.observer import Observer
from repro.perf.scheduler import (
    ParallelUnitScheduler,
    estimate_unit_cost,
    order_longest_first,
)

pytestmark = pytest.mark.parallel_smoke


def _store_digest(root: Path) -> dict[str, str]:
    """SHA-256 of every store file by relative path, plus the index.

    The lock file is excluded, and the index file is compared through
    ``index_digest()`` (the canonical key-sorted document) rather than
    raw bytes: SQLite page layout varies with insertion order even when
    the indexed content is identical.
    """
    store = ArtifactStore(root)
    skip = {".lock", store.index_filename}
    digests = {
        str(path.relative_to(root)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name not in skip
    }
    digests["<index>"] = store.index_digest()
    return digests


# Module-level scheduler workers (must be picklable).
def _square(payload: int) -> int:
    return payload * payload


def _fail_on_odd(payload: int) -> int:
    if payload % 2:
        raise ValueError(f"odd payload {payload}")
    return payload


class TestCostModel:
    def test_cost_follows_timing_law_factors(self, tiny_spec: RunSpec) -> None:
        # t = E·(τ0·n + τ1) per participant per round → cost scales as
        # rounds · K · E · n; each factor must move the estimate.
        import dataclasses

        base = estimate_unit_cost(tiny_spec)
        assert base == pytest.approx(
            tiny_spec.max_rounds
            * tiny_spec.participants
            * tiny_spec.epochs
            * tiny_spec.n_train
            / tiny_spec.n_servers
        )
        doubled_epochs = dataclasses.replace(
            tiny_spec, epochs=tiny_spec.epochs * 2
        )
        assert estimate_unit_cost(doubled_epochs) == pytest.approx(2 * base)
        doubled_k = dataclasses.replace(
            tiny_spec, participants=tiny_spec.participants * 2
        )
        assert estimate_unit_cost(doubled_k) == pytest.approx(2 * base)

    def test_order_longest_first_is_deterministic(
        self, tiny_campaign: CampaignSpec
    ) -> None:
        units = tiny_campaign.expand()
        order = order_longest_first(units)
        costs = [estimate_unit_cost(u) for u in units]
        assert sorted(order) == list(range(len(units)))
        ordered_costs = [costs[i] for i in order]
        assert ordered_costs == sorted(costs, reverse=True)
        # Ties break on the original index, so the order is stable.
        assert order == order_longest_first(units)


class TestScheduler:
    def test_runs_every_payload_and_keeps_results(self) -> None:
        scheduler = ParallelUnitScheduler(jobs=3)
        outcome = scheduler.run(list(range(8)), _square)
        assert outcome.completed == list(range(8))
        assert outcome.results == {i: i * i for i in range(8)}
        assert not outcome.failed
        assert not outcome.interrupted

    def test_failures_are_reported_not_fatal(self) -> None:
        scheduler = ParallelUnitScheduler(jobs=2)
        outcome = scheduler.run([0, 1, 2, 3], _fail_on_odd)
        assert outcome.completed == [0, 2]
        assert set(outcome.failed) == {1, 3}
        assert "odd payload" in outcome.failed[1]

    def test_costs_must_match_payloads(self) -> None:
        scheduler = ParallelUnitScheduler(jobs=2)
        with pytest.raises(ValueError, match="one-to-one"):
            scheduler.run([1, 2, 3], _square, costs=[1.0])

    def test_rejects_bad_job_counts(self) -> None:
        with pytest.raises(ValueError, match="jobs"):
            ParallelUnitScheduler(jobs=0)

    @pytest.mark.parametrize("refused", [0, 1])
    def test_submit_to_a_just_broken_pool_waits_uncharged(
        self, monkeypatch, refused
    ) -> None:
        # A worker can die between two waits: the pool is marked broken
        # before its futures resolve, so a submit in that window raises.
        # With nothing in flight (refused=0) the loop rebuilds at once.
        scheduler = ParallelUnitScheduler(jobs=2)
        real_new_executor = scheduler._new_executor
        submits = {"n": 0}

        class _BrokenOnce:
            def __init__(self, executor):
                self._executor = executor

            def __getattr__(self, name):
                return getattr(self._executor, name)

            def submit(self, fn, *args):
                submits["n"] += 1
                if submits["n"] == refused + 1:
                    raise BrokenProcessPool("a worker died")
                return self._executor.submit(fn, *args)

        monkeypatch.setattr(
            scheduler, "_new_executor", lambda: _BrokenOnce(real_new_executor())
        )
        outcome = scheduler.run(list(range(4)), _square)
        assert outcome.completed == list(range(4))
        assert outcome.attempts == {i: 1 for i in range(4)}
        assert not outcome.failed
        assert outcome.pool_rebuilds == (1 if refused == 0 else 0)

    def test_emits_scheduler_telemetry(self) -> None:
        observer = Observer()
        scheduler = ParallelUnitScheduler(jobs=2, observer=observer)
        scheduler.run([1, 2, 3, 4], _square)
        assert observer.metrics.value("scheduler.units_submitted") == 4
        assert observer.metrics.value("scheduler.units_completed") == 4
        categories = [event.category for event in observer.events]
        assert "scheduler.start" in categories
        assert "scheduler.end" in categories


class TestParallelCampaign:
    def test_parallel_store_is_byte_identical_to_sequential(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        sequential = ArtifactStore(tmp_path / "sequential")
        CampaignRunner(tiny_campaign, sequential).run()

        parallel = ArtifactStore(tmp_path / "parallel")
        summary = CampaignRunner(tiny_campaign, parallel).run(jobs=3)
        assert summary.executed == len(tiny_campaign)
        assert not summary.interrupted

        # Whole-store byte identity: unit files AND the manifest.
        assert _store_digest(parallel.root) == _store_digest(sequential.root)
        assert parallel.verify() == []

    def test_killed_parallel_campaign_resumes_byte_identically(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        sequential = ArtifactStore(tmp_path / "sequential")
        CampaignRunner(tiny_campaign, sequential).run()

        # "Kill" a 4-job run after two units (max_units is the same
        # checkpointed-stop hook the sequential resume tests use)...
        resumed = ArtifactStore(tmp_path / "resumed")
        first = CampaignRunner(tiny_campaign, resumed).run(
            max_units=2, jobs=4
        )
        assert first.interrupted
        assert first.executed == 2
        assert len(resumed.completed_keys()) == 2

        # ... and resume with a fresh parallel runner.
        second = CampaignRunner(tiny_campaign, resumed).run(jobs=4)
        assert not second.interrupted
        assert second.executed == 2
        assert second.skipped == 2

        assert _store_digest(resumed.root) == _store_digest(sequential.root)
        assert resumed.verify() == []

    def test_parallel_resume_skips_completed_units(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        store = ArtifactStore(tmp_path / "store")
        CampaignRunner(tiny_campaign, store).run(jobs=2)
        again = CampaignRunner(tiny_campaign, store).run(jobs=2)
        assert again.executed == 0
        assert again.skipped == len(tiny_campaign)

    def test_failed_unit_raises_after_drain_with_rest_checkpointed(
        self, tmp_path, tiny_campaign: CampaignSpec, monkeypatch
    ) -> None:
        # Fork-started workers inherit the patched module, so a
        # targeted failure in one unit exercises the drain path: every
        # other unit must land in the store before the error surfaces.
        import repro.campaign.runner as runner_module

        real = runner_module.execute_unit

        def sabotaged(spec, datasets=None, observer=None):
            if spec.epochs == 2 and spec.participants == 2:
                raise RuntimeError("sabotaged unit")
            return real(spec, datasets=datasets, observer=observer)

        monkeypatch.setattr(runner_module, "execute_unit", sabotaged)
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ParallelUnitError, match="sabotaged"):
            CampaignRunner(tiny_campaign, store).run(jobs=2, supervision=None)
        assert len(store.completed_keys()) == len(tiny_campaign) - 1
        assert store.verify() == []

        # Re-running (unsabotaged) retries only the failed unit.
        monkeypatch.setattr(runner_module, "execute_unit", real)
        summary = CampaignRunner(tiny_campaign, store).run(
            jobs=2, supervision=None
        )
        assert summary.executed == 1
        assert summary.skipped == len(tiny_campaign) - 1

    def test_supervised_parallel_pass_quarantines_instead_of_raising(
        self, tmp_path, tiny_campaign: CampaignSpec, monkeypatch
    ) -> None:
        # The same sabotage under default supervision: the pass retries
        # the bad unit, quarantines it at budget exhaustion, and the
        # campaign completes degraded with every healthy unit stored.
        import dataclasses

        import repro.campaign.runner as runner_module
        from repro.campaign.runner import DEFAULT_SUPERVISION

        real = runner_module.execute_unit

        def sabotaged(spec, datasets=None, observer=None):
            if spec.epochs == 2 and spec.participants == 2:
                raise RuntimeError("sabotaged unit")
            return real(spec, datasets=datasets, observer=observer)

        monkeypatch.setattr(runner_module, "execute_unit", sabotaged)
        store = ArtifactStore(tmp_path / "store")
        supervision = dataclasses.replace(
            DEFAULT_SUPERVISION,
            retry=dataclasses.replace(
                DEFAULT_SUPERVISION.retry, max_retries=1, base_backoff_s=0.01
            ),
        )
        summary = CampaignRunner(tiny_campaign, store).run(
            jobs=2, supervision=supervision
        )
        assert summary.degraded
        assert summary.quarantined == 1
        assert summary.executed == len(tiny_campaign) - 1
        assert len(store.completed_keys()) == len(tiny_campaign) - 1
        assert store.verify() == []
        (bad_key,) = store.quarantined_keys()
        records = store.failure_records(bad_key)
        assert len(records) == 2  # first attempt + one retry
        assert records[-1]["quarantined"] is True
        assert "sabotaged unit" in records[-1]["error"]

        # A later pass skips the quarantined unit outright...
        monkeypatch.setattr(runner_module, "execute_unit", real)
        again = CampaignRunner(tiny_campaign, store).run(jobs=2)
        assert again.executed == 0
        assert again.quarantined == 1

        # ... until the operator grants a fresh budget.
        healed = CampaignRunner(tiny_campaign, store).run(
            jobs=2, retry_quarantined=True
        )
        assert healed.executed == 1
        assert not healed.degraded
        assert len(store.completed_keys()) == len(tiny_campaign)
        assert store.quarantined_keys() == set()

    def test_campaign_observer_sees_scheduler_counters(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        observer = Observer()
        store = ArtifactStore(tmp_path / "store")
        CampaignRunner(tiny_campaign, store, observer=observer).run(jobs=2)
        units = len(tiny_campaign)
        assert observer.metrics.value("scheduler.units_submitted") == units
        assert observer.metrics.value("scheduler.units_completed") == units
        assert observer.metrics.value("campaign.units_run") == units

    def test_jobs_must_be_positive(
        self, tmp_path, tiny_campaign: CampaignSpec
    ) -> None:
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ValueError, match="jobs"):
            CampaignRunner(tiny_campaign, store).run(jobs=0)
