"""End-to-end cross-process campaign telemetry.

The pipeline under test: workers stream telemetry to per-unit spools,
the parent collector tails and merges everything live, and the campaign
reducer folds the stored per-unit snapshots into exact campaign totals.
The acceptance bar is the determinism satellite: the summed worker-spool
energy of a ``--jobs 4`` run and of a ``pool``-backend run must equal
the sequential run **bit for bit**, because unit training is
deterministic and the reducer folds in sorted-key order with exact
summation — any drift means telemetry is lossy or order-dependent.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess

import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignRunner,
    CampaignSpec,
    CampaignStatus,
    RunSpec,
    campaign_telemetry,
)
from repro.experiments.runner import main
from repro.faults.models import make_demo_plan
from repro.faults.policies import ResilienceConfig, RetryPolicy
from repro.obs import Observer, TelemetrySpool

pytestmark = pytest.mark.telemetry_smoke


@pytest.fixture()
def telemetry_campaign(tiny_spec: RunSpec) -> CampaignSpec:
    """The 2x2 tiny grid with telemetry on — four spooling units."""
    return CampaignSpec(
        name="tele-grid",
        base=dataclasses.replace(tiny_spec, telemetry=True),
        participants=(1, 2),
        epochs=(1, 2),
    )


def _run(campaign: CampaignSpec, root, jobs: int = 1, observer=None):
    store = ArtifactStore(root)
    runner = CampaignRunner(campaign, store, observer=observer)
    runner.run(jobs=jobs)
    return store


class TestBitForBitTotals:
    def test_jobs4_worker_spools_sum_to_the_sequential_total(
        self, tmp_path, telemetry_campaign
    ) -> None:
        sequential = _run(telemetry_campaign, tmp_path / "seq", jobs=1)
        parallel = _run(telemetry_campaign, tmp_path / "par", jobs=4)
        seq_totals = campaign_telemetry(sequential)
        par_totals = campaign_telemetry(parallel)
        assert len(seq_totals) == len(par_totals) == 4
        # Bit-for-bit: == on floats, no approx.
        assert seq_totals.sum_over_units("energy.joules") == (
            par_totals.sum_over_units("energy.joules")
        )
        assert seq_totals.sum_over_units("fl.rounds") == (
            par_totals.sum_over_units("fl.rounds")
        )
        # And per unit, not just in aggregate.
        for seq_unit, par_unit in zip(seq_totals.units, par_totals.units):
            assert seq_unit.key == par_unit.key
            assert seq_unit.sum_counters("energy.joules") == (
                par_unit.sum_counters("energy.joules")
            )

    def test_pool_backend_totals_match_sequential_bit_for_bit(
        self, tmp_path, tiny_spec
    ) -> None:
        base = dataclasses.replace(tiny_spec, telemetry=True)
        make = lambda backend: CampaignSpec(  # noqa: E731
            name="engines",
            base=dataclasses.replace(base, backend=backend),
        )
        seq_store = _run(make("sequential"), tmp_path / "seq")
        pool_obs = Observer()
        pool_store = _run(
            make("pool"), tmp_path / "pool", jobs=2, observer=pool_obs
        )
        assert campaign_telemetry(seq_store).sum_over_units(
            "energy.joules"
        ) == campaign_telemetry(pool_store).sum_over_units("energy.joules")
        # The unit spools rode to the parent observer via the collector.
        assert pool_obs.metrics.sum_values("energy.joules") > 0

    def test_parent_observer_merge_matches_stored_fold(
        self, tmp_path, telemetry_campaign
    ) -> None:
        observer = Observer()
        store = _run(
            telemetry_campaign, tmp_path / "s", jobs=2, observer=observer
        )
        folded = campaign_telemetry(store).sum_over_units("energy.joules")
        merged = observer.metrics.sum_values("energy.joules")
        assert merged == pytest.approx(folded, rel=1e-9)

    def test_reconciliation_is_clean_after_a_real_run(
        self, tmp_path, telemetry_campaign
    ) -> None:
        store = _run(telemetry_campaign, tmp_path / "s", jobs=2)
        assert campaign_telemetry(store).reconcile() == []

    def test_timing_histograms_survive_the_cross_process_fold(
        self, tmp_path, tiny_spec
    ) -> None:
        campaign = CampaignSpec(
            name="timed",
            base=dataclasses.replace(tiny_spec, telemetry=True),
            participants=(1, 2),
        )
        telemetry = campaign_telemetry(_run(campaign, tmp_path / "s", jobs=2))
        assert len(telemetry) == 2
        trained = sum(
            u.reported["participants"] * u.reported["rounds"]
            for u in telemetry.units
        )
        rounds = sum(u.reported["rounds"] for u in telemetry.units)
        totals = telemetry.totals()
        assert totals.histogram("profile.client_train_s").count == trained
        assert totals.histogram("profile.aggregate_s").count == rounds
        assert telemetry.reconcile() == []


class TestFaultedReconciliation:
    def test_resilient_faulted_unit_reconciles(self, tmp_path, tiny_spec) -> None:
        # Retries and backoff waits are priced into the unit's total, so
        # its energy.joules counters must carry them as well.
        base = dataclasses.replace(
            tiny_spec,
            n_train=400,
            n_servers=20,
            participants=10,
            epochs=1,
            max_rounds=10,
            telemetry=True,
            fault_plan=make_demo_plan(20),
            resilience=ResilienceConfig(retry=RetryPolicy(max_retries=3)),
        )
        store = _run(CampaignSpec(name="faulted", base=base), tmp_path / "s")
        telemetry = campaign_telemetry(store)
        assert telemetry.sum_over_units("fl.retries") > 0
        assert telemetry.reconcile() == []


class TestKilledWorker:
    def _dead_pid(self) -> int:
        process = subprocess.Popen(["sleep", "0"])
        process.wait()
        return process.pid

    def test_truncated_spool_of_a_dead_worker_merges_and_reports_failed(
        self, tmp_path, telemetry_campaign
    ) -> None:
        store = ArtifactStore(tmp_path / "s")
        runner = CampaignRunner(telemetry_campaign, store)
        runner.run(max_units=1)
        # Fabricate the crash signature for the next unit: a spool with
        # streamed progress, a half-written record, no end record, and a
        # writer pid that no longer exists.
        victim = runner.units[1]
        spool = TelemetrySpool(
            store.spool_dir / f"{victim.key()}.jsonl",
            unit=victim.name,
            worker=self._dead_pid(),
        )
        spool.append(
            "event", event={"seq": 0, "category": "round.end", "fields": {}}
        )
        spool.close()
        with open(spool.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "event", "ev')  # killed mid-write

        observer = Observer()
        from repro.obs import TelemetryCollector

        merged = TelemetryCollector(
            store.spool_dir, observer=observer
        ).poll()
        assert merged > 0  # the complete prefix merges cleanly
        assert any(e.category == "round.end" for e in observer.events)

        status = CampaignStatus.collect(store)
        by_key = {unit.key: unit for unit in status.units}
        assert by_key[victim.key()].state == "failed"
        assert by_key[victim.key()].rounds_done == 1
        assert by_key[runner.units[0].key()].state == "done"
        assert status.counts() == {
            "pending": 2,
            "running": 0,
            "retrying": 0,
            "done": 1,
            "failed": 1,
            "quarantined": 0,
        }

    def test_rerun_replaces_the_partial_spool_and_completes(
        self, tmp_path, telemetry_campaign
    ) -> None:
        store = ArtifactStore(tmp_path / "s")
        runner = CampaignRunner(telemetry_campaign, store)
        runner.run(max_units=1)
        victim = runner.units[1]
        spool = TelemetrySpool(
            store.spool_dir / f"{victim.key()}.jsonl",
            unit=victim.name,
            worker=self._dead_pid(),
        )
        spool.close()
        # Resume from scratch: the failed unit re-executes with a fresh
        # spool, and the campaign totals reconcile.
        CampaignRunner(telemetry_campaign, store).run()
        status = CampaignStatus.collect(store)
        assert status.counts()["done"] == 4
        assert status.finished
        telemetry = campaign_telemetry(store)
        assert len(telemetry) == 4
        assert telemetry.reconcile() == []


class TestStatusAndEta:
    def test_states_and_costs_before_and_after_running(
        self, tmp_path, telemetry_campaign
    ) -> None:
        store = ArtifactStore(tmp_path / "s")
        runner = CampaignRunner(telemetry_campaign, store)
        before = CampaignStatus.collect(store)
        assert before.counts()["pending"] == 4
        assert before.remaining_cost == before.total_cost > 0
        assert before.throughput() is None
        assert before.eta_s() is None  # no observations yet

        runner.run()
        after = CampaignStatus.collect(store)
        assert after.counts()["done"] == 4
        assert after.finished
        assert after.remaining_cost == 0
        assert after.eta_s() == 0.0
        assert after.throughput() is not None and after.throughput() > 0

    def test_partial_run_reports_progress_and_an_eta(
        self, tmp_path, telemetry_campaign
    ) -> None:
        store = ArtifactStore(tmp_path / "s")
        CampaignRunner(telemetry_campaign, store).run(max_units=2)
        status = CampaignStatus.collect(store)
        counts = status.counts()
        assert counts["done"] == 2 and counts["pending"] == 2
        assert 0 < status.remaining_cost < status.total_cost
        # Two completed units calibrated throughput: the ETA is defined.
        eta = status.eta_s()
        assert eta is not None and eta > 0
        summary = status.render_summary()
        assert "2 done" in summary
        assert "ETA:" in summary


class TestCli:
    def _spec_path(self, tmp_path, campaign: CampaignSpec):
        path = tmp_path / "spec.json"
        campaign.save(path)
        return path

    def test_status_prints_state_counts_and_remaining_cost(
        self, tmp_path, capsys, telemetry_campaign
    ) -> None:
        spec = self._spec_path(tmp_path, telemetry_campaign)
        store = tmp_path / "store"
        assert (
            main(
                [
                    "campaign",
                    "run",
                    "--spec",
                    str(spec),
                    "--dir",
                    str(store),
                    "--max-units",
                    "2",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["campaign", "status", "--dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert "2/4 units complete" in out
        assert (
            "units: 2 pending, 0 running, 0 retrying, 2 done, 0 failed, "
            "0 quarantined" in out
        )
        assert "estimated cost:" in out and "remaining" in out

    def test_run_exports_openmetrics_and_chrome_trace(
        self, tmp_path, capsys, telemetry_campaign
    ) -> None:
        spec = self._spec_path(tmp_path, telemetry_campaign)
        metrics_path = tmp_path / "out" / "metrics.txt"
        trace_path = tmp_path / "out" / "trace.json"
        code = main(
            [
                "campaign",
                "run",
                "--spec",
                str(spec),
                "--dir",
                str(tmp_path / "store"),
                "--jobs",
                "2",
                "--metrics-out",
                str(metrics_path),
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        text = metrics_path.read_text()
        assert text.endswith("# EOF\n")
        assert "# TYPE energy_joules counter" in text
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"]
        err = capsys.readouterr().err
        assert "OpenMetrics" in err and "trace" in err

    def test_report_appends_aggregated_telemetry_section(
        self, tmp_path, capsys, telemetry_campaign
    ) -> None:
        spec = self._spec_path(tmp_path, telemetry_campaign)
        store = tmp_path / "store"
        assert (
            main(
                ["campaign", "run", "--spec", str(spec), "--dir", str(store)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["campaign", "report", "--dir", str(store)]) == 0
        captured = capsys.readouterr()
        assert "aggregated telemetry over 4 units" in captured.out
        assert "energy.joules" in captured.out
        assert captured.err == ""  # reconciliation found nothing
