"""Telemetry spool transport: crash-safe writes, tail-and-merge reads.

The spool protocol's one load-bearing promise is the *readable prefix*:
because every record is one complete flushed line, a worker killed at
any instant leaves a file whose complete lines parse and whose (at most
one) partial line is silently deferred.  These tests pin that promise
from both ends — the writer (:class:`TelemetrySpool`/:class:`SpoolObserver`)
and the readers (:func:`read_spool_records`/:class:`TelemetryCollector`).
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Observer,
    SpoolObserver,
    TelemetryCollector,
    TelemetrySpool,
    read_spool_records,
)

pytestmark = pytest.mark.telemetry_smoke


class TestTelemetrySpool:
    def test_meta_line_is_first_and_identifies_the_writer(self, tmp_path):
        spool = TelemetrySpool(tmp_path / "u.jsonl", unit="u1", worker=42)
        spool.close()
        records, _ = read_spool_records(spool.path)
        assert records[0] == {
            "kind": "meta",
            "unit": "u1",
            "worker": 42,
            "role": "unit",
        }

    def test_every_record_is_one_flushed_line(self, tmp_path):
        spool = TelemetrySpool(tmp_path / "u.jsonl", unit="u1")
        spool.append("event", event={"category": "x"})
        # No close, no flush call: the contract is flush-per-append, so
        # the bytes must already be on disk.
        raw = (tmp_path / "u.jsonl").read_text()
        assert raw.endswith("\n")
        assert len(raw.splitlines()) == 2
        spool.close()

    def test_finish_seals_and_further_appends_are_noops(self, tmp_path):
        spool = TelemetrySpool(tmp_path / "u.jsonl", unit="u1")
        spool.finish(status="ok", duration_s=1.5)
        spool.append("event", event={"category": "late"})
        records, _ = read_spool_records(spool.path)
        assert records[-1]["kind"] == "end"
        assert records[-1]["duration_s"] == 1.5


class TestReadSpoolRecords:
    def test_partial_trailing_line_is_deferred_not_lost(self, tmp_path):
        path = tmp_path / "u.jsonl"
        spool = TelemetrySpool(path, unit="u1")
        spool.append("event", event={"category": "round.end"})
        spool.close()
        # Simulate a crash mid-write: a dangling half record.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "event", "ev')
        records, offset = read_spool_records(path)
        assert [r["kind"] for r in records] == ["meta", "event"]
        # Later the line completes — the remembered offset picks up
        # exactly the finished record, nothing twice.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('ent": {"category": "late"}}\n')
        more, _ = read_spool_records(path, offset)
        assert [r["kind"] for r in more] == ["event"]
        assert more[0]["event"]["category"] == "late"

    def test_corrupt_complete_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "u.jsonl"
        spool = TelemetrySpool(path, unit="u1")
        spool.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage not json\n")
            handle.write(json.dumps({"kind": "end", "status": "ok"}) + "\n")
        records, _ = read_spool_records(path)
        assert [r["kind"] for r in records] == ["meta", "end"]


class TestSpoolObserver:
    def test_events_tee_live_and_finalize_dumps_state(self, tmp_path):
        spool = TelemetrySpool(tmp_path / "u.jsonl", unit="u1")
        observer = SpoolObserver(spool)
        observer.emit("round.end", round=0)
        # Live: the event is on disk before finalize.
        records, _ = read_spool_records(spool.path)
        assert [r["kind"] for r in records] == ["meta", "event"]
        observer.counter("energy.joules", phase="training").inc(2.5)
        with observer.span("round", round=0):
            pass
        observer.finalize(duration_s=0.25)
        records, _ = read_spool_records(spool.path)
        kinds = [r["kind"] for r in records]
        assert kinds == ["meta", "event", "metrics", "spans", "end"]
        # finalize is idempotent on a sealed spool.
        observer.finalize()
        again, _ = read_spool_records(spool.path)
        assert len(again) == len(records)


class TestTelemetryCollector:
    def _spool(self, tmp_path, name, unit, worker, joules):
        spool = TelemetrySpool(
            tmp_path / name, unit=unit, worker=worker
        )
        observer = SpoolObserver(spool)
        observer.emit("round.end", round=0)
        observer.counter("energy.joules", phase="training").inc(joules)
        observer.finalize()
        return observer

    def test_merged_metrics_keep_worker_identity_yet_sum(self, tmp_path):
        self._spool(tmp_path, "a.jsonl", "unit-a", 100, 1.25)
        self._spool(tmp_path, "b.jsonl", "unit-b", 200, 2.5)
        parent = Observer()
        collector = TelemetryCollector(tmp_path, observer=parent)
        assert collector.poll() > 0
        # Distinct per worker...
        assert parent.metrics.value(
            "energy.joules", phase="training", unit="unit-a", worker=100
        ) == pytest.approx(1.25)
        # ...and summing to the campaign total.
        assert parent.metrics.sum_values("energy.joules") == pytest.approx(
            3.75
        )

    def test_merged_events_carry_unit_and_source_clock(self, tmp_path):
        self._spool(tmp_path, "a.jsonl", "unit-a", 100, 1.0)
        parent = Observer()
        TelemetryCollector(tmp_path, observer=parent).poll()
        round_events = [
            e for e in parent.events if e.category == "round.end"
        ]
        assert len(round_events) == 1
        assert round_events[0].fields["unit"] == "unit-a"
        assert round_events[0].fields["worker"] == 100
        assert "src_wall_s" in round_events[0].fields
        # The sealed spool surfaces as a spool.end marker.
        assert any(e.category == "spool.end" for e in parent.events)

    def test_poll_is_incremental(self, tmp_path):
        self._spool(tmp_path, "a.jsonl", "unit-a", 100, 1.0)
        parent = Observer()
        collector = TelemetryCollector(tmp_path, observer=parent)
        first = collector.poll()
        assert first > 0
        assert collector.poll() == 0
        assert parent.metrics.sum_values("energy.joules") == pytest.approx(
            1.0
        )

    def test_counter_deltas_accumulate_across_partial_dumps(self, tmp_path):
        spool = TelemetrySpool(tmp_path / "a.jsonl", unit="u", worker=7)
        parent = Observer()
        collector = TelemetryCollector(tmp_path, observer=parent)
        for _ in range(3):
            # Each dump is a fresh delta registry, the engine-worker
            # pattern: merged counters must add, not overwrite.
            from repro.obs import MetricsRegistry

            delta = MetricsRegistry()
            delta.counter("engine.pool_chunks_trained").inc(1)
            spool.record_metrics(delta)
            collector.poll()
        assert parent.metrics.sum_values(
            "engine.pool_chunks_trained"
        ) == pytest.approx(3)
        spool.close()

    def test_missing_directory_is_zero_not_error(self, tmp_path):
        collector = TelemetryCollector(tmp_path / "nope", observer=Observer())
        assert collector.poll() == 0

