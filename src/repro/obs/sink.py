"""Cross-process telemetry: worker spools and the parent-side collector.

The telemetry of one campaign is scattered over the scheduler's worker
processes, each with its own :class:`~repro.obs.observer.Observer` and
one spool per unit.  A unit runs in one process (every engine trains in
its caller's process), so its observer sees all of its work.  This
module is the transport that reunifies the units:

* :class:`TelemetrySpool` — a worker-side sink that streams telemetry
  records (events, metric records, span trees, lifecycle markers) to an
  append-only JSONL *spool file*.  Every record is one ``write`` of one
  complete line (progress-critical records also ``flush``), so a worker
  killed mid-unit leaves a readable prefix: the file never needs a
  footer to be parseable.
* :class:`SpoolObserver` — an :class:`Observer` that tees every emitted
  event into a spool as it happens (live, for ``status --follow``) and
  dumps its metrics registry and span forest on :meth:`finalize`.
* :class:`TelemetryCollector` — the parent-side tail-and-merge loop: it
  scans a spool directory, consumes each file's *complete* lines past a
  remembered byte offset (a trailing partial line — the crash signature
  — is left for a later poll or ignored forever), and folds the records
  into one parent observer with ``unit``/``worker`` labels attached.

Spool record kinds (one JSON object per line)::

    {"kind": "meta",    "unit": ..., "worker": ..., "role": "unit"}
    {"kind": "event",   "event": {...ObsEvent.to_dict()...}}
    {"kind": "events",  "events": [{...}, ...]}        # batched bulk events
    {"kind": "metrics", "records": [...MetricsRegistry.to_records()...]}
    {"kind": "spans",   "spans": [...Span.to_dict()...]}
    {"kind": "end",     "status": "ok"|"error", "duration_s": ...}

The ``meta`` line is always first; everything else may appear in any
order and any number of times (metric records are *deltas*: counters
merge by addition, so periodic partial dumps also aggregate correctly).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable

from repro.obs.events import ObsEvent, _json_default
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.tracing import Span

__all__ = [
    "TelemetrySpool",
    "SpoolObserver",
    "TelemetryCollector",
    "read_spool_records",
    "read_spool_tail",
]


class TelemetrySpool:
    """Append-only JSONL telemetry sink for one worker process.

    Args:
        path: spool file; the parent directory is created, and an
            existing file is truncated (a re-executed unit starts a
            fresh spool — crash-safety is about mid-run kills, not
            cross-run history).
        unit: unit label stamped into the ``meta`` line (and by the
            collector onto every merged record).
        worker: worker label; defaults to this process's pid.
    """

    def __init__(
        self,
        path: str | Path,
        unit: str = "",
        worker: int | str | None = None,
    ) -> None:
        self.path = Path(path)
        self.unit = str(unit)
        self.worker = os.getpid() if worker is None else worker
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")
        self.append("meta", unit=self.unit, worker=self.worker, role="unit")

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def append(self, kind: str, flush: bool = True, **payload: Any) -> None:
        """Write one complete record line; flush it to the OS by default.

        The line is materialised before any byte is written, so a crash
        can truncate at most the *last* line — exactly the prefix
        property the collector relies on.  ``flush=False`` lets a record
        ride the stdio buffer instead of paying a syscall per line: the
        prefix property still holds (the buffer drains in whole-write
        chunks, and the reader defers any partial tail line), a crash
        just loses at most the buffered suffix.  Progress-critical
        records should keep the default.
        """
        if self._handle.closed:
            return
        line = json.dumps({"kind": kind, **payload}, default=_json_default)
        self._handle.write(line + "\n")
        if flush:
            self._handle.flush()

    def record_event(self, event: ObsEvent, flush: bool = True) -> None:
        """Stream one structured event."""
        self.append("event", flush=flush, event=event.to_dict())

    def record_event_batch(
        self, events: list[ObsEvent], flush: bool = False
    ) -> None:
        """Stream many events as one ``events`` record.

        One serialisation + one write for the whole batch — this is the
        cheap path for bulk per-client events, whose per-line cost would
        otherwise dominate the telemetry overhead on small models.
        """
        if not events:
            return
        self.append(
            "events",
            flush=flush,
            events=[event.to_dict() for event in events],
        )

    def record_metrics(self, registry: MetricsRegistry) -> None:
        """Dump the registry as one delta record (counters merge by +)."""
        self.append("metrics", records=registry.to_records())

    def record_spans(self, spans: list[Span]) -> None:
        """Dump a span forest (typically ``tracer.roots``)."""
        self.append("spans", spans=[span.to_dict() for span in spans])

    def finish(self, status: str = "ok", **fields: Any) -> None:
        """Write the terminal record and close the file.  Idempotent."""
        self.append("end", status=status, **fields)
        self.close()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class SpoolObserver(Observer):
    """Observer whose event stream tees live into a :class:`TelemetrySpool`.

    Progress events (``round.*``, ``unit.*`` — what ``status --follow``
    and the ETA read) hit the disk the moment they are emitted, each as
    its own flushed line.  Bulk per-client events buffer in memory and
    drain as one batched ``events`` record at the next progress event
    (or at :meth:`finalize`, or when :attr:`BATCH_LIMIT` accumulate):
    one serialisation and one write per *round* instead of per client,
    which is what keeps full telemetry affordable on IoT-sized models
    where a client's whole training step is microseconds.  Ordering is
    preserved — the pending batch always drains *before* the progress
    event that follows it.  A killed worker loses at most the buffered
    batch; every flushed progress line survives, which is exactly the
    granularity the status/ETA reader needs.  The metrics registry and
    span forest are dumped once, by :meth:`finalize`, because they are
    cumulative state rather than a stream.
    """

    #: Event categories whose loss or staleness would break liveness:
    #: these flush through to the OS immediately.
    LIVE_PREFIXES: tuple[str, ...] = ("round.", "unit.")

    #: Drain the pending batch at this size even without a progress
    #: event, bounding both memory and crash loss.
    BATCH_LIMIT = 256

    def __init__(self, spool: TelemetrySpool, **observer_kwargs: Any) -> None:
        super().__init__(**observer_kwargs)
        self.spool = spool
        self._pending: list[ObsEvent] = []

    def emit(
        self, category: str, sim_time: float | None = None, **fields: Any
    ) -> ObsEvent:
        event = super().emit(category, sim_time=sim_time, **fields)
        if category.startswith(self.LIVE_PREFIXES):
            self._drain()
            self.spool.record_event(event, flush=True)
        else:
            self._pending.append(event)
            if len(self._pending) >= self.BATCH_LIMIT:
                self._drain()
        return event

    def _drain(self) -> None:
        if self._pending:
            self.spool.record_event_batch(self._pending)
            self._pending = []

    def finalize(self, status: str = "ok", **fields: Any) -> None:
        """Dump metrics + spans, then seal the spool with an ``end`` record."""
        if self.spool.closed:
            return
        self._drain()
        self.spool.record_metrics(self.metrics)
        if self.tracer.roots:
            self.spool.record_spans(self.tracer.roots)
        self.spool.finish(status=status, **fields)


def read_spool_records(
    path: str | Path, offset: int = 0
) -> tuple[list[dict], int]:
    """Parse the complete records of a spool file past ``offset`` bytes.

    Returns ``(records, new_offset)``.  Only bytes up to the last
    newline are consumed — a trailing partial line (in-progress write or
    crash truncation) is never parsed and never advances the offset, so
    a later call picks it up if it completes.  A line that is complete
    but not valid JSON (disk corruption) is skipped, not fatal: a spool
    is best-effort evidence, and one bad line must not discard the rest.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        handle.seek(offset)
        data = handle.read()
    cut = data.rfind(b"\n")
    if cut < 0:
        return [], offset
    records = []
    for line in data[: cut + 1].splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "kind" in record:
            records.append(record)
    return records, offset + cut + 1


def read_spool_tail(path: str | Path, limit: int = 20) -> list[dict]:
    """The last ``limit`` records of a spool file, best-effort.

    Failure records embed this as forensic context — what the unit was
    doing when it died.  A missing, empty, or unreadable spool yields an
    empty list rather than an error: evidence collection must never turn
    a unit failure into a campaign failure.
    """
    try:
        records, _ = read_spool_records(path)
    except OSError:
        return []
    return records[-limit:] if limit > 0 else []


class TelemetryCollector:
    """Tails a spool directory and merges records into a parent observer.

    Every merged record is labelled with its spool's ``unit`` and
    ``worker`` identity: events gain ``unit``/``worker`` fields, metric
    instruments gain ``unit``/``worker`` labels (so counters from
    different workers stay distinct yet sum to the campaign total), and
    span roots gain ``unit``/``worker`` attributes.  Polling is
    incremental and idempotent — each file's consumed byte offset is
    remembered, so calling :meth:`poll` from a scheduler loop costs one
    ``stat`` per spool when nothing is new.

    Args:
        directory: the spool directory (need not exist yet).
        observer: parent observer receiving the merged telemetry; when
            ``None`` the collector still parses and counts records
            (useful for status displays that only want progress).
    """

    def __init__(
        self,
        directory: str | Path,
        observer: Observer | None = None,
        on_record: Callable[[dict, dict], None] | None = None,
    ) -> None:
        self.directory = Path(directory)
        self._observer = observer
        self._on_record = on_record
        self._offsets: dict[Path, int] = {}
        self._meta: dict[Path, dict] = {}
        self.records_merged = 0

    def poll(self) -> int:
        """Consume every new complete record; returns how many merged."""
        if not self.directory.is_dir():
            return 0
        merged = 0
        for path in sorted(self.directory.glob("*.jsonl")):
            merged += self._poll_file(path)
        self.records_merged += merged
        return merged

    def _poll_file(self, path: Path) -> int:
        offset = self._offsets.get(path, 0)
        try:
            if path.stat().st_size <= offset:
                return 0
            records, new_offset = read_spool_records(path, offset)
        except OSError:
            return 0
        self._offsets[path] = new_offset
        meta = self._meta.setdefault(path, {})
        for record in records:
            if record["kind"] == "meta":
                meta.update(record)
            else:
                self._merge(record, meta)
        return len(records)

    def _merge(self, record: dict, meta: dict) -> None:
        if self._on_record is not None:
            self._on_record(record, meta)
        observer = self._observer
        if observer is None:
            return
        unit = meta.get("unit", "?")
        worker = meta.get("worker", "?")
        kind = record["kind"]
        if kind == "event":
            self._merge_event(observer, record["event"], unit, worker)
        elif kind == "events":
            for event_doc in record.get("events", ()):
                self._merge_event(observer, event_doc, unit, worker)
        elif kind == "metrics":
            from repro.obs.aggregate import merge_metric_records

            merge_metric_records(
                observer.metrics,
                record.get("records", ()),
                unit=unit,
                worker=worker,
            )
        elif kind == "spans":
            for span_doc in record.get("spans", ()):
                try:
                    span = Span.from_dict(span_doc)
                except ValueError:
                    continue
                span.set_attribute("unit", unit)
                span.set_attribute("worker", worker)
                observer.tracer.roots.append(span)
        elif kind == "end":
            observer.emit(
                "spool.end",
                unit=unit,
                worker=worker,
                status=record.get("status", "ok"),
            )

    @staticmethod
    def _merge_event(
        observer: Observer, event_doc: dict, unit: str, worker: Any
    ) -> None:
        try:
            event = ObsEvent.from_dict(event_doc)
        except ValueError:
            return
        fields = dict(event.fields)
        fields.setdefault("unit", unit)
        fields.setdefault("worker", worker)
        # The merged event keeps its category and sim time; its position
        # on the *worker's* clock survives as src_wall_s (the parent's
        # own emit stamps parent wall time).
        fields.setdefault("src_wall_s", event.wall_time_s)
        observer.emit(event.category, sim_time=event.sim_time_s, **fields)
