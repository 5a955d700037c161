"""The :class:`Observer` facade: one handle bundling all three substrates.

Instrumented components accept ``observer: Observer | None = None`` and
do nothing when it is ``None``, the one way to run without telemetry.
The convention for call sites::

    self._observer = observer
    ...
    if self._observer is not None:
        self._observer.emit("round.start", round=t)

so that disabled observability costs exactly one ``is not None`` check
per instrumentation point — no event dict construction, no metric
lookups, no clock reads.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable

from repro.obs.events import EventLog, ObsEvent
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = ["Observer"]


class Observer:
    """Bundle of event log + metrics registry + tracer.

    Args:
        clock: shared monotonic time source for events and spans
            (injectable for deterministic tests).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.events = EventLog(clock=clock)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=clock)

    # ------------------------------------------------------------------
    # Convenience pass-throughs (the facade most call sites use).
    # ------------------------------------------------------------------
    def emit(
        self, category: str, sim_time: float | None = None, **fields: Any
    ) -> ObsEvent | None:
        return self.events.emit(category, sim_time=sim_time, **fields)

    def counter(self, name: str, **labels: Any) -> Counter:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.metrics.gauge(name, **labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: Any
    ) -> Histogram:
        return self.metrics.histogram(name, buckets=buckets, **labels)

    def span(self, name: str, **attributes: Any):
        return self.tracer.span(name, **attributes)

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Combined JSON-ready view: metrics snapshot + trace forest.

        ``metrics`` is the rendered-name mapping (human-oriented);
        ``metric_records`` the structured per-instrument list that
        :mod:`repro.obs.aggregate` folds across processes.
        """
        return {
            "metrics": self.metrics.snapshot(),
            "metric_records": self.metrics.to_records(),
            "n_events": len(self.events),
            "spans": self.tracer.to_dicts(),
        }

    def dump_jsonl(self, path: str | Path) -> None:
        """Write the full telemetry of a run to one JSONL file.

        Every event becomes one line; a final ``metrics.snapshot`` line
        carries the metrics registry (and span forest), so the file is
        self-contained.  :meth:`repro.obs.events.EventLog.load_jsonl`
        reads the same file back — the snapshot line is an ordinary
        event whose fields hold the snapshot.
        """
        self.emit("metrics.snapshot", **self.snapshot())
        self.events.save_jsonl(path)

    def render_text(self) -> str:
        """Metrics table + span tree, for terminals."""
        return (
            f"events: {len(self.events)}\n"
            f"--- metrics ---\n{self.metrics.render_text()}\n"
            f"--- spans ---\n{self.tracer.render_text()}"
        )
