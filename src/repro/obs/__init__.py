"""Observability: structured events, metrics and tracing.

The paper's argument is built on *measurement* — POWER-Z traces at 1 kHz
feeding the ``(c0, c1)`` fit, per-round energy and timing behind every
figure.  This package gives the reproduction the same visibility at
runtime:

* :mod:`repro.obs.events` — an append-only structured event log
  (``round.start``, ``client.train``, ``acs.iteration``, ...) with both
  monotonic wall time and simulation time, exportable as JSONL;
* :mod:`repro.obs.metrics` — process-local counters, gauges, and
  fixed-bucket histograms (``fl.gradient_steps``,
  ``energy.joules{phase=train}``, ...) with a ``snapshot()`` dict and a
  text renderer;
* :mod:`repro.obs.tracing` — a lightweight span API producing a
  parent/child tree with durations;
* :mod:`repro.obs.observer` — the :class:`Observer` facade bundling all
  three;
* :mod:`repro.obs.sink` — cross-process transport: worker-side
  :class:`TelemetrySpool` files (append-only JSONL, crash-safe readable
  prefix) and the parent-side :class:`TelemetryCollector` that tails
  and merges them;
* :mod:`repro.obs.aggregate` — :class:`CampaignTelemetry`, the reducer
  folding per-unit metric snapshots into one campaign-wide registry
  with reconciliation checks;
* :mod:`repro.obs.export` — standard-format exports: OpenMetrics /
  Prometheus text and Chrome trace-event JSON.

Every instrumented component (:class:`~repro.fl.training.FederatedTrainer`,
:class:`~repro.core.acs.ACSSolver`,
:class:`~repro.hardware.prototype.HardwarePrototype`, ...) takes an
optional ``observer`` and behaves identically — at negligible overhead —
when it is ``None``, the one way to run without telemetry.
"""

from repro.obs.aggregate import (
    CampaignTelemetry,
    UnitTelemetry,
    merge_metric_records,
    records_from_snapshot,
)
from repro.obs.events import EventLog, ObsEvent
from repro.obs.export import (
    to_chrome_trace,
    to_openmetrics,
    write_chrome_trace,
    write_openmetrics,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_DURATION_BUCKETS_S,
    parse_metric_name,
)
from repro.obs.observer import Observer
from repro.obs.sink import (
    SpoolObserver,
    TelemetryCollector,
    TelemetrySpool,
    read_spool_records,
    read_spool_tail,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "CampaignTelemetry",
    "Counter",
    "DEFAULT_DURATION_BUCKETS_S",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsEvent",
    "Observer",
    "Span",
    "SpoolObserver",
    "TelemetryCollector",
    "TelemetrySpool",
    "Tracer",
    "UnitTelemetry",
    "merge_metric_records",
    "parse_metric_name",
    "read_spool_records",
    "read_spool_tail",
    "records_from_snapshot",
    "to_chrome_trace",
    "to_openmetrics",
    "write_chrome_trace",
    "write_openmetrics",
]
