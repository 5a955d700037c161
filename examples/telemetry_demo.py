"""Telemetry demo: observe a full prototype run end to end.

This example attaches a :class:`repro.obs.Observer` to the hardware
prototype, runs a short FedAvg schedule on the simulated Raspberry Pi
testbed, and then inspects everything the observability layer captured:

* the structured event log (``round.start``, ``client.train``,
  ``client.upload``, ``server.aggregate``, ``round.end``,
  ``prototype.round``),
* the metrics registry (gradient-step / upload counters, per-phase
  energy counters mirroring the paper's Fig. 3 breakdown, round-duration
  histograms and the ``profile.*`` client-training / aggregation timing
  histograms), and
* the span tree built by the tracer.

Finally the whole log is dumped to JSONL and re-loaded to show the
offline-analysis round trip.

Run:  python examples/telemetry_demo.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig
from repro.obs import EventLog, Observer

# ----------------------------------------------------------------------
# 1. Build an observed prototype and run a short schedule.
# ----------------------------------------------------------------------
observer = Observer()

train = generate_synthetic_mnist(480, seed=7)
test = generate_synthetic_mnist(120, seed=8)
prototype = HardwarePrototype(
    train, test, PrototypeConfig(n_servers=5), observer=observer
)
result = prototype.run(participants=2, epochs=3, n_rounds=6)

print("=" * 64)
print("Observed prototype run")
print("=" * 64)
print(
    f"rounds={result.rounds}  "
    f"accuracy={result.history.summary()['final_accuracy']:.3f}  "
    f"energy={result.total_energy_j:.3f} J  "
    f"wall-clock={result.wall_clock_s:.1f} simulated s"
)

# ----------------------------------------------------------------------
# 2. The event log: one structured record per interesting thing.
# ----------------------------------------------------------------------
print()
print("Event counts by category:")
for category, count in sorted(observer.events.categories().items()):
    print(f"  {category:<20} {count}")

first_round = observer.events.filter("round.end")[0]
print()
print(
    "First round.end payload: "
    f"loss={first_round.fields['train_loss']:.4f} "
    f"participants={first_round.fields['participants']}"
)

# ----------------------------------------------------------------------
# 3. The metrics registry reconciles with the run's own accounting.
# ----------------------------------------------------------------------
print()
print("Metrics:")
print(observer.metrics.render_text())

total_metered = observer.metrics.sum_values("energy.joules")
assert abs(total_metered - result.total_energy_j) < 1e-9
print()
print(
    f"per-phase energy counters sum to {total_metered:.3f} J == "
    "prototype total (paper Fig. 3 decomposition)"
)

# ----------------------------------------------------------------------
# 4. Spans and timing histograms.
# ----------------------------------------------------------------------
print()
print("Span tree (first two rounds):")
for root in observer.tracer.roots[:2]:
    for span in root.iter_spans():
        print(f"  {span.name}: {span.duration_s * 1e3:.2f} ms")

train_timer = observer.metrics.histogram("profile.client_train_s")
print(
    f"hot path: {train_timer.count} client-training timings, "
    f"mean {train_timer.mean * 1e3:.2f} ms"
)

# ----------------------------------------------------------------------
# 5. JSONL round trip for offline analysis.
# ----------------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "telemetry.jsonl"
    observer.dump_jsonl(path)
    restored = EventLog.load_jsonl(path)
    print()
    print(f"dumped {len(restored)} JSONL lines to {path.name} and re-loaded")
    assert restored[-1].category == "metrics.snapshot"
