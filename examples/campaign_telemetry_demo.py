"""Cross-process campaign telemetry: spools, live status, exact totals.

A ``--jobs N`` campaign scatters training over scheduler subprocesses,
so no single process's :class:`repro.Observer` sees the whole run.  This demo
shows the pipeline that reunifies them:

1. run a small parallel ``(K, E)`` campaign with telemetry on — every
   unit streams events/metrics to an append-only spool file, and a
   parent-side collector tails the spools live into one observer;
2. read the campaign's live status mid-flight the way
   ``repro campaign status --follow`` does — per-unit states, round
   progress, and an ETA from the scheduler's cost model;
3. fold the stored per-unit telemetry into exact campaign-wide totals
   (deterministic: the same numbers for any worker count) and print the
   aggregated metrics table;
4. export the merged registry as OpenMetrics text and the span forest
   as a Chrome trace, the formats Prometheus/Perfetto already speak.

Run:  python examples/campaign_telemetry_demo.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro import (
    ArtifactStore,
    CampaignRunner,
    CampaignSpec,
    CampaignStatus,
    Observer,
    RunSpec,
    campaign_telemetry,
)
from repro.obs import to_chrome_trace, to_openmetrics

# ----------------------------------------------------------------------
# 1. Declare a small telemetry-on campaign and run it with jobs=2.
# ----------------------------------------------------------------------
base = RunSpec(
    name="demo",
    n_train=640,
    n_test=160,
    n_servers=8,
    max_rounds=4,
    train_to_target=False,
    telemetry=True,  # every unit gets a SpoolObserver
    seed=0,
)
campaign = CampaignSpec(
    name="telemetry-demo", base=base, participants=(2, 4), epochs=(1, 2)
)

workdir = Path(tempfile.mkdtemp(prefix="campaign-telemetry-"))
store = ArtifactStore(workdir / "store")
observer = Observer()  # the parent-side merge target

print(f"running {len(campaign)} units with jobs=2 -> {store.root}")
runner = CampaignRunner(campaign, store, observer=observer)
summary = runner.run(jobs=2)
print(f"executed {summary.executed} units\n")

# ----------------------------------------------------------------------
# 2. Status, the way `repro campaign status` reads it: manifest + spools.
#    (After the run everything is done; mid-run the same call shows
#    running units with live round progress and a throughput-based ETA.)
# ----------------------------------------------------------------------
status = CampaignStatus.collect(store)
print(status.render())
print()

# ----------------------------------------------------------------------
# 3. Campaign-wide totals, folded from the stored per-unit telemetry in
#    sorted-key order with exact summation — bit-identical for any
#    worker count, and reconciled against the recorded results.
# ----------------------------------------------------------------------
telemetry = campaign_telemetry(store)
print(telemetry.render_text())
problems = telemetry.reconcile()
print(f"reconciliation: {'clean' if not problems else problems}")
print(
    f"collector merged the same stream live: "
    f"{observer.metrics.sum_values('energy.joules'):.6f} J "
    f"across {len(observer.events)} parent events\n"
)

# ----------------------------------------------------------------------
# 4. Standard-format exports from the merged parent observer.
# ----------------------------------------------------------------------
openmetrics = to_openmetrics(observer.metrics)
trace = to_chrome_trace(observer.tracer)
(workdir / "metrics.txt").write_text(openmetrics)
print(f"OpenMetrics exposition: {len(openmetrics.splitlines())} lines, e.g.")
for line in openmetrics.splitlines()[:4]:
    print(f"  {line}")
(workdir / "trace.json").write_text(json.dumps(trace, indent=1))
print(
    f"Chrome trace: {len(trace['traceEvents'])} events "
    f"(load {workdir / 'trace.json'} in chrome://tracing or Perfetto)"
)
