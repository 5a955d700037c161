"""Performance substrate: caches and shared-memory plumbing.

Helpers behind the pluggable execution engine
(:mod:`repro.fl.engine`) and the vectorized sweep evaluation in
:mod:`repro.core.objective`:

* :class:`EvalCache` — version-keyed memoization of the coordinator's
  round evaluation (skipped/degraded rounds reuse the previous result);
* :class:`SharedDatasetStore` / :func:`attach_datasets` — one-time
  shipping of all client datasets to pool workers via
  ``multiprocessing.shared_memory``;
* :class:`SharedParameterBlock` / :func:`attach_parameters` — per-round
  broadcast of the global model to persistent pool workers;
* :class:`ParallelUnitScheduler` / :func:`estimate_unit_cost` /
  :func:`order_longest_first` — the longest-job-first supervision loop
  every campaign ``--jobs`` value runs through (inline or across
  processes), cancelled cooperatively through :mod:`repro.perf.cancel`;
  its :func:`~repro.perf.scheduler.process_executor` and
  :func:`~repro.perf.scheduler.terminate_workers` start and force-stop
  every worker process, the pool engine's included.
"""

from repro.perf.cache import EvalCache
from repro.perf.scheduler import (
    ParallelUnitScheduler,
    ScheduleOutcome,
    estimate_unit_cost,
    order_longest_first,
)
from repro.perf.shared_data import (
    SharedDatasetSpec,
    SharedDatasetStore,
    SharedParameterBlock,
    attach_datasets,
    attach_parameters,
)

__all__ = [
    "EvalCache",
    "ParallelUnitScheduler",
    "ScheduleOutcome",
    "SharedDatasetSpec",
    "SharedDatasetStore",
    "SharedParameterBlock",
    "attach_datasets",
    "attach_parameters",
    "estimate_unit_cost",
    "order_longest_first",
]
