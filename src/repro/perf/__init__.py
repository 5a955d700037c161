"""Performance substrate: caches, the process runtime and CPU budgets.

Helpers behind the pluggable execution engine
(:mod:`repro.fl.engine`) and the vectorized sweep evaluation in
:mod:`repro.core.objective`:

* :class:`EvalCache` — version-keyed memoization of the coordinator's
  round evaluation (skipped/degraded rounds reuse the previous result);
* :class:`ParallelUnitScheduler` / :func:`estimate_unit_cost` /
  :func:`order_longest_first` — the longest-job-first supervision loop
  every campaign ``--jobs`` value runs through (inline or across
  processes), cancelled cooperatively through :mod:`repro.perf.cancel`;
  its :func:`~repro.perf.scheduler.process_executor` and
  :func:`~repro.perf.scheduler.terminate_workers` start and force-stop
  every worker process;
* :mod:`repro.perf.cpu` — how many CPUs this process may use beside
  BLAS (:func:`~repro.perf.cpu.cpu_budget`), the ordered map that
  trains lane blocks and full-batch clients and scores evaluation rows
  on them, and the run-beside that shapes synthetic-MNIST classes
  beside their random draws.
"""

from repro.perf.cache import EvalCache
from repro.perf.scheduler import (
    ParallelUnitScheduler,
    ScheduleOutcome,
    estimate_unit_cost,
    order_longest_first,
)

__all__ = [
    "EvalCache",
    "ParallelUnitScheduler",
    "ScheduleOutcome",
    "estimate_unit_cost",
    "order_longest_first",
]
