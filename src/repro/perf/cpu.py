"""How many CPUs this process may use, and an ordered map over them.

A process may use its share of the affinity mask: the mask's CPUs split
evenly among the sibling workers of the :func:`~repro.perf.scheduler.
process_executor` that started it (one, the process itself, outside a
worker).  Each GEMM already runs on OpenBLAS's own threads, so the
process can run that share over BLAS's thread count of its own threads
before it oversubscribes its CPUs.  That is its CPU budget::

    cpu_budget() = max(1, (affinity CPUs // sibling workers) // BLAS threads)

The BLAS thread count is read, never set: changing it moves the bits of
every forward above the small-GEMM cutoff (DESIGN.md, "GEMM
orientation").  When it cannot be read the budget is 1.

:func:`ordered_map` runs independent pieces of one computation (lane
blocks, evaluation row blocks) on that many threads.  numpy releases the
interpreter lock in GEMMs, ufunc loops, casts and gathers, so the pieces
overlap.  At budget 1 it is a plain loop and starts no thread; above it,
its threads end before it returns, so a process forked afterwards
inherits none.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

__all__ = ["cpu_budget", "cpu_share", "ordered_map", "set_sibling_workers"]

T = TypeVar("T")
R = TypeVar("R")

# Processes sharing this one's affinity mask, itself included: the
# max_workers of the process_executor that started it.
_sibling_workers = 1


def set_sibling_workers(workers: int) -> None:
    """Record that this process shares its mask with ``workers`` processes
    (itself included); :func:`process_executor`'s workers call it."""
    global _sibling_workers
    _sibling_workers = max(1, int(workers))


@functools.cache
def _openblas_get_num_threads() -> Callable[[], int] | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for library in sorted(libs.glob("*openblas*")):
        try:
            getter = ctypes.CDLL(str(library)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        return getter
    return None


def _blas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS, or ``None``."""
    getter = _openblas_get_num_threads()
    return None if getter is None else int(getter())


def cpu_share() -> int:
    """This process's CPUs: its affinity mask split among its siblings."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, cpus // _sibling_workers)


def cpu_budget() -> int:
    """Threads this process's maps may use: its CPU share over BLAS's
    own threads, or 1 when the BLAS thread count cannot be read."""
    threads = _blas_threads()
    if not threads:
        return 1
    return max(1, cpu_share() // threads)


def ordered_map(
    function: Callable[[T], R], items: Iterable[T], max_threads: int
) -> list[R]:
    """``[function(item) for item in items]`` on up to ``max_threads``
    threads, and no more than :func:`cpu_budget` allows.

    Results keep ``items``' order.  ``function`` must not depend on which
    other items ran before or beside it; each call here writes only its
    own rows of a shared output.  Callers cap ``max_threads`` by the work
    each thread gets: on a small map, starting threads and sharing the
    caches cost more than the second thread saves.
    """
    items = list(items)
    workers = min(cpu_budget(), len(items), max_threads)
    if workers <= 1:
        return [function(item) for item in items]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(function, items))
