"""Pluggable execution engines for one round of local training.

The federated trainer's hot loop — "train the round's ``K`` selected
clients from the current global model" — is isolated behind a small
engine interface so the *how* can vary without touching FedAvg
semantics:

* :class:`SequentialEngine` — the reference path: one
  :meth:`EdgeServerClient.train` call per participant, results in
  participant order.  Above a CPU budget of 1
  (:func:`~repro.perf.cpu.cpu_budget`) a full-batch cohort of clients
  with at least ``_THREAD_MIN_ROWS`` rows each trains on that many
  threads, as the paper's devices train side by side, with the same
  bits (:func:`_train_clients`).
* :class:`PopulationEngine` — the one vectorized engine.  It adopts the
  clients' partition table once (a
  :class:`~repro.fl.client.ClientFleet`'s, building no client and
  copying no row) and trains each cohort's full-batch gradient descent
  as batched matmul kernels over ``(G, n, d)`` / ``(G, d, C)`` tensors
  gathered from the pooled rows one lane block at a time.  Only valid for the
  paper's setting (logistic regression, ``batch_size=None``, see
  :func:`vectorizable`); :func:`create_engine` hands anything else a
  :class:`SequentialEngine`.  Per-client order of operations matches
  the sequential path (batched ``matmul`` is per-slice gemm), so
  float64 results agree to ``atol=1e-10``.  :class:`BatchedEngine` is
  its deprecated ``"batched"`` spelling, pinned to float64.
* :class:`PoolEngine` — the ``"pool"`` spelling of the sequential
  engine, kept because backend names are hashed into unit keys.

All engines return the round as one
:class:`~repro.fl.client.CohortUpdates`, rows in participant order,
which the trainer relies on for dropout draws, compression, upload
simulation and aggregation.  The population engine hands over the
matrix its kernel trained into; the per-client engines stack their
``K`` rows once.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.faults.models import substream
from repro.fl.client import CohortUpdates, EdgeServerClient, shared_model_config
from repro.fl.model import LogisticRegressionConfig
from repro.fl.population import PopulationState, train_cohort
from repro.perf.cpu import ordered_map

if TYPE_CHECKING:
    from repro.fl.training import FederatedConfig
    from repro.obs.observer import Observer

__all__ = [
    "AUTO_BACKEND",
    "BACKENDS",
    "ExecutionEngine",
    "SequentialEngine",
    "BatchedEngine",
    "PoolEngine",
    "PopulationEngine",
    "create_engine",
    "resolve_backend",
    "vectorizable",
]

# "batched" is a deprecated spelling of "population"; it stays accepted
# because the backend name is hashed into ``RunSpec.key()``.
BACKENDS = ("sequential", "batched", "pool", "population")

# Sentinel accepted wherever a backend name is: resolved to a concrete
# member of BACKENDS from the spec by :func:`resolve_backend`.
AUTO_BACKEND = "auto"


class ExecutionEngine:
    """Interface every backend implements."""

    name = "abstract"

    def train_round(
        self,
        participants: Sequence[int],
        global_parameters: np.ndarray,
        round_index: int,
        learning_rate: float,
    ) -> CohortUpdates:
        """Train every participant from ``global_parameters``, in order."""
        raise NotImplementedError


def _batch_rng(
    config: "FederatedConfig", client_id: int, round_index: int
) -> np.random.Generator | None:
    """Mini-batch shuffle stream of one client's local training.

    Keyed by ``(seed, client, round)`` so any execution order consumes
    the identical shuffle.  ``None`` on the full-batch path, where no
    shuffle randomness is drawn at all.
    """
    if config.sgd.batch_size is None:
        return None
    return substream(config.seed, "batches", client_id, round_index)


# Rows every client of a full-batch cohort holds at least before
# :func:`_train_clients` trains the cohort on the CPU budget's threads.
# With one BLAS thread on 2 vCPUs, 20 clients at budget 2 took this
# share of budget 1's time (medians of 5 to 7 alternated pairs), for
# E = 1, 4 and 16:
#
#     rows   784x10 LR            784-64-10 MLP
#      100   1.22  1.13  1.06     1.04  1.13  0.99
#      128   1.15  0.83  1.01     (noisy, 0.85 to 1.78)
#      192   1.02  1.18  0.76
#      256   0.86  0.66  0.63     1.09  1.08  0.54
#      512   0.77  0.60  0.58     0.59  0.53  0.58
#     1000   0.69  0.60  0.56     0.81  0.60  0.58
#
# The small-GEMM cutoff (128 rows at 784x10, ``model._swaps_forward``) is
# still break-even; from 256 rows the paper's model always gains.
_THREAD_MIN_ROWS = 256


def _trains_on_threads(
    clients: Sequence[EdgeServerClient],
    config: "FederatedConfig",
    participants: Sequence[int],
) -> bool:
    """Whether :func:`_train_clients` may train ``participants`` on threads.

    Only a cohort that trains full batch, names each client once and
    gives every client at least ``_THREAD_MIN_ROWS`` rows: such clients
    share nothing (each owns its model, its rows and their widened
    copies, and draws no shuffle), so their updates keep their bits on
    any thread.  Mini-batch training is never threaded: it measured
    0.83x on batches of 32.
    """
    return (
        config.sgd.batch_size is None
        and len(set(participants)) == len(participants)
        and all(clients[c].n_samples >= _THREAD_MIN_ROWS for c in participants)
    )


def _train_clients(
    clients: Sequence[EdgeServerClient],
    config: "FederatedConfig",
    participants: Sequence[int],
    global_parameters: np.ndarray,
    round_index: int,
    learning_rate: float,
) -> tuple[list, list[float]]:
    """The one per-client loop: ``(updates, durations)`` in participant order.

    The clients train through :func:`~repro.perf.cpu.ordered_map`, on
    the CPU budget's threads where :func:`_trains_on_threads` allows,
    with the same bits at any budget.  Each duration is its own client's
    wall time, so threaded durations overlap.
    """

    def train(client_id: int) -> tuple:
        started = time.perf_counter()
        update = clients[client_id].train(
            global_parameters,
            epochs=config.local_epochs,
            learning_rate=learning_rate,
            sgd=config.sgd,
            proximal_mu=config.proximal_mu,
            rng=_batch_rng(config, client_id, round_index),
        )
        return update, time.perf_counter() - started

    threads = len(participants)
    if not _trains_on_threads(clients, config, participants):
        threads = 1
    trained = ordered_map(train, participants, threads)
    return [update for update, _ in trained], [
        duration for _, duration in trained
    ]


class SequentialEngine(ExecutionEngine):
    """Reference backend: per-client training, results in participant
    order.

    Runs :func:`_train_clients` over the whole cohort in this process,
    so a full-batch cohort above the row floor trains on the process's
    CPU budget, and each update has the same bits at any budget.
    """

    name = "sequential"

    def __init__(
        self,
        clients: Sequence[EdgeServerClient],
        config: "FederatedConfig",
        observer: "Observer | None" = None,
    ) -> None:
        # Every client is built here, at set-up, never inside a round.
        self._clients = list(clients)
        self._config = config
        self._observer = observer

    def train_round(
        self,
        participants: Sequence[int],
        global_parameters: np.ndarray,
        round_index: int,
        learning_rate: float,
    ) -> CohortUpdates:
        return CohortUpdates.from_updates(
            *_train_clients(
                self._clients,
                self._config,
                participants,
                global_parameters,
                round_index,
                learning_rate,
            )
        )


def vectorizable(
    clients: Sequence[EdgeServerClient], config: "FederatedConfig"
) -> bool:
    """Whether the stacked kernel reproduces per-client training exactly.

    Only the paper's setting qualifies: logistic regression trained by
    full-batch gradient descent.  Mini-batch SGD and the MLP train per
    client — :func:`create_engine` and :func:`resolve_backend` both
    decide with this one predicate.
    """
    return (
        isinstance(shared_model_config(clients), LogisticRegressionConfig)
        and config.sgd.batch_size is None
    )


class PopulationEngine(ExecutionEngine):
    """Struct-of-arrays backend over a :class:`PopulationState`.

    Adopts the *whole population's* partition table once at
    construction, holding the pooled rows and a row index per ``n_k``
    group but no copy of any sample, and trains every cohort by
    fancy-indexed gathers from the pooled rows, one
    :func:`~repro.fl.population.fullbatch_gd_stack` call per lane block
    — no per-client Python objects on the hot path, so N scales to
    millions.  Requires a :func:`vectorizable` config.  In float64 the
    results agree with sequential to ``atol=1e-10``; ``dtype=
    "float32"`` computes in float32 instead, at a measured accuracy
    delta.  The pooled rows keep their stored dtype either way.
    """

    name = "population"

    def __init__(
        self,
        clients: Sequence[EdgeServerClient],
        config: "FederatedConfig",
        observer: "Observer | None" = None,
        *,
        dtype: str = "float64",
    ) -> None:
        if not vectorizable(clients, config):
            raise ValueError(
                "the population engine needs logistic regression with "
                "full-batch GD; use the sequential engine"
            )
        self._config = config
        self._observer = observer
        self.state = PopulationState.from_clients(clients, dtype=dtype)

    def train_round(
        self,
        participants: Sequence[int],
        global_parameters: np.ndarray,
        round_index: int,
        learning_rate: float,
    ) -> CohortUpdates:
        started = time.perf_counter()
        config = self._config
        cohort = train_cohort(
            self.state,
            participants,
            global_parameters,
            epochs=config.local_epochs,
            learning_rate=learning_rate,
            proximal_mu=config.proximal_mu,
        )
        elapsed = time.perf_counter() - started
        if self._observer is not None:
            self._observer.counter("engine.population_rounds").inc()
            self._observer.counter("engine.population_clients").inc(
                len(participants)
            )
        per_client = elapsed / max(1, len(participants))
        return replace(
            cohort, durations_s=np.full(len(participants), per_client)
        )


class BatchedEngine(PopulationEngine):
    """Deprecated: the ``"batched"`` spelling of :class:`PopulationEngine`.

    Kept as a subclass, not an alias, so tooling that wraps each engine
    class's ``train_round`` wraps it once.  :func:`create_engine` builds
    it in float64, as the batched engine always computed.
    """

    name = "batched"


class PoolEngine(SequentialEngine):
    """The ``"pool"`` spelling of :class:`SequentialEngine`.

    Kept, like ``"batched"``, because backend names are hashed into
    ``RunSpec.key()``.  ``train_round`` is the class's own attribute, so
    tooling that wraps each engine class's ``train_round`` wraps it once.
    """

    name = "pool"
    train_round = SequentialEngine.train_round


# ----------------------------------------------------------------------
# Backend selection (``--backend auto``): a pure function of the spec.
# ----------------------------------------------------------------------

# Below this population size ``auto`` computes in float64 whatever
# ``population_dtype`` says: stores keyed there were written by the
# float64-only batched engine, and resuming them must give the same
# bytes.
_AUTO_FLOAT32_MIN_CLIENTS = 256


def resolve_backend(
    backend: str,
    clients: Sequence[EdgeServerClient],
    config: "FederatedConfig",
) -> str:
    """Resolve ``"auto"`` to a concrete backend; pass others through.

    A :func:`vectorizable` spec resolves to ``"population"``, anything
    else to ``"sequential"``.
    """
    if backend != AUTO_BACKEND:
        return backend
    if vectorizable(clients, config):
        return "population"
    return "sequential"


def create_engine(
    backend: str,
    clients: Sequence[EdgeServerClient],
    config: "FederatedConfig",
    observer: "Observer | None" = None,
) -> ExecutionEngine:
    """Instantiate the execution backend named by ``backend``.

    ``"auto"`` is resolved first (see :func:`resolve_backend`).  The
    vectorized spellings build a :class:`SequentialEngine` when the
    config is not :func:`vectorizable`.  Only ``"population"`` (and
    ``"auto"`` at population scale) honours ``population_dtype``.
    """
    resolved = resolve_backend(backend, clients, config)
    if resolved in ("batched", "population") and not vectorizable(
        clients, config
    ):
        resolved = "sequential"
    if resolved == "sequential":
        return SequentialEngine(clients, config, observer)
    if resolved == "batched":
        return BatchedEngine(clients, config, observer)
    if resolved == "pool":
        return PoolEngine(clients, config, observer)
    if resolved == "population":
        dtype = config.population_dtype
        if backend == AUTO_BACKEND and len(clients) < _AUTO_FLOAT32_MIN_CLIENTS:
            dtype = "float64"
        return PopulationEngine(clients, config, observer, dtype=dtype)
    raise ValueError(
        f"backend must be one of {BACKENDS}; got {backend!r}"
    )
