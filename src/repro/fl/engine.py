"""Pluggable execution engines for one round of local training.

The federated trainer's hot loop — "train the round's ``K`` selected
clients from the current global model" — is isolated behind a small
engine interface so the *how* can vary without touching FedAvg
semantics:

* :class:`SequentialEngine` — the reference path: one
  :meth:`EdgeServerClient.train` call per participant, in order.
* :class:`PopulationEngine` — the one vectorized engine.  It stacks the
  clients' partitions into struct-of-arrays group stacks once (from a
  :class:`~repro.fl.client.ClientFleet`'s table, building no client)
  and trains each cohort's full-batch gradient descent as batched
  matmul kernels over ``(G, n, d)`` / ``(G, d, C)`` tensors.  Only valid for the
  paper's setting (logistic regression, ``batch_size=None``, see
  :func:`vectorizable`); :func:`create_engine` hands anything else a
  :class:`SequentialEngine`.  Per-client order of operations matches
  the sequential path (batched ``matmul`` is per-slice gemm), so
  float64 results agree to ``atol=1e-10``.  :class:`BatchedEngine` is
  its deprecated ``"batched"`` spelling, pinned to float64.
* :class:`PoolEngine` — persistent worker processes started through
  :func:`repro.perf.scheduler.process_executor`, the seam the campaign
  scheduler's units use, so signals reach them as cancel requests and a
  forced teardown goes through
  :func:`~repro.perf.scheduler.terminate_workers`.  Workers initialize
  exactly once per training run: client datasets ship via shared memory
  (:mod:`repro.perf.shared_data`), the static training configuration
  (epochs, SGD, FedProx mu, seed) rides in the worker initializer, and
  per-client model/client objects stay resident in the worker between
  rounds.  Workers keep no telemetry: the engine counts chunks and
  clients in its own observer.  Each round is one *chunked cohort
  submission*: the cohort is split into at most ``pool_workers``
  contiguous chunks and each chunk is a single task carrying only
  client ids, the round index, and the learning rate — the global
  parameter vector is broadcast through a
  :class:`~repro.perf.shared_data.SharedParameterBlock` rewritten by
  the parent before submission, so per-round IPC is a few tiny pickles
  instead of ``K`` dataset/config/parameter copies.  Every
  chunk replays the exact sequential client code path with mini-batch
  shuffles drawn from a per-``(seed, client, round)`` named substream,
  so results are bit-identical regardless of worker count (and chunk
  count) and identical to sequential execution.

All engines return the round as one
:class:`~repro.fl.client.CohortUpdates`, rows in participant order,
which the trainer relies on for dropout draws, compression, upload
simulation and aggregation.  The population engine hands over the
matrix its kernel trained into; the per-client engines stack their
``K`` rows once.
"""

from __future__ import annotations

import time
from concurrent.futures import wait
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.faults.models import substream
from repro.fl.client import CohortUpdates, EdgeServerClient, shared_model_config
from repro.fl.model import LogisticRegressionConfig
from repro.fl.population import PopulationState, train_cohort
from repro.perf.cancel import check_cancelled, interruptible
from repro.perf.cpu import cpu_share
from repro.perf.scheduler import process_executor, terminate_workers
from repro.perf.shared_data import (
    SharedDatasetStore,
    SharedParameterBlock,
    attach_datasets,
    attach_parameters,
)

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

    def close(self) -> None:
        """Release engine resources (pools, shared memory).  Idempotent."""


def _batch_rng(
    config: "FederatedConfig", client_id: int, round_index: int
) -> np.random.Generator | None:
    """Mini-batch shuffle stream shared by the sequential and pool paths.

    Keyed by ``(seed, client, round)`` so any execution order — or
    process — consumes the identical shuffle.  ``None`` on the
    full-batch path, where no shuffle randomness is drawn at all.
    """
    if config.sgd.batch_size is None:
        return None
    return substream(config.seed, "batches", client_id, round_index)


class SequentialEngine(ExecutionEngine):
    """Reference backend: per-client training in participant order."""

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
        config = self._config
        updates, durations = [], []
        for client_id in participants:
            started = time.perf_counter()
            updates.append(
                self._clients[client_id].train(
                    global_parameters,
                    epochs=config.local_epochs,
                    learning_rate=learning_rate,
                    sgd=config.sgd,
                    proximal_mu=config.proximal_mu,
                    rng=_batch_rng(config, client_id, round_index),
                )
            )
            durations.append(time.perf_counter() - started)
        return CohortUpdates.from_updates(updates, durations)


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

    Adopts the *whole population* into group stacks once at
    construction and trains every cohort by fancy-indexed gather + one
    :func:`~repro.fl.population.fullbatch_gd_stack` call per ``n_k``
    group — no per-client Python objects on the hot path, so N scales
    to millions.  Requires a :func:`vectorizable` config.  In float64
    the results agree with sequential to ``atol=1e-10``; ``dtype=
    "float32"`` computes in float32 instead, at a measured accuracy
    delta.  The stacks keep the partitions' stored dtype either way.
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
                "full-batch GD; use the sequential or pool engine"
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


# ----------------------------------------------------------------------
# Pool backend: worker-side state and task function.  Module-level so
# they are picklable under any start method.
# ----------------------------------------------------------------------
_POOL_STATE: dict = {}

# How long a forced teardown waits for chunk workers to unwind before
# SIGKILL.  They own nothing to release (the parent unlinks the shared
# blocks), so the wait only has to cover the current numpy call.
_KILL_GRACE_S = 1.0


def _pool_initializer(
    spec,
    param_name,
    n_parameters,
    model_config,
    seed,
    epochs,
    sgd,
    mu,
) -> None:
    """One-time worker setup: attach shared data, pin the static config.

    Everything that is constant for the lifetime of a training run —
    datasets, model config, seed, epochs, SGD config, FedProx mu — lands
    here exactly once, so per-round tasks never re-pickle any of it.
    """
    datasets, handles = attach_datasets(spec)
    params, param_handle = attach_parameters(param_name, n_parameters)
    _POOL_STATE["datasets"] = datasets
    # Keep every shm buffer alive for the worker's lifetime.
    _POOL_STATE["handles"] = handles + (param_handle,)
    _POOL_STATE["params"] = params
    _POOL_STATE["model_config"] = model_config
    _POOL_STATE["seed"] = seed
    _POOL_STATE["epochs"] = epochs
    _POOL_STATE["sgd"] = sgd
    _POOL_STATE["mu"] = mu
    _POOL_STATE["clients"] = {}


def _pool_train_chunk(task):
    """Train one contiguous chunk of the round's cohort in this worker.

    The global parameters are snapshotted from the shared block once per
    chunk; each client then runs the exact sequential
    :meth:`EdgeServerClient.train` code path (resident client objects,
    per-``(seed, client, round)`` shuffle substreams), so the result is
    bit-identical to sequential execution for any chunking.
    """
    chunk, round_index, learning_rate = task
    params = np.array(_POOL_STATE["params"])
    epochs = _POOL_STATE["epochs"]
    sgd = _POOL_STATE["sgd"]
    mu = _POOL_STATE["mu"]
    seed = _POOL_STATE["seed"]
    clients = _POOL_STATE["clients"]
    results = []
    for client_id in chunk:
        started = time.perf_counter()
        client = clients.get(client_id)
        if client is None:
            client = EdgeServerClient(
                client_id,
                _POOL_STATE["datasets"][client_id],
                _POOL_STATE["model_config"],
            )
            clients[client_id] = client
        rng = None
        if sgd is not None and sgd.batch_size is not None:
            rng = substream(seed, "batches", client_id, round_index)
        update = client.train(
            params,
            epochs=epochs,
            learning_rate=learning_rate,
            sgd=sgd,
            proximal_mu=mu,
            rng=rng,
        )
        results.append((update, time.perf_counter() - started))
    return results


def _close_runtime(
    executor, store: SharedDatasetStore, params: SharedParameterBlock
) -> None:
    """Stop the chunk workers, then unlink the shared blocks.

    Idle workers leave on the executor's shutdown sentinel; a hard
    cancel during that wait ends them through :func:`terminate_workers`.
    """
    try:
        with interruptible():
            executor.shutdown(wait=True, cancel_futures=True)
    except KeyboardInterrupt:
        terminate_workers(executor, _KILL_GRACE_S)
        raise
    finally:
        try:
            store.close()
        finally:
            params.close()


def _chunk_evenly(items: list, n_chunks: int) -> list[list]:
    """Split ``items`` into at most ``n_chunks`` contiguous, even chunks."""
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


class PoolEngine(ExecutionEngine):
    """Persistent worker processes over shared-memory client datasets.

    Workers initialize once per training run (datasets via shared
    memory, static training config via the initializer) and keep their
    client/model objects resident between rounds; each round submits one
    task per contiguous cohort chunk with the global parameters
    broadcast through a shared block.  Workers run the *same*
    :meth:`EdgeServerClient.train` code path as the sequential engine
    (with the same per-``(seed, client, round)`` mini-batch substreams),
    and results are gathered in chunk order, so they are deterministic
    and bit-identical to sequential execution for any worker count.  The
    workers come from :func:`~repro.perf.scheduler.process_executor`, the
    seam the campaign scheduler's units use too.  The executor and the
    shared blocks are created lazily on the first round and released by
    :meth:`close` (or at garbage collection via a finalizer); a failure
    while the runtime is being brought up rolls back every partially
    created resource before propagating.
    """

    name = "pool"

    def __init__(
        self,
        clients: Sequence[EdgeServerClient],
        config: "FederatedConfig",
        observer: "Observer | None" = None,
    ) -> None:
        # Built at set-up; the workers start on the first round.
        self._clients = list(clients)
        self._config = config
        self._observer = observer
        self._executor = None
        self._store: SharedDatasetStore | None = None
        self._params: SharedParameterBlock | None = None
        self._finalizer = None

    def _ensure_pool(self, n_parameters: int) -> None:
        if self._executor is not None:
            return
        import weakref

        store = None
        params = None
        try:
            store = SharedDatasetStore(
                [client.dataset for client in self._clients]
            )
            params = SharedParameterBlock(n_parameters)
            config = self._config
            executor = process_executor(
                config.pool_workers,
                _pool_initializer,
                (
                    store.spec,
                    params.name,
                    params.n_parameters,
                    self._clients[0].model_config,
                    config.seed,
                    config.local_epochs,
                    config.sgd,
                    config.proximal_mu,
                ),
            )
        except BaseException:
            # Roll back partial construction: without this, a failure
            # between shm creation and the executor's start would leak
            # segments that no finalizer knows about yet.
            if params is not None:
                params.close()
            if store is not None:
                store.close()
            raise
        self._store = store
        self._params = params
        self._executor = executor
        self._finalizer = weakref.finalize(
            self, _close_runtime, executor, store, params
        )

    def train_round(
        self,
        participants: Sequence[int],
        global_parameters: np.ndarray,
        round_index: int,
        learning_rate: float,
    ) -> CohortUpdates:
        if not participants:
            return CohortUpdates.from_updates([])
        broadcast = np.ascontiguousarray(global_parameters, dtype=np.float64)
        self._ensure_pool(broadcast.size)
        # Publish the round's model once; the round waits for every
        # chunk, so no worker can still be reading when the next round
        # rewrites it.
        self._params.write(broadcast)
        chunks = _chunk_evenly(list(participants), self._config.pool_workers)
        futures = [
            self._executor.submit(
                _pool_train_chunk, (tuple(chunk), round_index, learning_rate)
            )
            for chunk in chunks
        ]
        while wait(futures, timeout=0.2).not_done:
            # A cancelled pass stops waiting here; close() then lets the
            # running chunks finish before the workers leave.
            check_cancelled()
        if self._observer is not None:
            self._observer.counter("engine.pool_chunks").inc(len(chunks))
            self._observer.counter("engine.pool_tasks").inc(
                len(participants)
            )
        results = [pair for future in futures for pair in future.result()]
        return CohortUpdates.from_updates(
            [update for update, _ in results],
            [duration for _, duration in results],
        )

    def close(self) -> None:
        if self._finalizer is not None:
            self._executor = None
            self._store = None
            self._params = None
            self._finalizer()  # runs _close_runtime at most once


# ----------------------------------------------------------------------
# Backend selection (``--backend auto``): a pure function of the spec
# and the process's CPU share.  The CPU share only ever chooses between
# pool and sequential, whose results are bit-identical, so it can never
# change a stored byte.
# ----------------------------------------------------------------------

# The pool needs a second core to overlap anything.
POOL_MIN_CPUS = 2

# Timing-law work ``K * E * d`` per round above which every measured
# pool row beat sequential on a 2-vCPU host with one BLAS thread per
# process; ``benchmarks/bench_parallel.py`` measures and prints it.
POOL_MIN_WORK = 62_720

# Below this population size ``auto`` computes in float64 whatever
# ``population_dtype`` says: stores keyed there were written by the
# float64-only batched engine, and resuming them must give the same
# bytes.
_AUTO_FLOAT32_MIN_CLIENTS = 256


def resolve_backend(
    backend: str,
    clients: Sequence[EdgeServerClient],
    config: "FederatedConfig",
    *,
    available_cpus: int | None = None,
) -> str:
    """Resolve ``"auto"`` to a concrete backend; pass others through.

    A :func:`vectorizable` spec resolves to ``"population"``.  Anything
    else takes the pool when this process's CPU share
    (:func:`~repro.perf.cpu.cpu_share`) has at least
    :data:`POOL_MIN_CPUS` cores and the round's ``K * E * d`` reaches
    :data:`POOL_MIN_WORK`, and runs sequentially otherwise: a campaign
    worker sharing the mask with its siblings starts no pool of its own.
    """
    if backend != AUTO_BACKEND:
        return backend
    if vectorizable(clients, config):
        return "population"
    cpus = available_cpus if available_cpus is not None else cpu_share()
    work = (
        config.participants_per_round
        * config.local_epochs
        * shared_model_config(clients).n_features
    )
    if cpus >= POOL_MIN_CPUS and work >= POOL_MIN_WORK:
        return "pool"
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
