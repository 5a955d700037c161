"""Pluggable execution engines for one round of local training.

The federated trainer's hot loop — "train the round's ``K`` selected
clients from the current global model" — is isolated behind a small
engine interface so the *how* can vary without touching FedAvg
semantics:

* :class:`SequentialEngine` — the reference path: one
  :meth:`EdgeServerClient.train` call per participant, in order.
* :class:`PopulationEngine` — the one vectorized engine.  It adopts the
  client datasets into struct-of-arrays group stacks once and trains
  each cohort's full-batch gradient descent as batched matmul kernels
  over ``(G, n, d)`` / ``(G, d, C)`` tensors.  Only valid for the
  paper's setting (logistic regression, ``batch_size=None``, see
  :func:`vectorizable`); :func:`create_engine` hands anything else a
  :class:`SequentialEngine`.  Per-client order of operations matches
  the sequential path (batched ``matmul`` is per-slice gemm), so
  float64 results agree to ``atol=1e-10``.  :class:`BatchedEngine` is
  its deprecated ``"batched"`` spelling, pinned to float64.
* :class:`PoolEngine` — a persistent-worker ``multiprocessing`` runtime.
  Workers initialize exactly once per training run: client datasets ship
  via shared memory (:mod:`repro.perf.shared_data`), the static training
  configuration (epochs, SGD, FedProx mu, seed) rides in the pool
  initializer, and per-client model/client objects stay resident in the
  worker between rounds.  Each round is one *chunked cohort submission*:
  the cohort is split into at most ``pool_workers`` contiguous chunks
  and each chunk is a single task carrying only client ids, the round
  index, and the learning rate — the global parameter vector is
  broadcast through a :class:`~repro.perf.shared_data.SharedParameterBlock`
  rewritten by the parent before submission, so per-round IPC is a few
  tiny pickles instead of ``K`` dataset/config/parameter copies.  Every
  chunk replays the exact sequential client code path with mini-batch
  shuffles drawn from a per-``(seed, client, round)`` named substream,
  so results are bit-identical regardless of worker count (and chunk
  count) and identical to sequential execution.

All engines return updates in participant order, which the trainer
relies on for dropout draws, compression, and upload simulation.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.faults.models import substream
from repro.fl.client import EdgeServerClient, LocalUpdate
from repro.fl.model import LogisticRegressionConfig
from repro.fl.population import PopulationState, train_cohort
from repro.obs.sink import TelemetrySpool, get_spool_context
from repro.perf.cancel import check_cancelled
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
    "ClientTrainResult",
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


@dataclass(frozen=True)
class ClientTrainResult:
    """One client's training outcome plus its measured duration."""

    update: LocalUpdate
    duration_s: float


class ExecutionEngine:
    """Interface every backend implements."""

    name = "abstract"

    def train_round(
        self,
        participants: Sequence[int],
        global_parameters: np.ndarray,
        round_index: int,
        learning_rate: float,
    ) -> list[ClientTrainResult]:
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
        clients: list[EdgeServerClient],
        config: "FederatedConfig",
        observer: "Observer | None" = None,
    ) -> None:
        self._clients = clients
        self._config = config
        self._observer = observer

    def train_round(
        self,
        participants: Sequence[int],
        global_parameters: np.ndarray,
        round_index: int,
        learning_rate: float,
    ) -> list[ClientTrainResult]:
        config = self._config
        results: list[ClientTrainResult] = []
        for client_id in participants:
            started = time.perf_counter()
            update = self._clients[client_id].train(
                global_parameters,
                epochs=config.local_epochs,
                learning_rate=learning_rate,
                sgd=config.sgd,
                proximal_mu=config.proximal_mu,
                rng=_batch_rng(config, client_id, round_index),
            )
            results.append(
                ClientTrainResult(update, time.perf_counter() - started)
            )
        return results


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
        isinstance(clients[0].model_config, LogisticRegressionConfig)
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
        clients: list[EdgeServerClient],
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
    ) -> list[ClientTrainResult]:
        if not participants:
            return []
        started = time.perf_counter()
        config = self._config
        updates = train_cohort(
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
        return [ClientTrainResult(update, per_client) for update in updates]


class BatchedEngine(PopulationEngine):
    """Deprecated: the ``"batched"`` spelling of :class:`PopulationEngine`.

    Kept as a subclass, not an alias, so tooling that wraps each engine
    class's ``train_round`` wraps it once.  :func:`create_engine` builds
    it in float64, as the batched engine always computed.
    """

    name = "batched"


# ----------------------------------------------------------------------
# Pool backend: worker-side state and task function.  Module-level so
# they are picklable under both fork and spawn start methods.
# ----------------------------------------------------------------------
_POOL_STATE: dict = {}


def _pool_initializer(
    spec,
    param_name,
    n_parameters,
    model_config,
    seed,
    epochs,
    sgd,
    mu,
    spool_context=None,
) -> None:
    """One-time worker setup: attach shared data, pin the static config.

    Everything that is constant for the lifetime of a training run —
    datasets, model config, seed, epochs, SGD config, FedProx mu — lands
    here exactly once, so per-round tasks never re-pickle any of it.

    ``spool_context`` is the parent's active ``(spool_dir, unit)`` (see
    :mod:`repro.obs.sink`), present only when the training run has
    telemetry enabled: the worker then opens its own engine-role spool
    in the same directory, so even this innermost worker tier streams
    into the campaign-wide telemetry merge.  Spool failures never break
    training — telemetry is strictly best-effort here.
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
    _POOL_STATE["spool"] = None
    _POOL_STATE["spool_epoch"] = time.perf_counter()
    _POOL_STATE["spool_seq"] = 0
    if spool_context is not None:
        directory, unit = spool_context
        safe_unit = re.sub(r"[^A-Za-z0-9._-]", "_", str(unit)) or "unit"
        try:
            _POOL_STATE["spool"] = TelemetrySpool(
                Path(directory) / f"{safe_unit}.w{os.getpid()}.jsonl",
                unit=unit,
                role="engine",
            )
        except OSError:
            _POOL_STATE["spool"] = None


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
    _spool_chunk_telemetry(chunk, round_index, results)
    return results


def _spool_chunk_telemetry(chunk, round_index, results) -> None:
    """Stream one trained chunk's telemetry to this worker's spool.

    One ``engine.chunk`` event plus one metrics *delta* record per
    chunk: counters in the delta merge by addition at the collector, so
    per-chunk dumps aggregate to the worker's true totals without the
    worker retaining cumulative registries.
    """
    spool = _POOL_STATE.get("spool")
    if spool is None or spool.closed:
        return
    from repro.obs.metrics import MetricsRegistry

    train_s = sum(duration for _, duration in results)
    _POOL_STATE["spool_seq"] += 1
    try:
        # The event line rides the buffer; the metrics record right
        # behind it flushes both with one syscall.  Pool shutdown is a
        # SIGTERM (no interpreter cleanup), so anything less than a
        # per-chunk flush could silently drop the tail of the deltas.
        spool.append(
            "event",
            flush=False,
            event={
                "seq": _POOL_STATE["spool_seq"],
                "category": "engine.chunk",
                "wall_s": time.perf_counter() - _POOL_STATE["spool_epoch"],
                "sim_s": None,
                "fields": {
                    "round": int(round_index),
                    "clients": len(chunk),
                    "train_s": train_s,
                },
            },
        )
        delta = MetricsRegistry()
        delta.counter("engine.pool_clients_trained").inc(len(chunk))
        delta.counter("engine.pool_chunks_trained").inc()
        delta.counter("engine.pool_train_s").inc(train_s)
        spool.append("metrics", flush=True, records=delta.to_records())
    except (OSError, ValueError):
        # A torn spool must never fail training; drop the sink instead.
        spool.close()
        _POOL_STATE["spool"] = None


def _shutdown_pool(
    pool, store: SharedDatasetStore, params: SharedParameterBlock
) -> None:
    try:
        pool.terminate()
        pool.join()
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
    """Persistent-worker process pool over shared-memory client datasets.

    Workers initialize once per training run (datasets via shared
    memory, static training config via the initializer) and keep their
    client/model objects resident between rounds; each round submits one
    task per contiguous cohort chunk with the global parameters
    broadcast through a shared block.  Workers run the *same*
    :meth:`EdgeServerClient.train` code path as the sequential engine
    (with the same per-``(seed, client, round)`` mini-batch substreams),
    and ``Pool.map`` preserves chunk order, so results are deterministic
    and bit-identical to sequential execution for any worker count.  The
    pool and the shared blocks are created lazily on the first round and
    released by :meth:`close` (or at garbage collection via a
    finalizer); a failure while the runtime is being brought up rolls
    back every partially created resource before propagating.
    """

    name = "pool"

    def __init__(
        self,
        clients: list[EdgeServerClient],
        config: "FederatedConfig",
        observer: "Observer | None" = None,
    ) -> None:
        self._clients = clients
        self._config = config
        self._observer = observer
        self._pool = None
        self._store: SharedDatasetStore | None = None
        self._params: SharedParameterBlock | None = None
        self._finalizer = None

    def _ensure_pool(self, n_parameters: int) -> None:
        if self._pool is not None:
            return
        import weakref

        store = None
        params = None
        pool = None
        try:
            store = SharedDatasetStore(
                [client.dataset for client in self._clients]
            )
            params = SharedParameterBlock(n_parameters)
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
            context = multiprocessing.get_context(method)
            config = self._config
            pool = context.Pool(
                processes=config.pool_workers,
                initializer=_pool_initializer,
                initargs=(
                    store.spec,
                    params.name,
                    params.n_parameters,
                    self._clients[0].model_config,
                    config.seed,
                    config.local_epochs,
                    config.sgd,
                    config.proximal_mu,
                    # Propagate the campaign's spool context (if any)
                    # explicitly rather than relying on fork inheriting
                    # module state, so the spawn start method telemetry
                    # behaves identically.
                    get_spool_context(),
                ),
            )
        except BaseException:
            # Roll back partial construction: without this, a failure
            # between shm creation and pool start would leak segments
            # that no finalizer knows about yet.
            if pool is not None:
                pool.terminate()
                pool.join()
            if params is not None:
                params.close()
            if store is not None:
                store.close()
            raise
        self._store = store
        self._params = params
        self._pool = pool
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, pool, store, params
        )

    def train_round(
        self,
        participants: Sequence[int],
        global_parameters: np.ndarray,
        round_index: int,
        learning_rate: float,
    ) -> list[ClientTrainResult]:
        if not participants:
            return []
        broadcast = np.ascontiguousarray(global_parameters, dtype=np.float64)
        self._ensure_pool(broadcast.size)
        # Publish the round's model once; Pool.map is a full barrier, so
        # no worker can still be reading when the next round rewrites it.
        self._params.write(broadcast)
        chunks = _chunk_evenly(list(participants), self._config.pool_workers)
        tasks = [
            (tuple(chunk), round_index, learning_rate) for chunk in chunks
        ]
        pending = self._pool.map_async(_pool_train_chunk, tasks)
        while not pending.ready():
            # A signal that cancels the pass may also have ended the
            # workers, whose chunks would then never arrive.
            pending.wait(0.2)
            check_cancelled()
        chunk_results = pending.get()
        if self._observer is not None:
            self._observer.counter("engine.pool_chunks").inc(len(tasks))
            self._observer.counter("engine.pool_tasks").inc(
                len(participants)
            )
        return [
            ClientTrainResult(update, duration)
            for chunk in chunk_results
            for update, duration in chunk
        ]

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()  # runs _shutdown_pool at most once
            self._pool = None
            self._store = None
            self._params = None


# ----------------------------------------------------------------------
# Backend selection (``--backend auto``): a pure function of the spec
# and the host's CPU count.  The CPU count only ever chooses between
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


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_backend(
    backend: str,
    clients: list[EdgeServerClient],
    config: "FederatedConfig",
    *,
    available_cpus: int | None = None,
) -> str:
    """Resolve ``"auto"`` to a concrete backend; pass others through.

    A :func:`vectorizable` spec resolves to ``"population"``.  Anything
    else takes the pool when the host has at least
    :data:`POOL_MIN_CPUS` cores and the round's ``K * E * d`` reaches
    :data:`POOL_MIN_WORK`, and runs sequentially otherwise.
    """
    if backend != AUTO_BACKEND:
        return backend
    if vectorizable(clients, config):
        return "population"
    cpus = available_cpus if available_cpus is not None else _available_cpus()
    work = (
        config.participants_per_round
        * config.local_epochs
        * clients[0].model_config.n_features
    )
    if cpus >= POOL_MIN_CPUS and work >= POOL_MIN_WORK:
        return "pool"
    return "sequential"


def create_engine(
    backend: str,
    clients: list[EdgeServerClient],
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
