"""Struct-of-arrays population state and stacked-cohort training.

The per-object ``EdgeServerClient`` path tops out at a few thousand
simulated clients: a million tiny ``(n_k, d)`` arrays plus a model and a
client object each is death by allocator, and every round pays Python
dispatch per participant.  This module stores an entire client
population as a handful of stacked tensors instead:

* **Group stacks** — clients sharing one local dataset size ``n`` live
  in a single ``(G, n, d)`` feature tensor and ``(G, n)`` label matrix
  (:class:`PopulationGroup`).  The iid partition produces at most two
  sizes, so a million-client population is two contiguous allocations,
  not a million.  Stacks keep the partitions' stored dtype (float32
  for every real dataset); :attr:`PopulationState.dtype` is the
  *compute* dtype, into which each lane block is cast when it trains.
* **Scalar vectors** — per-client scalars (``n_k`` and the group-stack
  row) are plain ``(N,)`` vectors on :class:`PopulationState`, indexed
  by client id.
* **One kernel** — :func:`fullbatch_gd_stack` is the full-batch
  gradient-descent loop of the vectorized engine, mirroring the
  per-client path's operation order.  With float64 inputs its results
  agree with the sequential client path to ``atol=1e-10``.
  :func:`train_cohort` runs it over lane blocks of about
  ``_LANE_BLOCK_BYTES`` of compute-dtype features and weight-sized
  arrays, all ``E`` epochs per block, so a block stays in cache from
  its forward pass to its backward pass and its temporaries stay small
  enough for malloc to reuse.  Each lane is an independent GEMM
  chain, so the block size never changes a bit; blocks write disjoint
  rows, so they train on as many threads as the process's CPU budget
  allows (:func:`~repro.perf.cpu.ordered_map`) with the same bits.
  It returns the cohort as one :class:`~repro.fl.client.CohortUpdates`:
  the ``(K, P)`` matrix the lane blocks wrote into, which aggregation
  reduces as it is.
* **Hierarchical aggregation** — :class:`AggregationTree` folds a
  round's updates through ``fog`` tier nodes before the cloud combines
  the tier partials (Al-Abiad et al., arXiv:2107.03520): the cloud's
  fan-in becomes ``min(tiers, K)`` instead of ``K``, which is what
  keeps aggregation cost sub-linear in the population size.  The
  counts-weighted fold equals the flat unweighted mean mathematically;
  floating-point summation order differs, so equality holds to
  ``~1e-12``, not bit-for-bit (the tree is therefore opt-in).

The module is deliberately import-light (client/model/partition) so the
engine layer can build on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.fl.client import (
    ClientFleet,
    CohortUpdates,
    EdgeServerClient,
    LocalUpdate,
)
from repro.fl.model import (
    LogisticRegressionConfig,
    _cols_matmul,
    _rows_matmul,
    _sigmoid,
)
from repro.fl.partition import Partitions
from repro.perf.cpu import ordered_map

if TYPE_CHECKING:
    from repro.data.dataset import Dataset

__all__ = [
    "AggregationTree",
    "PopulationGroup",
    "PopulationState",
    "fullbatch_gd_stack",
    "train_cohort",
]


# Compute-dtype bytes one lane block of train_cohort works in: per
# lane, its features and _LANE_WEIGHT_ARRAYS (d, C) arrays (the weights,
# their gradient and the updated weights).  At the paper's shape (3 000
# x 784 float64 per lane) a block is one lane; at 784 x 10 it is 21
# lanes of 1 sample and 19 of 4.  On one BLAS thread, 10^4 lanes of 1
# sample took 0.98 s a round in blocks of 21 lanes and 1.31 s in blocks
# of 167, the block that counting only features gave.
_LANE_BLOCK_BYTES = 4 << 20
_LANE_WEIGHT_ARRAYS = 3
# Lane-block epochs each thread of a threaded cohort trains at least.
# With one BLAS thread on 2 vCPUs, two threads trained E=1 four-sample
# lanes in 1.16x the time of one at four blocks, 0.99x at six and 0.79x
# at eleven; blocks of larger lanes gain from fewer (20 lanes of 100
# samples, four blocks: 0.74x).
_MIN_BLOCK_EPOCHS_PER_THREAD = 3


def _even_split_sizes(total: int, parts: int) -> list[int]:
    """Sizes of at most ``parts`` contiguous, near-even slices of ``total``."""
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def fullbatch_gd_stack(
    features: np.ndarray,
    labels: np.ndarray,
    weights_global: np.ndarray,
    bias_global: np.ndarray,
    *,
    epochs: int,
    learning_rate: float,
    activation: str = "softmax",
    l2: float = 0.0,
    proximal_mu: float = 0.0,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized full-batch GD over a stack of independent lanes.

    Each lane ``g`` of ``features (G, n, d)`` / ``labels (G, n)``
    descends independently from the shared ``(d, C)`` / ``(C,)``
    anchor model for ``epochs`` steps.

    Computation runs in the dtype of ``features`` (float64 in the
    equivalence-tested default; float32 on the opt-in fast path), so
    callers pass features already cast to the compute dtype, as
    :func:`train_cohort` does per lane block.

    Returns ``(weights (G, d, C), bias (G, C), losses (G,))`` where the
    loss is the one the final step descended, matching
    :meth:`EdgeServerClient.train`.  ``out``, a ``(G, d*C + C)``
    matrix, also receives each lane's final weights and bias as one
    flat parameter row, cast to its dtype.
    """
    n_group, n = labels.shape
    d = features.shape[2]
    n_classes = bias_global.shape[-1]
    rows = np.arange(n)
    group_index = np.arange(n_group)[:, None]

    # Start every lane from broadcast *views* of its anchor; each epoch
    # rebinds out-of-place, never writing through.
    weights = np.broadcast_to(weights_global, (n_group, d, n_classes))
    bias = np.broadcast_to(bias_global, (n_group, n_classes))
    losses = np.zeros(n_group, dtype=features.dtype)

    for _ in range(epochs):
        logits = _rows_matmul(features, weights)
        logits += bias[:, None, :]
        if activation == "softmax":
            shifted = logits - logits.max(axis=-1, keepdims=True)
            exp = np.exp(shifted, out=shifted)
            probs = np.divide(exp, exp.sum(axis=-1, keepdims=True), out=exp)
            picked = probs[group_index, rows, labels]
        else:
            probs = _sigmoid(logits)
            total = probs.sum(axis=-1, keepdims=True)
            picked = (probs / np.maximum(total, 1e-12))[
                group_index, rows, labels
            ]
        losses = -np.mean(np.log(np.maximum(picked, 1e-12)), axis=1)
        if l2:
            losses = losses + 0.5 * l2 * np.sum(weights**2, axis=(1, 2))
        probs[group_index, rows, labels] -= 1.0
        grad_w = _cols_matmul(features, None, probs)
        grad_w /= n
        grad_b = probs.sum(axis=1)
        grad_b /= n
        if l2:
            grad_w += l2 * weights
        if proximal_mu:
            grad_w += proximal_mu * (weights - weights_global)
            grad_b += proximal_mu * (bias - bias_global)
        # In-place scale then subtract: same values as
        # ``weights - lr * grad`` with half the large temporaries.
        grad_w *= learning_rate
        grad_b *= learning_rate
        weights = weights - grad_w
        bias = bias - grad_b

    if out is not None:
        split = d * n_classes
        out[:, :split] = weights.reshape(n_group, split)
        out[:, split:] = bias
    return np.asarray(weights), np.asarray(bias), losses


@dataclass(frozen=True)
class PopulationGroup:
    """All clients sharing one local dataset size, as stacked arrays."""

    client_ids: np.ndarray  # (G,) int64, ascending
    features: np.ndarray  # (G, n, d), the partitions' stored dtype
    labels: np.ndarray  # (G, n) int64

    @property
    def n_clients(self) -> int:
        return int(self.client_ids.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.labels.shape[1])

    @property
    def nbytes(self) -> int:
        return int(
            self.client_ids.nbytes + self.features.nbytes + self.labels.nbytes
        )


class PopulationState:
    """A whole client population as struct-of-arrays.

    ``groups`` maps local dataset size ``n`` → :class:`PopulationGroup`
    holding every client with that many samples; ``n_samples`` is the
    ``(N,)`` vector of local dataset sizes ``n_k``, indexed by client id.

    Client ids must be exactly ``0..N-1`` (the repo-wide convention:
    client id == partition index).  ``dtype`` is the compute dtype of
    :func:`train_cohort`; the group stacks keep the dtype they were
    built from.
    """

    def __init__(
        self,
        groups: Mapping[int, PopulationGroup],
        model_config: LogisticRegressionConfig,
        *,
        dtype: np.dtype | str = np.float64,
    ) -> None:
        self.model_config = model_config
        self.dtype = np.dtype(dtype)
        self.groups: dict[int, PopulationGroup] = {
            int(n): group for n, group in sorted(groups.items())
        }
        n_clients = sum(g.n_clients for g in self.groups.values())
        ids_seen = np.concatenate(
            [g.client_ids for g in self.groups.values()]
        ) if self.groups else np.empty(0, dtype=np.int64)
        if n_clients == 0:
            raise ValueError("population must contain at least one client")
        if not np.array_equal(np.sort(ids_seen), np.arange(n_clients)):
            raise ValueError("client ids must be exactly 0..N-1")
        self.n_clients = n_clients
        self.n_samples = np.zeros(n_clients, dtype=np.int64)
        self._row = np.zeros(n_clients, dtype=np.int64)
        for n, group in self.groups.items():
            self.n_samples[group.client_ids] = n
            self._row[group.client_ids] = np.arange(
                group.n_clients, dtype=np.int64
            )

    # -- construction --------------------------------------------------

    @classmethod
    def from_partitions(
        cls,
        partitions: Partitions,
        model_config: LogisticRegressionConfig,
        *,
        dtype: np.dtype | str = np.float64,
    ) -> "PopulationState":
        """Stack a partition table (index == client id) into groups.

        Each ``n_k`` group is one gather from the pooled dataset, with
        no per-client dataset in between.  Features are stacked in their
        stored dtype, not ``dtype``: float32 partitions make a float32
        stack, half the bytes of the float64 one, and train on it with
        the same bits.
        """
        groups: dict[int, PopulationGroup] = {}
        for n in np.unique(partitions.sizes):
            ids = np.flatnonzero(partitions.sizes == n)
            features, labels = partitions.gather(ids, int(n))
            groups[int(n)] = PopulationGroup(ids, features, labels)
        return cls(groups, model_config, dtype=dtype)

    @classmethod
    def from_datasets(
        cls,
        datasets: Sequence["Dataset"],
        model_config: LogisticRegressionConfig,
        *,
        dtype: np.dtype | str = np.float64,
    ) -> "PopulationState":
        """Stack per-client datasets (index == client id) into groups."""
        return cls.from_partitions(
            Partitions.from_datasets(datasets), model_config, dtype=dtype
        )

    @classmethod
    def from_clients(
        cls,
        clients: Sequence[EdgeServerClient],
        *,
        dtype: np.dtype | str = np.float64,
    ) -> "PopulationState":
        """Adopt a client population (ids must be 0..N-1).

        A :class:`~repro.fl.client.ClientFleet` is stacked from its
        partition table, so no client is built.
        """
        if not clients:
            raise ValueError("population must contain at least one client")
        if isinstance(clients, ClientFleet):
            return cls.from_partitions(
                clients.partitions, clients.model_config, dtype=dtype
            )
        return cls.from_datasets(
            [client.dataset for client in clients],
            clients[0].model_config,
            dtype=dtype,
        )

    @classmethod
    def synthesize(
        cls,
        n_clients: int,
        *,
        n_features: int = 8,
        n_classes: int = 4,
        samples_per_client: int = 4,
        seed: int = 0,
        dtype: np.dtype | str = np.float64,
        l2: float = 0.0,
    ) -> "PopulationState":
        """Generate a uniform synthetic population in one allocation.

        Every client gets the same ``n_k``, so the whole population is a
        single ``(N, n, d)`` group stack — the shape the million-client
        benchmark exercises.
        """
        if n_clients < 1:
            raise ValueError(f"n_clients must be positive; got {n_clients}")
        dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        shape = (n_clients, samples_per_client, n_features)
        if dtype == np.float64 or dtype == np.float32:
            features = rng.standard_normal(shape, dtype=dtype)
        else:
            features = rng.standard_normal(shape).astype(dtype)
        labels = rng.integers(
            0, n_classes, size=(n_clients, samples_per_client), dtype=np.int64
        )
        group = PopulationGroup(
            np.arange(n_clients, dtype=np.int64), features, labels
        )
        config = LogisticRegressionConfig(
            n_features=n_features, n_classes=n_classes, l2=l2
        )
        return cls({samples_per_client: group}, config, dtype=dtype)

    # -- accessors ------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total bytes held by the group stacks and scalar vectors."""
        stacks = sum(g.nbytes for g in self.groups.values())
        return int(stacks + self.n_samples.nbytes + self._row.nbytes)

    def rows_of(self, client_ids: np.ndarray) -> np.ndarray:
        """Group-stack row index of each client (all in one group)."""
        return self._row[client_ids]


def train_cohort(
    state: PopulationState,
    client_ids: Sequence[int] | np.ndarray,
    global_parameters: np.ndarray,
    *,
    epochs: int,
    learning_rate: float,
    proximal_mu: float = 0.0,
) -> CohortUpdates:
    """Train one round's cohort from the population stacks.

    Cohort members are grouped by ``n_k``, and each group trains in
    canonical (sorted-id) lane order, one :func:`fullbatch_gd_stack`
    call per lane block of about ``_LANE_BLOCK_BYTES``.  A block's rows
    are gathered from the stack and cast to ``state.dtype``; all
    ``E`` epochs run on the block before the next one is gathered.
    Above a CPU budget of 1 (:func:`~repro.perf.cpu.cpu_budget`) the
    blocks of a group run on that many threads, each thread getting at
    least ``_MIN_BLOCK_EPOCHS_PER_THREAD`` block epochs; a block writes
    only its own rows, so the bits are the same at any budget.  On
    a float32 population the arithmetic runs in float32 and the
    parameter rows are cast back to float64, keeping aggregation
    dtype-stable.

    Returns the cohort as :class:`~repro.fl.client.CohortUpdates`, rows
    in ``client_ids`` order (the trainer's participant-order contract).
    A group whose lanes sit in consecutive rows of that order (a sorted
    single-size cohort) trains straight into the returned matrix; any
    other group trains into its own and is scattered once.
    """
    ids = np.asarray(client_ids, dtype=np.int64)
    model_config = state.model_config
    d, n_classes = model_config.n_features, model_config.n_classes
    split = d * n_classes
    anchor = np.ascontiguousarray(global_parameters, dtype=np.float64)
    if state.dtype != np.float64:
        anchor = anchor.astype(state.dtype)
    weights_global = anchor[:split].reshape(d, n_classes)
    bias_global = anchor[split:]

    parameters = np.empty((len(ids), anchor.shape[0]))
    losses = np.empty(len(ids))
    sizes = state.n_samples[ids]
    for n in np.unique(sizes):
        positions = np.flatnonzero(sizes == n)
        positions = positions[np.argsort(ids[positions], kind="stable")]
        group = state.groups[int(n)]
        rows = state.rows_of(ids[positions])
        first, count = int(positions[0]), len(positions)
        in_place = bool(np.all(positions == np.arange(first, first + count)))
        flat = (
            parameters[first : first + count]
            if in_place
            else np.empty((count, anchor.shape[0]))
        )
        group_losses = np.empty(count)
        lane_bytes = (
            (int(n) + _LANE_WEIGHT_ARRAYS * n_classes) * d * state.dtype.itemsize
        )
        lanes = max(1, _LANE_BLOCK_BYTES // lane_bytes)

        def train_block(block: slice) -> None:
            _, _, group_losses[block] = fullbatch_gd_stack(
                group.features[rows[block]].astype(state.dtype, copy=False),
                group.labels[rows[block]],
                weights_global,
                bias_global,
                epochs=epochs,
                learning_rate=learning_rate,
                activation=model_config.activation,
                l2=model_config.l2,
                proximal_mu=proximal_mu,
                out=flat[block],
            )

        blocks = [slice(i, i + lanes) for i in range(0, count, lanes)]
        ordered_map(
            train_block,
            blocks,
            len(blocks) * epochs // _MIN_BLOCK_EPOCHS_PER_THREAD,
        )
        if not in_place:
            parameters[positions] = flat
        losses[positions] = group_losses
    return CohortUpdates(
        client_ids=ids,
        parameters=parameters,
        n_samples=sizes,
        losses=losses,
        gradient_steps=np.full(len(ids), epochs, dtype=np.int64),
        epochs=np.full(len(ids), epochs, dtype=np.int64),
        durations_s=np.zeros(len(ids)),
    )


@dataclass(frozen=True)
class AggregationTree:
    """Fog→cloud aggregation topology (Al-Abiad et al., 2107.03520).

    A round's ``K`` updates are split contiguously over ``fog_nodes``
    tier nodes; each fog folds its slice into one partial mean, and the
    cloud combines the partials weighted by slice size.  The weighted
    fold equals the flat unweighted mean *mathematically*; summation
    order differs, so numerical agreement is ``~1e-12``-tight rather
    than bit-exact — which is why flat aggregation stays the default
    and the tree is an explicit opt-in (`tiers` axis).

    The point is cost: the cloud touches ``min(fog_nodes, K)`` partial
    vectors instead of ``K`` full uploads, so central aggregation work
    and fan-in stay flat as the cohort grows.
    """

    fog_nodes: int

    def __post_init__(self) -> None:
        if self.fog_nodes < 1:
            raise ValueError(
                f"fog_nodes must be positive; got {self.fog_nodes}"
            )

    def fan_in(self, k: int) -> int:
        """Number of partials the cloud combines for a ``k``-cohort."""
        return max(1, min(self.fog_nodes, int(k)))

    def fold(self, stacked: np.ndarray) -> np.ndarray:
        """Fold a ``(K, P)`` update matrix through the tiers to one vector."""
        stacked = np.asarray(stacked)
        k = stacked.shape[0]
        if k == 0:
            raise ValueError("cannot fold an empty update stack")
        sizes = _even_split_sizes(k, self.fog_nodes)
        partials = np.empty((len(sizes), stacked.shape[1]), dtype=stacked.dtype)
        start = 0
        for tier, size in enumerate(sizes):
            partials[tier] = stacked[start : start + size].mean(axis=0)
            start += size
        counts = np.asarray(sizes, dtype=np.float64) / float(k)
        return (partials * counts[:, None]).sum(axis=0)

    def fold_updates(
        self, updates: CohortUpdates | Sequence[LocalUpdate]
    ) -> np.ndarray:
        """Tree-fold a round's updates (tiered form of ``aggregate_mean``)."""
        cohort = CohortUpdates.from_updates(updates)
        if not len(cohort):
            raise ValueError("cannot aggregate an empty list of updates")
        return self.fold(cohort.parameters)

