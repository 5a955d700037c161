"""Edge-server client: local model training (step (2) of the FEI loop).

Each edge server holds a local dataset uploaded by its IoT devices,
receives the global model from the coordinator, performs ``E`` epochs of
local SGD (full-batch by default, as in the paper), and returns the
updated parameter vector for uploading.

:class:`ClientFleet` is the population of clients over one
:class:`~repro.fl.partition.Partitions` table: it builds a client only
when something asks for it, so an engine that trains from the table's
arrays builds none.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.partition import Partitions
from repro.fl.model import (
    LogisticRegressionConfig,
    LogisticRegressionModel,
    transpose_for_backward,
)
from repro.fl.sgd import SGDConfig

__all__ = [
    "ClientFleet",
    "CohortUpdates",
    "LocalUpdate",
    "EdgeServerClient",
    "shared_model_config",
]


@dataclass(frozen=True)
class LocalUpdate:
    """Result of one local-training invocation at an edge server.

    Attributes:
        client_id: identifier of the edge server that produced the update.
        parameters: flat updated model parameter vector (what gets
            uploaded to the coordinator, step (3) of the FEI loop).
        n_samples: size of the local dataset used (``n_k``), needed for
            sample-weighted aggregation variants.
        epochs: number of local epochs ``E`` that were run.
        gradient_steps: total number of SGD steps taken (``E`` times the
            number of mini-batches per epoch).
        final_local_loss: local loss observed at the end of training, for
            diagnostics.  On the full-batch path this is the loss the
            final gradient step descended (i.e. evaluated at the
            penultimate parameters), reusing the forward pass that step
            already computed instead of running an extra one.
    """

    client_id: int
    parameters: np.ndarray
    n_samples: int
    epochs: int
    gradient_steps: int
    final_local_loss: float


@dataclass(frozen=True, eq=False)
class CohortUpdates:
    """One round's local updates as arrays: row ``i`` is ``client_ids[i]``'s.

    What every execution engine returns and what aggregation consumes.
    The population kernel hands over the ``(K, P)`` matrix it trained
    into; the per-client engines stack their ``K`` rows once.  Indexing
    or iterating builds :class:`LocalUpdate` objects on demand (the row
    is a view), so a round that never asks for one builds none.

    Attributes:
        client_ids: ``(K,)`` client ids, in participant order.
        parameters: ``(K, P)`` float64 parameter rows (the uploads).
        n_samples: ``(K,)`` local dataset sizes ``n_k``.
        losses: ``(K,)`` final local losses (``final_local_loss``).
        gradient_steps: ``(K,)`` SGD steps each client took.
        epochs: ``(K,)`` local epochs each client ran.
        durations_s: ``(K,)`` measured training seconds per client.
            Clients trained on threads overlap, so these can sum past
            the round's wall time.
    """

    client_ids: np.ndarray
    parameters: np.ndarray
    n_samples: np.ndarray
    losses: np.ndarray
    gradient_steps: np.ndarray
    epochs: np.ndarray
    durations_s: np.ndarray

    @classmethod
    def from_updates(
        cls,
        updates: "CohortUpdates | Sequence[LocalUpdate]",
        durations_s: Sequence[float] | None = None,
    ) -> "CohortUpdates":
        """Wrap a list of updates (stacked once); a carrier passes through."""
        if isinstance(updates, CohortUpdates):
            return updates
        k = len(updates)
        return cls(
            client_ids=np.array([u.client_id for u in updates], dtype=np.int64),
            parameters=(
                np.stack([u.parameters for u in updates])
                if k
                else np.empty((0, 0))
            ),
            n_samples=np.array([u.n_samples for u in updates], dtype=np.int64),
            losses=np.array([u.final_local_loss for u in updates], dtype=float),
            gradient_steps=np.array(
                [u.gradient_steps for u in updates], dtype=np.int64
            ),
            epochs=np.array([u.epochs for u in updates], dtype=np.int64),
            durations_s=(
                np.zeros(k)
                if durations_s is None
                else np.asarray(durations_s, dtype=float)
            ),
        )

    def __len__(self) -> int:
        return int(self.client_ids.shape[0])

    def __getitem__(self, row: int) -> LocalUpdate:
        return LocalUpdate(
            client_id=int(self.client_ids[row]),
            parameters=self.parameters[row],
            n_samples=int(self.n_samples[row]),
            epochs=int(self.epochs[row]),
            gradient_steps=int(self.gradient_steps[row]),
            final_local_loss=float(self.losses[row]),
        )

    def __iter__(self) -> Iterator[LocalUpdate]:
        return (self[row] for row in range(len(self)))

    def take(self, rows: Sequence[int]) -> "CohortUpdates":
        """The updates at ``rows``, in that order (``self`` if all, in order)."""
        if len(rows) == len(self) and all(
            row == i for i, row in enumerate(rows)
        ):
            return self
        index = np.asarray(rows, dtype=np.int64)
        return CohortUpdates(
            *(getattr(self, f.name)[index] for f in fields(self))
        )


class EdgeServerClient:
    """One edge server participating in federated training.

    The client is stateless between rounds apart from its dataset: at
    every round it re-initialises its model from the received global
    parameters, exactly as FedAvg prescribes.  The model itself is
    built on first use, so a client an engine never trains through (the
    population engine reads only its dataset) holds no parameters.
    """

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        model_config: LogisticRegressionConfig,
        rng: np.random.Generator | None = None,
    ) -> None:
        if len(dataset) == 0:
            raise ValueError(f"client {client_id} received an empty dataset")
        if dataset.n_features != model_config.n_features:
            raise ValueError(
                f"dataset has {dataset.n_features} features but the model "
                f"expects {model_config.n_features}"
            )
        self.client_id = client_id
        self.dataset = dataset
        self.model_config = model_config
        self._rng = rng or np.random.default_rng(client_id)
        self._built_model = None

    @property
    def _model(self):
        """The working model, built on first use.

        Any config exposing the model-factory protocol works here —
        LogisticRegressionConfig (the paper's model) or MLPConfig (the
        non-convex extension).  Every method sets its parameters before
        reading it, so when it is built does not matter.
        """
        if self._built_model is None:
            self._built_model = self.model_config.build()
        return self._built_model

    @property
    def n_samples(self) -> int:
        """Local dataset size ``n_k``."""
        return len(self.dataset)

    def local_loss(self, parameters: np.ndarray) -> float:
        """Evaluate the local loss function ``F_k`` (eq. (1)) at ``parameters``."""
        data = self.dataset.widened()
        self._model.set_parameters(parameters)
        return self._model.loss(data.features, data.labels)

    def local_gradient(self, parameters: np.ndarray) -> np.ndarray:
        """Full-batch gradient of ``F_k`` at ``parameters`` (flat vector)."""
        data = self.dataset.widened()
        self._model.set_parameters(parameters)
        return self._model.gradient_flat(
            data.features, data.labels, self._features_t(self.dataset.features)
        )

    def _features_t(self, features: np.ndarray) -> np.ndarray | None:
        """The kernels' ``features_t`` for rows of this partition.

        ``None`` (the ``features.T`` view) when the partition is stored
        as float64, else :func:`~repro.fl.model.transpose_for_backward`.
        """
        if self.dataset.features.dtype == np.float64:
            return None
        return transpose_for_backward(features)

    def train(
        self,
        global_parameters: np.ndarray,
        epochs: int,
        learning_rate: float,
        sgd: SGDConfig | None = None,
        proximal_mu: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> LocalUpdate:
        """Run ``epochs`` rounds of local SGD starting from the global model.

        Args:
            global_parameters: flat parameter vector received from the
                coordinator (step "Model Downloading").
            epochs: the paper's ``E`` — local epochs to run.
            learning_rate: rate for this global round (already decayed by
                the coordinator's schedule).
            sgd: optional optimizer config; only ``batch_size`` is read
                here (``None`` = full batch, the paper's setting).
            proximal_mu: FedProx proximal strength.  When positive, each
                step also descends ``mu/2 ||w - w_global||^2``, anchoring
                local training to the global model — the standard
                client-drift mitigation for non-iid data (extension; the
                paper uses plain FedAvg, ``mu = 0``).
            rng: optional randomness source for mini-batch shuffling.
                The execution engines pass a per-(client, round) named
                substream here so sequential and pooled execution consume
                identical shuffles; when ``None`` the client's own
                stateful generator is used.  Unused on the full-batch
                path.

        Returns:
            The :class:`LocalUpdate` to be uploaded.
        """
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1; got {epochs}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive; got {learning_rate}")
        if proximal_mu < 0:
            raise ValueError(f"proximal_mu must be non-negative; got {proximal_mu}")
        batch_size = sgd.batch_size if sgd is not None else None
        global_parameters = np.asarray(global_parameters, dtype=float)
        # One float64 copy of the partition per call serves every
        # matmul below; float32 features would be widened inside each.
        data = self.dataset.widened()
        features, labels = data.features, data.labels
        steps = 0

        if batch_size is None:
            # Full-batch gradient descent (the paper's setting).  Each
            # epoch shares one forward pass between the loss and the
            # gradient, and parameter vectors flow out-of-place through
            # the ``copy=False`` view fast path.
            # Transposed from the stored rows: float32 reads half the bytes.
            features_t = self._features_t(self.dataset.features)
            params = global_parameters
            last_loss = 0.0
            for _ in range(epochs):
                self._model.set_parameters(params, copy=False)
                last_loss, gradient = self._model.forward_backward(
                    features, labels, features_t
                )
                if proximal_mu:
                    gradient = gradient + proximal_mu * (params - global_parameters)
                params = params - learning_rate * gradient
                steps += 1
            self._model.set_parameters(params, copy=False)
            final_loss = last_loss
        else:
            self._model.set_parameters(global_parameters)
            batch_rng = rng if rng is not None else self._rng

            def step(batch: np.ndarray, batch_labels: np.ndarray) -> None:
                batch_t = self._features_t(batch)
                if proximal_mu == 0.0:
                    self._model.sgd_step(
                        batch, batch_labels, learning_rate, batch_t
                    )
                    return
                params = self._model.get_parameters()
                gradient = self._model.gradient_flat(batch, batch_labels, batch_t)
                gradient = gradient + proximal_mu * (params - global_parameters)
                self._model.set_parameters(
                    params - learning_rate * gradient, copy=False
                )

            for _ in range(epochs):
                for batch, batch_labels in data.batches(batch_size, batch_rng):
                    step(batch, batch_labels)
                    steps += 1
            final_loss = self._model.loss(features, labels)
        return LocalUpdate(
            client_id=self.client_id,
            parameters=self._model.get_parameters(),
            n_samples=self.n_samples,
            epochs=epochs,
            gradient_steps=steps,
            final_local_loss=final_loss,
        )


class ClientFleet(Sequence[EdgeServerClient]):
    """One :class:`EdgeServerClient` per partition, built on first access.

    Client ``i`` trains on partition ``i`` with
    ``np.random.default_rng((seed, i))`` as its own generator, as
    :func:`~repro.fl.training.build_clients` has always built it; it is
    built the first time it is indexed and then kept.  The fleet checks
    every partition's size and width up front, so a client never fails
    to build later.
    """

    def __init__(
        self,
        partitions: Partitions,
        model_config: LogisticRegressionConfig,
        seed: int = 0,
    ) -> None:
        empty = np.flatnonzero(partitions.sizes == 0)
        if empty.size:
            raise ValueError(f"client {empty[0]} received an empty dataset")
        if partitions.dataset.n_features != model_config.n_features:
            raise ValueError(
                f"dataset has {partitions.dataset.n_features} features but "
                f"the model expects {model_config.n_features}"
            )
        self.partitions = partitions
        self.model_config = model_config
        self._seed = seed
        self._built: dict[int, EdgeServerClient] = {}

    def __len__(self) -> int:
        return len(self.partitions)

    def __getitem__(self, client_id: int) -> EdgeServerClient:
        if not -len(self) <= client_id < len(self):
            raise IndexError(f"client {client_id} out of range")
        client_id = int(client_id) % len(self)
        client = self._built.get(client_id)
        if client is None:
            client = self._built[client_id] = EdgeServerClient(
                client_id,
                self.partitions[client_id],
                self.model_config,
                rng=np.random.default_rng((self._seed, client_id)),
            )
        return client


def shared_model_config(clients: Sequence[EdgeServerClient]):
    """The model config every client shares (a fleet's, without a build)."""
    if isinstance(clients, ClientFleet):
        return clients.model_config
    return clients[0].model_config
