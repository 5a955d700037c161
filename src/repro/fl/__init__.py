"""Federated-learning substrate: FedAvg over edge servers (paper §III)."""

from repro.fl.async_training import (
    AsyncConfig,
    AsyncFederatedTrainer,
    AsyncResult,
    AsyncUpdateRecord,
)
from repro.fl.client import (
    ClientFleet,
    CohortUpdates,
    EdgeServerClient,
    LocalUpdate,
)
from repro.fl.compression import (
    CompressedUpdate,
    Compressor,
    ErrorFeedback,
    NoCompression,
    TopKCompressor,
    UniformQuantizer,
)
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro.fl.history_io import (
    history_from_json,
    history_to_json,
    load_history_json,
    save_history_json,
)
from repro.fl.mlp import MLPConfig, MLPModel
from repro.fl.model import (
    LogisticRegressionConfig,
    LogisticRegressionModel,
    softmax,
)
from repro.fl.partition import (
    Partitions,
    iid_partitions,
    partition_by_shards,
    partition_dirichlet,
    partition_iid,
)
from repro.fl.population import (
    AggregationTree,
    PopulationState,
    fullbatch_gd_stack,
    train_cohort,
)
from repro.fl.sampling import (
    ClientSampler,
    FixedSampler,
    FloydSampler,
    RoundRobinSampler,
    UniformSampler,
)
from repro.fl.server import (
    Coordinator,
    NonFiniteUpdateError,
    aggregate_mean,
    aggregate_weighted,
)
from repro.fl.sgd import LearningRateSchedule, SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients

__all__ = [
    "AsyncConfig",
    "AsyncFederatedTrainer",
    "AsyncResult",
    "AsyncUpdateRecord",
    "ClientFleet",
    "CohortUpdates",
    "EdgeServerClient",
    "LocalUpdate",
    "CompressedUpdate",
    "Compressor",
    "ErrorFeedback",
    "NoCompression",
    "TopKCompressor",
    "UniformQuantizer",
    "RoundRecord",
    "TrainingHistory",
    "history_from_json",
    "history_to_json",
    "load_history_json",
    "save_history_json",
    "MLPConfig",
    "MLPModel",
    "LogisticRegressionConfig",
    "LogisticRegressionModel",
    "softmax",
    "Partitions",
    "iid_partitions",
    "partition_by_shards",
    "partition_dirichlet",
    "partition_iid",
    "AggregationTree",
    "PopulationState",
    "fullbatch_gd_stack",
    "train_cohort",
    "ClientSampler",
    "FixedSampler",
    "FloydSampler",
    "RoundRobinSampler",
    "UniformSampler",
    "Coordinator",
    "NonFiniteUpdateError",
    "aggregate_mean",
    "aggregate_weighted",
    "LearningRateSchedule",
    "SGDConfig",
    "FederatedConfig",
    "FederatedTrainer",
    "build_clients",
]
