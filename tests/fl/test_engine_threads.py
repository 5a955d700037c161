"""The sequential engine's threaded client loop.

Above a CPU budget of 1, ``_train_clients`` trains a full-batch cohort
whose clients each hold at least ``_THREAD_MIN_ROWS`` rows on several
threads.  These tests check that it really does, that it keeps every
bit, and that mini-batch, sub-floor and repeated-client cohorts keep
the plain loop.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.fl import engine
from repro.fl.engine import SequentialEngine
from repro.fl.mlp import MLPConfig
from repro.fl.model import LogisticRegressionConfig
from repro.fl.partition import partition_iid
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, build_clients

pytestmark = pytest.mark.perf_smoke

_N_CLIENTS = 4
_ROWS = engine._THREAD_MIN_ROWS
_DATA = generate_synthetic_mnist(_N_CLIENTS * _ROWS, seed=11)
_AT_FLOOR = partition_iid(_DATA, _N_CLIENTS, np.random.default_rng(2))
_BELOW_FLOOR = partition_iid(_DATA, _N_CLIENTS + 1, np.random.default_rng(2))
_LR = LogisticRegressionConfig()
_MLP = MLPConfig(n_features=784, n_hidden=16, n_classes=10, init_seed=3)


def _round(partitions, model, participants=None, batch_size=None):
    """One sequential round's ``(K, P)`` parameter matrix."""
    clients = build_clients(partitions, model)
    config = FederatedConfig(
        n_rounds=1,
        participants_per_round=_N_CLIENTS,
        local_epochs=3,
        sgd=SGDConfig(learning_rate=0.1, batch_size=batch_size),
    )
    cohort = SequentialEngine(clients, config).train_round(
        list(range(_N_CLIENTS)) if participants is None else participants,
        model.build().get_parameters(),
        round_index=0,
        learning_rate=0.1,
    )
    return cohort.parameters


def test_partitions_sit_at_and_below_the_floor():
    assert min(len(p) for p in _AT_FLOOR) == _ROWS
    assert max(len(p) for p in _BELOW_FLOOR) < _ROWS


@pytest.mark.parametrize("model", [_LR, _MLP], ids=["lr", "mlp"])
def test_full_batch_round_keeps_its_bits_on_threads(
    model, at_budgets, training_threads
):
    single, forced = at_budgets(lambda: _round(_AT_FLOOR, model))
    assert len(training_threads) > 1
    np.testing.assert_array_equal(single, forced)


@pytest.mark.parametrize(
    "partitions, participants, batch_size",
    [
        (_AT_FLOOR, None, 32),
        (_BELOW_FLOOR, None, None),
        (_AT_FLOOR, [0, 1, 1, 2], None),
    ],
    ids=["mini-batch", "below-the-floor", "repeated-client"],
)
def test_plain_loop_starts_no_thread(
    partitions, participants, batch_size, forced_cpu_budget, training_threads
):
    _round(partitions, _LR, participants, batch_size)
    assert training_threads == {threading.get_ident()}
