"""The GEMM orientation premise of the logistic-regression kernels.

``_rows_matmul`` and ``_cols_matmul`` compute ``features @ W`` and
``features.T @ probs`` with the large operand on BLAS's fast side, and
claim to return exactly the bits of the naive products.  That holds
only for the BLAS build the cutoffs in :mod:`repro.fl.model` were
measured on; on another build these tests fail loudly, instead of
letting every golden digest drift at once.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.fl.history_io import history_to_json
from repro.fl.model import (
    LogisticRegressionConfig,
    _cols_matmul,
    _rows_matmul,
    transpose_for_backward,
)
from repro.fl.partition import partition_iid
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients

pytestmark = pytest.mark.perf_smoke

# 127 and 128 rows straddle the small-matrix cutoff at 784 features and
# 10 classes; 64 classes is the MLP's hidden width.
N_ROWS = (1, 16, 100, 127, 128, 129, 200, 3000)
N_FEATURES = (32, 784)
N_CLASSES = (5, 10, 64)
N_LANES = 2


def _operands(rng, n, d, c, dtype, stacked):
    lead = (N_LANES,) if stacked else ()
    features = rng.normal(size=(*lead, n, d)).astype(dtype)
    weights = rng.normal(size=(d, c)).astype(dtype)
    # The population kernel starts every lane from a broadcast view.
    stacks = [weights]
    if stacked:
        stacks = [
            np.broadcast_to(weights, (N_LANES, d, c)),
            rng.normal(size=(N_LANES, d, c)).astype(dtype),
        ]
    probs = rng.normal(size=(*lead, n, c)).astype(dtype)
    return features, stacks, probs


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("stacked", [False, True], ids=["2d", "stacked"])
@pytest.mark.parametrize("n", N_ROWS)
def test_helpers_match_naive_matmuls(n: int, stacked: bool, dtype: str):
    rng = np.random.default_rng(n)
    for d in N_FEATURES:
        for c in N_CLASSES:
            features, stacks, probs = _operands(rng, n, d, c, dtype, stacked)
            # A C-ordered transpose, as transpose_for_backward builds.
            c_ordered = np.ascontiguousarray(np.swapaxes(features, -1, -2))
            for features_t in (None, c_ordered):
                naive_t = (
                    np.swapaxes(features, -1, -2) if features_t is None else features_t
                )
                where = f"n={n} d={d} c={c} features_t={features_t is not None}"
                for weights in stacks:
                    rows = _rows_matmul(features, weights, features_t)
                    assert rows.flags.c_contiguous, where
                    assert np.array_equal(rows, features @ weights), where
                cols = _cols_matmul(features, features_t, probs)
                assert cols.flags.c_contiguous, where
                assert np.array_equal(cols, naive_t @ probs), where


def test_transpose_for_backward_is_the_c_ordered_transpose():
    features = np.random.default_rng(0).normal(size=(300, 32))
    np.testing.assert_array_equal(
        transpose_for_backward(features),
        np.ascontiguousarray(features.T),
    )


def test_paper_shape_float32_digest():
    """Three 3 000-row float32 partitions, one round of E=2 at 784x10.

    Recorded before the kernels took BLAS's fast orientation, with
    OpenBLAS's default threading on two cores (like every golden digest
    here: the thread count moves BLAS's summation blocks).
    """
    train, test = load_synthetic_mnist(n_train=9_000, n_test=1_000, seed=6)
    assert train.features.dtype == np.float32
    trainer = FederatedTrainer(
        clients=build_clients(
            partition_iid(train, 3, np.random.default_rng(1)),
            LogisticRegressionConfig(),
        ),
        config=FederatedConfig(
            n_rounds=1,
            participants_per_round=3,
            local_epochs=2,
            sgd=SGDConfig(learning_rate=0.01, decay=0.99),
        ),
        train_eval=train,
        test_eval=test,
    )
    history = trainer.run()
    params = trainer.coordinator.global_parameters
    assert hashlib.sha256(params.tobytes()).hexdigest() == (
        "c4b9338a7a9cb8bc611a00931938482f23b7490169af01d33e6c6c2fe36d5de7"
    )
    assert hashlib.sha256(history_to_json(history).encode()).hexdigest() == (
        "5bf67f2e657328f2086c51ea57d200c2aee3b69abf7bcc4ad8a312bdc12fcc0d"
    )
