"""A finished run must be freed by reference counting alone.

A unit's trainer holds its clients, its devices and float64 copies of
the evaluation sets.  If a reference cycle keeps it alive after the run
returns, every unit a campaign worker executes stays resident until the
next full garbage collection, and the worker's memory climbs unit by
unit.  These tests run with the collector disabled.
"""

from __future__ import annotations

import gc

import pytest

from repro.campaign.runner import execute_unit
from repro.campaign.spec import RunSpec
from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.fl.async_training import AsyncFederatedTrainer
from repro.fl.training import FederatedTrainer
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig

_DATASETS = load_synthetic_mnist(n_train=400, n_test=100, seed=0)
_TRACKED = (FederatedTrainer, AsyncFederatedTrainer, HardwarePrototype)


def _instances() -> dict[int, str]:
    return {
        id(obj): type(obj).__name__
        for obj in gc.get_objects()
        if isinstance(obj, _TRACKED)
    }


@pytest.fixture
def leaked():
    """Instances created during the test that are still alive.

    Instances other tests keep alive exist before the test starts and
    are not counted.
    """
    gc.collect()
    before = _instances()
    gc.disable()
    try:
        yield lambda: sorted(
            name for key, name in _instances().items() if key not in before
        )
    finally:
        gc.enable()
        gc.collect()


class TestNoCycleOutlivesARun:
    def test_execute_unit(self, leaked):
        spec = RunSpec(
            n_train=400,
            n_test=100,
            n_servers=4,
            participants=2,
            epochs=1,
            max_rounds=3,
            train_to_target=False,
        )
        result = execute_unit(spec, datasets=_DATASETS)
        assert result.rounds == 3
        assert leaked() == []

    def test_run_async(self, leaked):
        prototype = HardwarePrototype(*_DATASETS, PrototypeConfig(n_servers=4))
        result, energy_j = prototype.run_async(max_updates=6, epochs=1)
        assert result.updates == 6 and energy_j > 0
        del prototype
        assert leaked() == []
