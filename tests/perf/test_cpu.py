"""The per-process CPU budget and its ordered map.

Pins the budget rule, that budget 1 starts no thread, that a worker of
``process_executor`` gets its share of the mask (so an ``auto`` unit
inside a campaign worker starts no pool of its own), and that a process
forked after a threaded map can run one itself.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.fl import model as fl_model
from repro.fl import population as fl_population
from repro.fl.engine import AUTO_BACKEND, POOL_MIN_WORK, resolve_backend
from repro.fl.mlp import MLPConfig
from repro.fl.model import LogisticRegressionConfig
from repro.fl.partition import partition_iid
from repro.fl.population import PopulationState, train_cohort
from repro.fl.training import FederatedConfig, build_clients
from repro.perf import cpu
from repro.perf.scheduler import process_executor

pytestmark = pytest.mark.parallel_smoke

_TIMEOUT_S = 60.0


def _mask() -> set[int]:
    return os.sched_getaffinity(0)


class TestBudgetRule:
    @pytest.mark.parametrize(
        "blas, siblings, expected",
        [(1, 1, 2), (2, 1, 1), (1, 2, 1), (3, 1, 1), (None, 1, 1), (0, 1, 1)],
    )
    def test_two_cpus(self, monkeypatch, blas, siblings, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cpu, "_blas_threads", lambda: blas)
        monkeypatch.setattr(cpu, "_sibling_workers", siblings)
        assert cpu.cpu_budget() == expected

    def test_share_splits_the_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        monkeypatch.setattr(cpu, "_sibling_workers", 3)
        assert cpu.cpu_share() == 2
        monkeypatch.setattr(cpu, "_blas_threads", lambda: 2)
        assert cpu.cpu_budget() == 1

    def test_reads_numpys_openblas(self):
        threads = cpu._blas_threads()
        assert threads is None or threads >= 1


class TestOrderedMap:
    def test_keeps_order_at_any_budget(self, forced_cpu_budget):
        squares = cpu.ordered_map(lambda i: i * i, range(50), 8)
        assert squares == [i * i for i in range(50)]

    def test_raises_the_first_error(self, forced_cpu_budget):
        def fail_on_seven(i):
            if i == 7:
                raise ValueError("seven")
            return i

        with pytest.raises(ValueError, match="seven"):
            cpu.ordered_map(fail_on_seven, range(20), 8)

    def test_threads_end_with_the_map(self, forced_cpu_budget):
        before = threading.active_count()
        seen = cpu.ordered_map(lambda _: threading.get_ident(), range(64), 8)
        assert len(seen) == 64
        assert threading.active_count() == before

    @staticmethod
    def _refuse_threads(monkeypatch) -> None:
        def refuse(self):
            raise AssertionError("this map must not start a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)

    def test_one_thread_cap_starts_no_thread(
        self, forced_cpu_budget, monkeypatch
    ):
        self._refuse_threads(monkeypatch)
        assert cpu.ordered_map(lambda i: -i, range(9), 1) == [
            -i for i in range(9)
        ]

    def test_budget_one_starts_no_thread(self, monkeypatch):
        # Only the budget keeps these maps in one thread.
        monkeypatch.setattr(fl_population, "_MIN_BLOCK_EPOCHS_PER_THREAD", 1)
        monkeypatch.setattr(fl_model, "_EVAL_THREAD_MIN_ROWS", 1)
        monkeypatch.setattr(cpu, "_blas_threads", lambda: None)
        assert cpu.cpu_budget() == 1
        self._refuse_threads(monkeypatch)
        assert cpu.ordered_map(lambda i: i + 1, range(5), 5) == [1, 2, 3, 4, 5]
        state = PopulationState.synthesize(64, n_features=784, n_classes=10)
        params = state.model_config.build().get_parameters()
        train_cohort(state, np.arange(64), params, epochs=1, learning_rate=0.1)
        rng = np.random.default_rng(0)
        features = rng.random((3000, 784), dtype=np.float32)
        labels = rng.integers(0, 10, size=3000)
        model = LogisticRegressionConfig().build()
        model.loss(features, labels)
        model.accuracy(features.astype(np.float64), labels)


# An MLP on 8 features: K * E * d reaches POOL_MIN_WORK, so only the CPU
# share keeps `auto` off the pool.
_MLP = MLPConfig(n_features=8, n_hidden=4, n_classes=3)
_N_CLIENTS = 8
_POOL_EPOCHS = -(-POOL_MIN_WORK // (8 * _N_CLIENTS))


def _resolve_mlp_auto() -> str:
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(96, 8)), rng.integers(0, 3, size=96), 3)
    partitions = partition_iid(data, _N_CLIENTS, np.random.default_rng(1))
    config = FederatedConfig(
        n_rounds=1,
        participants_per_round=_N_CLIENTS,
        local_epochs=_POOL_EPOCHS,
        backend=AUTO_BACKEND,
    )
    return resolve_backend(
        AUTO_BACKEND, build_clients(partitions, _MLP), config
    )


def _pin_two_cpus() -> None:  # runs in workers
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])


def _worker_view() -> tuple[int, int, str]:  # runs in workers
    return cpu.cpu_share(), cpu.cpu_budget(), _resolve_mlp_auto()


def _threaded_map_in_child() -> None:  # runs in a forked child
    cpu.set_sibling_workers(1)
    if cpu.cpu_budget() < 2:
        os._exit(3)
    seen = cpu.ordered_map(lambda i: (i, threading.get_ident()), range(32), 2)
    os._exit(0 if [i for i, _ in seen] == list(range(32)) else 4)


class TestWorkerShare:
    @pytest.fixture(autouse=True)
    def _two_cpus(self):
        if len(_mask()) < 2:
            pytest.skip("needs two CPUs in the affinity mask")

    def test_worker_of_two_gets_one_cpu(self, monkeypatch):
        # BLAS at one thread: the parent's budget is its two CPUs, each
        # of two workers' is one.
        monkeypatch.setattr(cpu, "_blas_threads", lambda: 1)
        executor = process_executor(2, initializer=_pin_two_cpus)
        try:
            share, budget, backend = executor.submit(_worker_view).result(
                timeout=_TIMEOUT_S
            )
        finally:
            executor.shutdown(wait=True)
        assert (share, budget) == (1, 1)
        assert backend == "sequential"

    def test_parent_with_two_cpus_takes_the_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert _resolve_mlp_auto() == "pool"

    def test_fork_after_threaded_map(self, forced_cpu_budget):
        assert len(cpu.ordered_map(lambda i: i, range(16), 2)) == 16
        child = multiprocessing.get_context("fork").Process(
            target=_threaded_map_in_child
        )
        child.start()
        child.join(_TIMEOUT_S)
        alive = child.is_alive()
        if alive:
            child.kill()
            child.join()
        assert not alive, "forked child hung in its threaded map"
        assert child.exitcode == 0
