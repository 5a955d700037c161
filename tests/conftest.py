"""Shared fixtures for the test suite.

Dataset generation and prototype construction are comparatively slow, so
the common small instances are session-scoped.  Tests must not mutate
fixture state (datasets are immutable; trainers are built per test).
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Derandomised hypothesis profile: property tests explore the same example
# sequence on every run, so the suite is reproducible in CI.
settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

from repro.core.convergence import ConvergenceBound
from repro.core.energy_model import EnergyParams
from repro.core.objective import EnergyObjective
from repro.data.dataset import Dataset
from repro.data.synthetic_mnist import generate_synthetic_mnist
from repro.fl import model as fl_model
from repro.fl import population as fl_population
from repro.fl.client import EdgeServerClient
from repro.fl.model import LogisticRegressionConfig
from repro.perf import cpu


def _openblas_threads() -> str:
    """The thread count of numpy's bundled OpenBLAS, or ``"unknown"``."""
    threads = cpu._blas_threads()
    return "unknown" if threads is None else str(threads)


def pytest_report_header(config: pytest.Config) -> str:
    # The float32 golden digests (tests/fl/test_dtype_contract.py) move
    # with the BLAS thread count: they pass at 2 threads and fail at 1.
    # A budget above 1 means lane and evaluation blocks ran threaded.
    return (
        f"OpenBLAS threads: {_openblas_threads()}, "
        f"CPU budget: {cpu.cpu_budget()}"
    )


def pytest_terminal_summary(terminalreporter, exitstatus: int) -> None:
    # -q (the configured default) hides the header; a failed run still
    # says how many threads its digests were computed with.
    if exitstatus and terminalreporter.verbosity < 0:
        terminalreporter.write_line(pytest_report_header(terminalreporter.config))


@pytest.fixture(autouse=True)
def _no_child_outlives_the_test(request):
    """A parallel or chaos test leaves no live child process behind.

    Checked after every other fixture's teardown, so a worker that
    outlives its campaign, its scheduler or its executor fails the test
    that started it, and is killed before the next test runs.
    """
    yield
    if not any(
        request.node.get_closest_marker(marker)
        for marker in ("parallel_smoke", "chaos_smoke")
    ):
        return
    alive = multiprocessing.active_children()
    for child in alive:
        child.kill()
        child.join(5.0)
    assert not alive, f"live child processes after the test: {alive}"


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """600 synthetic-MNIST samples (balanced, shuffled)."""
    return generate_synthetic_mnist(600, seed=7)


@pytest.fixture(scope="session")
def tiny_dataset() -> Dataset:
    """60 synthetic-MNIST samples for the fastest unit tests."""
    return generate_synthetic_mnist(60, seed=11)


@pytest.fixture(scope="session")
def model_config() -> LogisticRegressionConfig:
    return LogisticRegressionConfig()


@pytest.fixture()
def default_bound() -> ConvergenceBound:
    """Plausible convergence constants used across optimizer tests."""
    return ConvergenceBound(a0=5.0, a1=0.02, a2=1e-4)


@pytest.fixture()
def default_energy() -> EnergyParams:
    """Plausible energy constants (paper-fitted c0/c1, nonzero rho/e_U)."""
    return EnergyParams(rho=1e-3, e_upload=2.0, n_samples=3000)


@pytest.fixture()
def default_objective(
    default_bound: ConvergenceBound, default_energy: EnergyParams
) -> EnergyObjective:
    return EnergyObjective(
        bound=default_bound, energy=default_energy, epsilon=0.05, n_servers=20
    )


@pytest.fixture()
def forced_cpu_budget(monkeypatch) -> int:
    """A CPU budget of at least 2 in this process, whatever BLAS runs.

    Reports one BLAS thread, so the budget is the whole affinity mask;
    OpenBLAS itself keeps its threads, so the GEMMs' bits do not move.
    The block-epoch and evaluation row-count floors drop to 1, so every
    such map of two or more blocks runs threaded, however small.  The
    sequential engine's client row floor stays, so a cohort below it
    keeps the plain loop.
    """
    monkeypatch.setattr(cpu, "_blas_threads", lambda: 1)
    monkeypatch.setattr(fl_population, "_MIN_BLOCK_EPOCHS_PER_THREAD", 1)
    monkeypatch.setattr(fl_model, "_EVAL_THREAD_MIN_ROWS", 1)
    budget = cpu.cpu_budget()
    if budget < 2:
        pytest.skip("a CPU budget of 2 needs two CPUs in the affinity mask")
    return budget


@pytest.fixture()
def at_budgets(monkeypatch, forced_cpu_budget):
    """``run(fn)`` -> ``(fn() at budget 1, fn() at the forced budget)``."""

    def run(fn):
        with monkeypatch.context() as single:
            single.setattr(cpu, "_blas_threads", lambda: None)
            at_one = fn()
        return at_one, fn()

    return run


@pytest.fixture()
def training_threads(monkeypatch) -> set[int]:
    """The idents of the threads that run ``EdgeServerClient.train``."""
    threads: set[int] = set()
    original = EdgeServerClient.train

    def train(self, *args, **kwargs):
        threads.add(threading.get_ident())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(EdgeServerClient, "train", train)
    return threads
