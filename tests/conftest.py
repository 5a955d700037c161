"""Shared fixtures for the test suite.

Dataset generation and prototype construction are comparatively slow, so
the common small instances are session-scoped.  Tests must not mutate
fixture state (datasets are immutable; trainers are built per test).
"""

from __future__ import annotations

import ctypes
from pathlib import Path

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
from repro.fl.model import LogisticRegressionConfig


def _openblas_threads() -> str:
    """The thread count of numpy's bundled OpenBLAS, or ``"unknown"``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for library in sorted(libs.glob("*openblas*")):
        try:
            threads = ctypes.CDLL(str(library)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        threads.restype = ctypes.c_int
        return str(threads())
    return "unknown"


def pytest_report_header(config: pytest.Config) -> str:
    # The float32 golden digests (tests/fl/test_dtype_contract.py) move
    # with the BLAS thread count: they pass at 2 threads and fail at 1.
    return f"OpenBLAS threads: {_openblas_threads()}"


def pytest_terminal_summary(terminalreporter, exitstatus: int) -> None:
    # -q (the configured default) hides the header; a failed run still
    # says how many threads its digests were computed with.
    if exitstatus and terminalreporter.verbosity < 0:
        terminalreporter.write_line(pytest_report_header(terminalreporter.config))


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
