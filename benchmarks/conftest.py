"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints the same rows/series the paper reports, so a
``pytest benchmarks/ --benchmark-only -s`` run can be compared against
§VI of the paper directly.  The heavyweight calibrated system (datasets,
testbed, fitted constants) is built once per session.
"""

from __future__ import annotations

import pytest

from repro.experiments.calibrate import CalibratedSystem, calibrate_system
from repro.experiments.config import TEST_SCALE


def pytest_configure(config: pytest.Config) -> None:
    # Benchmarks live outside the default testpaths; make sure pytest
    # does not pick up tests/conftest fixtures expectations.
    config.addinivalue_line("markers", "paper: regenerates a paper table/figure")


@pytest.fixture(scope="session")
def system() -> CalibratedSystem:
    """The calibrated testbed all energy benchmarks share."""
    return calibrate_system(TEST_SCALE)
