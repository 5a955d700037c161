"""Meta-tests on the public API surface.

Guards the contract a downstream user relies on: every name in each
package's ``__all__`` is importable, every public callable/class is
documented, and the top-level package re-exports the advertised
entry points.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

_PACKAGES = [
    "repro",
    "repro.campaign",
    "repro.core",
    "repro.data",
    "repro.faults",
    "repro.fl",
    "repro.hardware",
    "repro.iot",
    "repro.net",
    "repro.obs",
    "repro.perf",
    "repro.sim",
    "repro.experiments",
]


@pytest.mark.parametrize("package_name", _PACKAGES)
def test_all_names_resolve(package_name: str) -> None:
    module = importlib.import_module(package_name)
    assert hasattr(module, "__all__"), f"{package_name} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", _PACKAGES)
def test_no_duplicate_all_entries(package_name: str) -> None:
    module = importlib.import_module(package_name)
    assert len(module.__all__) == len(set(module.__all__))


def _public_objects():
    for package_name in _PACKAGES:
        package = importlib.import_module(package_name)
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                yield f"{package_name}.{name}", obj


@pytest.mark.parametrize("qualified,obj", list(_public_objects()))
def test_public_objects_documented(qualified: str, obj) -> None:
    assert inspect.getdoc(obj), f"{qualified} has no docstring"


def test_every_module_has_docstring() -> None:
    undocumented = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if not module.__doc__:
            undocumented.append(info.name)
    assert not undocumented, f"modules without docstrings: {undocumented}"


def test_top_level_exports() -> None:
    # The README quickstart relies on these names.
    from repro import (  # noqa: F401
        ACSSolver,
        ConvergenceBound,
        EnergyObjective,
        EnergyParams,
        EnergyPlan,
        EnergyPlanner,
    )

    assert repro.__version__


def test_repository_surface_exported() -> None:
    # The campaign storage API is part of the top-level contract.
    from repro import (  # noqa: F401
        CampaignRepository,
        StoreHealthReport,
        open_store,
    )


@pytest.mark.parametrize(
    "name", ["ExperimentScale", "FederatedConfig", "ResilienceConfig"]
)
def test_deprecated_shim_warning_text(name: str) -> None:
    """The shims must say what to use instead *and* when they go away."""
    import warnings

    # Module __getattr__ never caches the attribute, so every access
    # re-warns — no import-state gymnastics needed.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        getattr(repro, name)
    messages = [
        str(w.message)
        for w in caught
        if issubclass(w.category, DeprecationWarning)
    ]
    assert messages, f"repro.{name} did not warn"
    message = messages[0]
    assert f"repro.{name} is deprecated" in message
    assert "will be removed in repro 2.0" in message
    assert "RunSpec" in message  # points at the replacement surface


def test_net_holds_the_link_law_and_message_sizes() -> None:
    # Upload loss lives in the fault plan; the link only times transfers.
    import repro.net

    assert set(repro.net.__all__) == {
        "ChannelConfig",
        "ModelMessage",
        "model_download_message",
        "model_upload_message",
    }
    assert [f.name for f in dataclasses.fields(repro.net.ChannelConfig)] == [
        "rate_bps",
        "latency_s",
    ]


def test_version_is_semver_like() -> None:
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_import_loads_no_scipy() -> None:
    # scipy loads in the fits and intervals that call it: a run's
    # process, and every campaign worker forked from it, never holds it.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro, repro.campaign.runner; "
            "print('scipy' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert probe.stdout.strip() == "False"
