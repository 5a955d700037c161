"""Shared fixtures for the chaos acceptance suite: tiny, fast units."""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro.campaign import ArtifactStore, CampaignSpec, RunSpec
from repro.campaign.runner import DEFAULT_SUPERVISION
from repro.faults import RetryPolicy
from repro.perf.scheduler import SupervisionPolicy

_RUNTIME_DIRS = ("quarantine", "heartbeats", "spools")


def _store_digest(root: str | Path) -> dict[str, str]:
    """Artifact file hashes by relative path, plus the logical index digest.

    Runtime state — failure records, heartbeats, telemetry spools, the
    lock file — carries wall times, pids and tracebacks, and raw
    ``manifest.db`` bytes depend on the order units completed in, so
    all of them are left out; the index takes part through
    ``index_digest()``.
    """
    root = Path(root)
    digest = {
        str(path.relative_to(root)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
        and path.name != ".lock"
        and not path.name.startswith(ArtifactStore.index_filename)
        and path.relative_to(root).parts[0] not in _RUNTIME_DIRS
    }
    digest["<index>"] = ArtifactStore(root).index_digest()
    return digest


@pytest.fixture(scope="session")
def store_digest():
    """Compares stores: artifact bytes plus ``index_digest()``."""
    return _store_digest


@pytest.fixture()
def tiny_spec() -> RunSpec:
    """A fixed-budget unit small enough for byte-level identity tests."""
    return RunSpec(
        name="tiny",
        n_train=160,
        n_test=80,
        n_servers=4,
        participants=2,
        epochs=2,
        max_rounds=3,
        train_to_target=False,
    )


@pytest.fixture()
def chaos_campaign(tiny_spec: RunSpec) -> CampaignSpec:
    """A 2x2x2 (K, E, seed) grid — eight units, the acceptance shape."""
    return CampaignSpec(
        name="chaos-grid",
        base=tiny_spec,
        participants=(1, 2),
        epochs=(1, 2),
        seeds=(0, 1),
    )


@pytest.fixture()
def fast_supervision() -> SupervisionPolicy:
    """Supervision tuned for tests: tight budget, millisecond backoffs.

    ``unit_timeout_s`` is generous against a loaded CI box (a healthy
    tiny unit trains in well under a second) but short enough that a
    hung saboteur is reclaimed twice within the test's patience.
    """
    return dataclasses.replace(
        DEFAULT_SUPERVISION,
        retry=RetryPolicy(
            max_retries=1, base_backoff_s=0.05, max_backoff_s=0.2
        ),
        unit_timeout_s=6.0,
        kill_grace_s=2.0,
    )
