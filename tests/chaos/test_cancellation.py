"""Cancellation at any point of a unit's lifecycle leaves a clean store.

SIGINT and SIGTERM only cancel a token; the supervision loop checks it
between units and the prototype between rounds, so a cancelled pass
never tears a checkpoint and never miscounts it.  This property is
checked at seeded points across the unit lifecycle — before a training
round, around the store write, after verify-after-write, and inside the
loop's own completion bookkeeping — for ``jobs=1`` and ``jobs=4``.
Each case must leave a ``verify()``-clean store whose ``executed``
count matches the units it holds, and resuming must land the exact
bytes of an uninterrupted run.

The cancellation is a real SIGTERM sent to the process running the
pass, from wherever the lifecycle point executes (the pass itself for
``jobs=1``, a worker process for ``jobs=4``).  A file latch makes it
fire exactly once per case, so no case ever escalates to a hard cancel.
"""

from __future__ import annotations

import os
import random
import signal
from pathlib import Path

import pytest

from repro.campaign import ArtifactStore, CampaignRunner, CampaignSpec, RunSpec
from repro.fl.training import FederatedTrainer
from repro.obs.observer import Observer

pytestmark = pytest.mark.chaos_smoke

# The jobs value of case i is _JOBS[i % 4]; the seeded draws depend on it.
_JOBS = (1, 1, 4, 4)

# Lifecycle points, with how often one process reaches each in a pass
# over the 4-unit grid (3 rounds per unit).  A jobs=4 worker typically
# runs a single unit, so its counts are per unit.
_CALLS = {
    # (point, jobs) -> calls
    ("round", 1): 12,  # before FederatedTrainer.run_round
    ("record", 1): 4,  # before ArtifactStore.record_unit
    ("recorded", 1): 4,  # after ArtifactStore.record_unit
    ("verified", 1): 4,  # after ArtifactStore.verify_unit
    ("completed", 1): 4,  # the loop books a completed unit
    ("round", 4): 3,
    ("record", 4): 1,
    ("recorded", 4): 1,
    ("verified", 4): 1,
    ("completed", 4): 4,
}


def _seeded_cases(count: int = 24, seed: int = 13) -> list[tuple]:
    rng = random.Random(seed)
    points = sorted({point for point, _ in _CALLS})
    cases = []
    for index in range(count):
        jobs = _JOBS[index % len(_JOBS)]
        point = rng.choice(points)
        nth = rng.randint(1, _CALLS[point, jobs])
        cases.append((jobs, point, nth))
    return cases


_CASES = _seeded_cases()


def _campaign() -> CampaignSpec:
    spec = RunSpec(
        name="tiny",
        n_train=160,
        n_test=80,
        n_servers=4,
        participants=2,
        epochs=2,
        max_rounds=3,
        train_to_target=False,
    )
    return CampaignSpec(
        name="cancel", base=spec, participants=(1, 2), epochs=(1, 2)
    )


class _Trigger:
    """SIGTERM the pass's process on the ``nth`` call, once per case."""

    def __init__(self, latch: Path, nth: int) -> None:
        self.latch = latch
        self.nth = nth
        self.calls = 0
        self.pid = os.getpid()

    def fire(self) -> None:
        self.calls += 1
        if self.calls != self.nth:
            return
        try:
            os.close(os.open(self.latch, os.O_CREAT | os.O_EXCL))
        except FileExistsError:  # another worker got there first
            return
        os.kill(self.pid, signal.SIGTERM)


def _wrap(patch, owner, name: str, trigger: _Trigger, after: bool) -> None:
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        if not after:
            trigger.fire()
        result = original(*args, **kwargs)
        if after:
            trigger.fire()
        return result

    patch.setattr(owner, name, wrapper)


class _CompletionObserver(Observer):
    """Fires the trigger from the loop's completion bookkeeping."""

    def __init__(self, trigger: _Trigger) -> None:
        super().__init__()
        self._trigger = trigger

    def counter(self, name: str, **labels):
        if name == "scheduler.units_completed":
            self._trigger.fire()
        return super().counter(name, **labels)


@pytest.fixture(scope="module")
def reference(tmp_path_factory, store_digest) -> dict[str, str]:
    """Digest of an uninterrupted pass."""
    root = tmp_path_factory.mktemp("reference") / "store"
    CampaignRunner(_campaign(), ArtifactStore(root)).run()
    return store_digest(root)


@pytest.mark.parametrize(
    "jobs, point, nth",
    _CASES,
    ids=[f"{i:02d}-jobs{j}-{p}{n}" for i, (j, p, n) in enumerate(_CASES)],
)
def test_cancellation_at_a_seeded_lifecycle_point(
    tmp_path, monkeypatch, reference, store_digest, jobs, point, nth
) -> None:
    campaign = _campaign()
    store = ArtifactStore(tmp_path / "store")
    latch = tmp_path / "latch"
    trigger = _Trigger(latch, nth)
    observer = None
    with monkeypatch.context() as patch:
        if point == "round":
            _wrap(patch, FederatedTrainer, "run_round", trigger, after=False)
        elif point == "record":
            _wrap(patch, ArtifactStore, "record_unit", trigger, after=False)
        elif point == "recorded":
            _wrap(patch, ArtifactStore, "record_unit", trigger, after=True)
        elif point == "verified":
            _wrap(patch, ArtifactStore, "verify_unit", trigger, after=True)
        else:
            observer = _CompletionObserver(trigger)
        summary = CampaignRunner(campaign, store, observer=observer).run(
            jobs=jobs
        )

    assert latch.exists(), "the seeded point was never reached"
    assert store.verify() == []
    assert summary.executed == len(store.completed_keys())
    assert summary.interrupted or summary.executed == len(campaign)

    resumed = CampaignRunner(campaign, store).run(jobs=jobs)
    assert not resumed.interrupted
    assert summary.executed + resumed.executed == len(campaign)
    assert store.verify() == []
    assert store_digest(store.root) == reference
