"""Resource teardown on failure paths: no leaked shm, no orphan workers.

A unit that raises mid-round or is interrupted, and a scheduler drain
cut short by a second Ctrl-C, must leave no child process and no
``/dev/shm`` entry behind.  The ``pool`` units run in-process, as every
engine does, so nothing of theirs may outlive the unit either.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time

import pytest

from repro.campaign import ArtifactStore, CampaignRunner, CampaignSpec, RunSpec

pytestmark = pytest.mark.parallel_smoke

_SHM_DIR = "/dev/shm"


def _shm_entries() -> set[str]:
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return set()
    return set(os.listdir(_SHM_DIR))


def _wait_no_new_children(before: set, timeout_s: float = 5.0) -> set:
    """Child processes beyond ``before``, after a grace period to reap."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        extra = {
            child
            for child in multiprocessing.active_children()
            if child not in before
        }
        if not extra:
            return set()
        time.sleep(0.05)
    return extra


class TestFaultingUnitTeardown:
    def test_faulting_pool_unit_leaks_nothing(
        self, tmp_path, tiny_spec: RunSpec, monkeypatch
    ) -> None:
        # Make the aggregation step blow up mid-run: the unit raises
        # with a round half done and must leave nothing behind.
        from repro.fl.server import Coordinator

        calls = {"n": 0}
        real_aggregate = Coordinator.aggregate

        def failing_aggregate(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("injected aggregation fault")
            return real_aggregate(self, *args, **kwargs)

        monkeypatch.setattr(Coordinator, "aggregate", failing_aggregate)

        shm_before = _shm_entries()
        children_before = set(multiprocessing.active_children())
        spec = dataclasses.replace(tiny_spec, backend="pool")
        campaign = CampaignSpec(name="faulting", base=spec)
        store = ArtifactStore(tmp_path / "store")
        runner = CampaignRunner(campaign, store)
        # supervision=None: this test is about the raise-through path,
        # not about retries absorbing the fault.
        with pytest.raises(RuntimeError, match="injected aggregation fault"):
            runner.run(supervision=None)

        assert _shm_entries() - shm_before == set()
        assert _wait_no_new_children(children_before) == set()
        # Nothing half-finished was checkpointed.
        assert store.completed_keys() == set()

    def test_faulting_pool_unit_is_quarantined_without_leaks(
        self, tmp_path, tiny_spec: RunSpec, monkeypatch
    ) -> None:
        # Same injected fault under default supervision: no retry leaves
        # anything behind, and quarantine ends the pass cleanly.
        from repro.campaign.runner import DEFAULT_SUPERVISION
        from repro.fl.server import Coordinator

        def failing_aggregate(self, *args, **kwargs):
            raise RuntimeError("injected aggregation fault")

        monkeypatch.setattr(Coordinator, "aggregate", failing_aggregate)

        shm_before = _shm_entries()
        children_before = set(multiprocessing.active_children())
        spec = dataclasses.replace(tiny_spec, backend="pool")
        campaign = CampaignSpec(name="faulting-supervised", base=spec)
        store = ArtifactStore(tmp_path / "store")
        supervision = dataclasses.replace(
            DEFAULT_SUPERVISION,
            retry=dataclasses.replace(
                DEFAULT_SUPERVISION.retry, max_retries=1, base_backoff_s=0.01
            ),
        )
        summary = CampaignRunner(campaign, store).run(supervision=supervision)

        assert summary.degraded
        assert summary.quarantined == 1
        assert _shm_entries() - shm_before == set()
        assert _wait_no_new_children(children_before) == set()
        assert store.completed_keys() == set()
        key = campaign.expand()[0].key()
        assert store.attempts_used(key) == 2

    def test_interrupted_pool_unit_leaks_nothing(
        self, tmp_path, tiny_spec: RunSpec, monkeypatch
    ) -> None:
        # A Ctrl-C mid-round takes the KeyboardInterrupt path through
        # the runner; it must leave nothing behind either.
        from repro.fl.server import Coordinator

        calls = {"n": 0}
        real_aggregate = Coordinator.aggregate

        def interrupting_aggregate(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise KeyboardInterrupt
            return real_aggregate(self, *args, **kwargs)

        monkeypatch.setattr(Coordinator, "aggregate", interrupting_aggregate)

        shm_before = _shm_entries()
        children_before = set(multiprocessing.active_children())
        spec = dataclasses.replace(tiny_spec, backend="pool")
        campaign = CampaignSpec(name="interrupted", base=spec)
        store = ArtifactStore(tmp_path / "store")
        summary = CampaignRunner(campaign, store).run()

        assert summary.interrupted
        assert _shm_entries() - shm_before == set()
        assert _wait_no_new_children(children_before) == set()


def _hold_shm_and_sleep(marker: str) -> str:
    """Scheduler worker: grab a shm block, signal readiness, then hang.

    The SIGTERM→KeyboardInterrupt initializer must unwind the sleep so
    the ``finally`` releases the block — that is the property the
    double-interrupt hard-cancel path relies on.
    """
    from multiprocessing import shared_memory
    from pathlib import Path

    shm = shared_memory.SharedMemory(create=True, size=64)
    try:
        Path(marker).write_text(str(os.getpid()))
        time.sleep(120)
    finally:
        shm.close()
        shm.unlink()
    return marker


class TestDoubleInterrupt:
    def test_second_interrupt_hard_cancels_without_leaking(
        self, tmp_path, monkeypatch
    ) -> None:
        # First Ctrl-C: the scheduler starts its graceful drain (wait
        # for in-flight units).  Second Ctrl-C during that drain: the
        # workers are terminated instead of awaited — but SIGTERM-first,
        # so their finally blocks still release shared memory.
        import repro.perf.scheduler as scheduler_module
        from repro.perf.scheduler import ParallelUnitScheduler

        markers = [tmp_path / "w0.marker", tmp_path / "w1.marker"]

        real_wait = scheduler_module.wait
        state = {"interrupted": False}

        def first_interrupt_wait(fs, timeout=None, return_when=None):
            if not state["interrupted"]:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if all(m.exists() for m in markers):
                        break
                    real_wait(fs, timeout=0.05, return_when=return_when)
                state["interrupted"] = True
                raise KeyboardInterrupt
            return real_wait(fs, timeout=timeout, return_when=return_when)

        monkeypatch.setattr(scheduler_module, "wait", first_interrupt_wait)

        class _SecondInterruptOnDrain:
            """Executor proxy whose graceful drain gets the second Ctrl-C."""

            def __init__(self, executor):
                self._executor = executor
                self._interrupts_left = 1

            def __getattr__(self, name):
                return getattr(self._executor, name)

            def shutdown(self, wait=True, cancel_futures=False):
                if wait and self._interrupts_left:
                    self._interrupts_left -= 1
                    raise KeyboardInterrupt
                return self._executor.shutdown(
                    wait=wait, cancel_futures=cancel_futures
                )

        scheduler = ParallelUnitScheduler(jobs=2)
        real_new_executor = scheduler._new_executor
        monkeypatch.setattr(
            scheduler,
            "_new_executor",
            lambda: _SecondInterruptOnDrain(real_new_executor()),
        )

        shm_before = _shm_entries()
        children_before = set(multiprocessing.active_children())
        started = time.monotonic()
        outcome = scheduler.run(
            [str(marker) for marker in markers], _hold_shm_and_sleep
        )
        elapsed = time.monotonic() - started

        assert outcome.interrupted
        assert outcome.hard_cancelled
        assert not outcome.completed
        # Bounded: nowhere near the workers' 120s sleep — SIGTERM (plus
        # at worst the 5s SIGKILL grace) ended them.
        assert elapsed < 30
        assert _shm_entries() - shm_before == set()
        assert _wait_no_new_children(children_before) == set()

