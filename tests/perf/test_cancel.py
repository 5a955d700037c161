"""Cooperative cancellation: what a signal may and may not do.

SIGINT and SIGTERM only count requests on a token.  The first never
raises; the second raises only inside an interruptible wait.  A process
forked while the token's handlers are installed must not inherit them:
it ignores SIGINT and dies on SIGTERM, even when the signal lands right
after the fork, before its interpreter finished starting.  A worker
forked by ``process_executor`` instead holds both signals until its own
token is installed, so its pool never breaks on one.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.perf.cancel import Cancelled, CancelToken, activate, check_cancelled

pytestmark = pytest.mark.parallel_smoke


def _deliver(signum: int) -> None:
    """Signal this process and give the handler a bytecode boundary."""
    os.kill(os.getpid(), signum)
    time.sleep(0.01)


class TestToken:
    def test_first_signal_only_cancels(self) -> None:
        token = CancelToken()
        with token.on_signals():
            with token.interruptible():
                _deliver(signal.SIGTERM)
        assert token.cancelled and not token.hard

    def test_second_signal_raises_only_inside_an_interruptible_wait(
        self,
    ) -> None:
        token = CancelToken()
        with token.on_signals():
            _deliver(signal.SIGINT)
            _deliver(signal.SIGTERM)  # hard, but nothing to break yet
            assert token.hard
            with pytest.raises(KeyboardInterrupt):
                with token.interruptible():
                    pass

        token = CancelToken()
        with token.on_signals():
            with pytest.raises(KeyboardInterrupt):
                with token.interruptible():
                    _deliver(signal.SIGINT)
                    _deliver(signal.SIGTERM)

    def test_handlers_are_restored(self) -> None:
        signals = (signal.SIGINT, signal.SIGTERM)
        before = [signal.getsignal(signum) for signum in signals]
        with CancelToken().on_signals():
            pass
        assert [signal.getsignal(signum) for signum in signals] == before

    def test_units_poll_the_active_token(self) -> None:
        check_cancelled()  # no active token: never raises
        token = CancelToken()
        with activate(token):
            check_cancelled()
            token.cancel()
            with pytest.raises(Cancelled):
                check_cancelled()
        check_cancelled()


class TestForkedChildren:
    def test_child_ignores_sigint_and_dies_on_an_immediate_sigterm(
        self,
    ) -> None:
        token = CancelToken()
        context = multiprocessing.get_context("fork")
        with token.on_signals():
            child = context.Process(target=time.sleep, args=(60,))
            child.start()
            # Sent at once: the signal may land before the child's
            # interpreter has re-initialised after the fork.
            os.kill(child.pid, signal.SIGINT)
            os.kill(child.pid, signal.SIGTERM)
            child.join(20)
        assert not child.is_alive()
        assert child.exitcode == -signal.SIGTERM
        assert token.requests == 0

    def test_executor_worker_counts_an_immediate_sigterm(self) -> None:
        from repro.perf.scheduler import process_executor

        token = CancelToken()
        with token.on_signals():
            executor = process_executor(1)
            try:
                future = executor.submit(os.getpid)
                # Sent at once, as above: a worker that died on it would
                # break the pool and fail the future.
                for worker in list(executor._processes.values()):
                    os.kill(worker.pid, signal.SIGTERM)
                assert future.result(timeout=20) != os.getpid()
            finally:
                executor.shutdown(wait=True)
        assert token.requests == 0
