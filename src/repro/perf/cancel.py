"""Cooperative cancellation: signals request, safe points decide.

SIGINT and SIGTERM never raise at whatever bytecode happens to be
running.  They only count a request on a :class:`CancelToken`, and code
polls the token where stopping is safe: the supervision loop between
units, the federated round loop between rounds
(:func:`check_cancelled`).  A store write, its verify-after-write and
the outcome bookkeeping around it therefore always run to completion.

The first request drains.  The second is a *hard* cancel, and it is the
only request a handler turns into :class:`KeyboardInterrupt` — and only
inside a :meth:`CancelToken.interruptible` section, a wait that a hard
cancel has to break (the drain waiting on worker processes, a unit's
training).

Signal dispositions are process-wide, so the token a handler drives is
too: :func:`activate` names the token that units running in this process
poll.  A process forked while a token handler is installed is not the
token's owner, and the handler it inherits would count requests on a
copy of the owner's token that nothing in the child polls.  So the child
starts with SIGINT ignored — the owner finishes or discards the unit —
and SIGTERM at its default, so that a child with no token of its own yet
still ends on it.  Both signals stay blocked across the fork until those
dispositions are in place.  Worker processes started through
:func:`repro.perf.scheduler.process_executor` then install their own
token (:func:`install_in_worker`) before they take any task, and keep
both signals blocked until they have: a signal that lands in between is
a request on the worker's token, not a death that breaks its pool.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager, nullcontext
from typing import Iterator

__all__ = [
    "CancelToken",
    "Cancelled",
    "activate",
    "check_cancelled",
    "interruptible",
    "install_in_worker",
    "forking_worker",
]

_SIGNALS = (signal.SIGINT, signal.SIGTERM)


class Cancelled(BaseException):
    """A unit stopped at a round boundary because its pass was cancelled.

    A ``BaseException``, like ``KeyboardInterrupt``, so no ``except
    Exception`` in the training stack swallows it; the partial unit is
    discarded and a later pass re-runs it from scratch.
    """


class CancelToken:
    """Counts cancellation requests: the first drains, the second is hard."""

    def __init__(self) -> None:
        self.requests = 0
        self._interruptible = False

    @property
    def cancelled(self) -> bool:
        """At least one request: start nothing new."""
        return self.requests > 0

    @property
    def hard(self) -> bool:
        """Two or more requests: stop waiting for running units."""
        return self.requests > 1

    def cancel(self) -> None:
        """Record one cancellation request."""
        self.requests += 1

    @contextmanager
    def interruptible(self) -> Iterator[None]:
        """A wait a hard cancel must break with ``KeyboardInterrupt``."""
        previous = self._interruptible
        self._interruptible = True
        try:
            if self.hard:
                raise KeyboardInterrupt("hard cancel")
            yield
        finally:
            self._interruptible = previous

    def _on_signal(self, signum, frame) -> None:
        self.cancel()
        # Raise once, on the request that makes the cancel hard: later
        # signals must not re-raise inside the unwinding's own cleanup.
        if self.requests == 2 and self._interruptible:
            raise KeyboardInterrupt(f"hard cancel by signal {signum}")

    @contextmanager
    def on_signals(self) -> Iterator["CancelToken"]:
        """Route SIGINT and SIGTERM to this token for the duration.

        Handlers can only be installed from the main thread; anywhere
        else (a runner driven from a worker thread in tests) the signals
        keep their current handlers.
        """
        previous = {}
        try:
            for signum in _SIGNALS:
                previous[signum] = signal.signal(signum, self._on_signal)
        except ValueError:  # not the main thread
            pass
        try:
            yield self
        finally:
            for signum, handler in previous.items():
                signal.signal(
                    signum, handler if handler is not None else signal.SIG_DFL
                )


def _token_handler_installed() -> bool:
    handler = signal.getsignal(signal.SIGTERM)
    return getattr(handler, "__func__", None) is CancelToken._on_signal


_MASK_BEFORE_FORK: set | None = None
# True while this process forks a pool worker (see forking_worker).
_FORKING_WORKER = False
# In a forked pool worker: the mask install_in_worker restores.
_MASK_UNTIL_INSTALLED: set | None = None


@contextmanager
def forking_worker() -> Iterator[None]:
    """Forks in this block are pool workers that call install_in_worker."""
    global _FORKING_WORKER
    _FORKING_WORKER = True
    try:
        yield
    finally:
        _FORKING_WORKER = False


def _before_fork() -> None:
    global _MASK_BEFORE_FORK
    if _token_handler_installed():
        _MASK_BEFORE_FORK = signal.pthread_sigmask(signal.SIG_BLOCK, _SIGNALS)


def _after_fork_in_parent() -> None:
    global _MASK_BEFORE_FORK
    if _MASK_BEFORE_FORK is not None:
        signal.pthread_sigmask(signal.SIG_SETMASK, _MASK_BEFORE_FORK)
        _MASK_BEFORE_FORK = None


def _after_fork_in_child() -> None:
    global _MASK_BEFORE_FORK, _FORKING_WORKER, _MASK_UNTIL_INSTALLED
    if _MASK_BEFORE_FORK is not None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        if _FORKING_WORKER:
            _MASK_UNTIL_INSTALLED = _MASK_BEFORE_FORK
        else:
            signal.pthread_sigmask(signal.SIG_SETMASK, _MASK_BEFORE_FORK)
        _MASK_BEFORE_FORK = None
    _FORKING_WORKER = False


os.register_at_fork(
    before=_before_fork,
    after_in_parent=_after_fork_in_parent,
    after_in_child=_after_fork_in_child,
)


_ACTIVE: CancelToken | None = None


@contextmanager
def activate(token: CancelToken) -> Iterator[CancelToken]:
    """Make ``token`` the one units running in this process poll."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, token
    try:
        yield token
    finally:
        _ACTIVE = previous


def check_cancelled() -> None:
    """Raise :class:`Cancelled` if this process's pass was cancelled."""
    if _ACTIVE is not None and _ACTIVE.cancelled:
        raise Cancelled("pass cancelled; partial unit discarded")


def interruptible():
    """The active token's :meth:`~CancelToken.interruptible` section."""
    return _ACTIVE.interruptible() if _ACTIVE is not None else nullcontext()


def install_in_worker() -> None:  # pragma: no cover - runs in workers
    """Pool-worker initializer: a process-wide token driven by signals.

    A worker has no bookkeeping of its own to protect, so its token is
    always interruptible: the first SIGINT/SIGTERM stops the unit at its
    next round boundary, the second unwinds it at once through its
    ``finally`` blocks (engines close, files and stores are released).
    """
    global _ACTIVE, _MASK_UNTIL_INSTALLED
    token = CancelToken()
    token._interruptible = True
    for signum in _SIGNALS:
        signal.signal(signum, token._on_signal)
    _ACTIVE = token
    if _MASK_UNTIL_INSTALLED is not None:
        # Delivers what arrived since the fork, to this token.
        signal.pthread_sigmask(signal.SIG_SETMASK, _MASK_UNTIL_INSTALLED)
        _MASK_UNTIL_INSTALLED = None
