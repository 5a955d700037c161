"""A small discrete-event simulation engine.

:class:`~repro.fl.async_training.AsyncFederatedTrainer` runs on it: each
client job's completion is a timed event on a shared clock, so the
server merges updates in simulated-time order.  The synchronous
prototype prices its rounds directly and does not use it.

The engine is deliberately generic: events are ``(time, priority, seq,
action)`` tuples on a heap; actions are callables receiving the
simulator, may schedule further events, and run in deterministic order
(time, then priority, then insertion order).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "Simulator"]


@dataclass(order=True)
class Event:
    """A scheduled action, ordered by (time, priority, sequence number)."""

    time: float
    priority: int
    sequence: int
    action: Callable[["Simulator"], None] = field(compare=False)
    label: str = field(default="", compare=False)


class Simulator:
    """Deterministic event-driven simulator with a floating-point clock."""

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._trace: list[tuple[float, str]] = []

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    @property
    def trace(self) -> list[tuple[float, str]]:
        """Chronological ``(time, label)`` log of executed labelled events."""
        return list(self._trace)

    def schedule(
        self,
        delay: float,
        action: Callable[["Simulator"], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled with
        :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative; got {delay}")
        event = Event(
            time=self._now + delay,
            priority=priority,
            sequence=next(self._sequence),
            action=action,
            label=label,
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(
        self,
        time: float,
        action: Callable[["Simulator"], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at an absolute simulation time."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        return self.schedule(time - self._now, action, priority, label)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already ran)."""
        event.action = _cancelled

    def _drain_cancelled_head(self) -> None:
        """Discard cancelled events sitting at the front of the queue.

        Keeps head peeks (``run``'s ``until`` check) accurate: a cancelled
        event's stale timestamp must not decide whether the next *real*
        event is within the time bound.
        """
        while self._queue and self._queue[0].action is _cancelled:
            heapq.heappop(self._queue)

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty.

        Cancelled events are silently discarded and never count as
        executed work (``events_processed`` only counts real actions).
        """
        self._drain_cancelled_head()
        if not self._queue:
            return False
        event = heapq.heappop(self._queue)
        self._now = event.time
        if event.label:
            self._trace.append((event.time, event.label))
        event.action(self)
        self._processed += 1
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events in order, optionally bounded by time or event count.

        With ``until`` set, the clock is advanced to exactly ``until`` even
        when the queue empties earlier, and events after ``until`` remain
        queued.  ``max_events`` bounds *executed* events: the accounting is
        unified on :attr:`events_processed`, so cancelled events drained
        along the way never consume budget (and instrumentation wrapping
        :meth:`step` cannot drift from the budget check).
        """
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be non-negative; got {max_events}")
        started_at = self._processed
        while self._queue:
            if (
                max_events is not None
                and self._processed - started_at >= max_events
            ):
                return
            self._drain_cancelled_head()
            if not self._queue:
                break
            if until is not None and self._queue[0].time > until:
                break
            if not self.step():
                break
        if until is not None and until > self._now:
            self._now = until


def _cancelled(sim: Simulator) -> None:
    """Sentinel action for cancelled events (never executed)."""
    raise AssertionError("cancelled event executed")
