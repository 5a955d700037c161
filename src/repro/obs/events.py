"""Structured event log: the observability substrate's source of truth.

Every instrumented component appends :class:`ObsEvent` records to an
:class:`EventLog`.  An event carries a dotted *category*
(``round.start``, ``client.train``, ``acs.iteration``),
a monotonic wall-clock timestamp relative to the log's creation, an
optional *simulation* timestamp (the two clocks deliberately coexist:
a 280-round FedAvg run takes seconds of wall time but hours of simulated
testbed time), and a free-form field mapping.

The log is append-only and order-preserving; :meth:`EventLog.to_jsonl` /
:meth:`EventLog.from_jsonl` round-trip it losslessly so a run's telemetry
can be dumped next to its results and inspected offline.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["ObsEvent", "EventLog"]


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars/arrays and other common types for JSON."""
    if hasattr(value, "tolist"):  # numpy array or scalar
        return value.tolist()
    if hasattr(value, "item"):  # other scalar wrappers
        return value.item()
    if isinstance(value, (set, frozenset, tuple)):
        return list(value)
    raise TypeError(f"unserialisable event field of type {type(value).__name__}")


@dataclass(frozen=True)
class ObsEvent:
    """One structured telemetry record.

    Attributes:
        sequence: position in the emitting log (monotonically increasing).
        category: dotted event kind, e.g. ``"round.start"``.
        wall_time_s: monotonic seconds since the log was created.
        sim_time_s: simulation clock at emission, or ``None`` outside a
            simulation context.
        fields: free-form JSON-serialisable payload.
    """

    sequence: int
    category: str
    wall_time_s: float
    sim_time_s: float | None = None
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form used by the JSONL export."""
        return {
            "seq": self.sequence,
            "category": self.category,
            "wall_s": self.wall_time_s,
            "sim_s": self.sim_time_s,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ObsEvent":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` when malformed."""
        try:
            return cls(
                sequence=int(data["seq"]),
                category=str(data["category"]),
                wall_time_s=float(data["wall_s"]),
                sim_time_s=(
                    None if data.get("sim_s") is None else float(data["sim_s"])
                ),
                fields=dict(data.get("fields", {})),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed event record {data!r}: {error}") from None


class EventLog:
    """Append-only ordered store of :class:`ObsEvent` records."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._events: list[ObsEvent] = []
        self._clock = clock
        self._epoch = clock()
        self._next_sequence = 0

    def emit(
        self, category: str, sim_time: float | None = None, **fields: Any
    ) -> ObsEvent:
        """Append one event and return it.

        ``sim_time`` is the simulation clock (if any); all remaining
        keyword arguments become the event's field payload.
        """
        if not category:
            raise ValueError("event category must be a non-empty string")
        event = ObsEvent(
            sequence=self._next_sequence,
            category=category,
            wall_time_s=self._clock() - self._epoch,
            sim_time_s=None if sim_time is None else float(sim_time),
            fields=fields,
        )
        self._events.append(event)
        self._next_sequence += 1
        return event

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> ObsEvent:
        return self._events[index]

    @property
    def events(self) -> tuple[ObsEvent, ...]:
        return tuple(self._events)

    def categories(self) -> dict[str, int]:
        """Event count per category."""
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.category] = counts.get(event.category, 0) + 1
        return counts

    def filter(self, category: str) -> list[ObsEvent]:
        """Events whose category equals ``category`` or lives under it.

        ``filter("client")`` matches ``client.train`` and
        ``client.upload`` but not ``clients.x``.
        """
        prefix = category + "."
        return [
            e
            for e in self._events
            if e.category == category or e.category.startswith(prefix)
        ]

    # ------------------------------------------------------------------
    # JSONL round-trip.
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialise every event as one JSON object per line."""
        return "\n".join(
            json.dumps(event.to_dict(), default=_json_default)
            for event in self._events
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "EventLog":
        """Rebuild a log from :meth:`to_jsonl` output (order preserved)."""
        log = cls()
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"invalid JSON on line {line_number}: {error}"
                ) from None
            log._events.append(ObsEvent.from_dict(data))
        if log._events:
            log._next_sequence = max(e.sequence for e in log._events) + 1
        return log

    def save_jsonl(self, path: str | Path) -> None:
        """Write the log to ``path`` (one event per line)."""
        text = self.to_jsonl()
        Path(path).write_text(text + "\n" if text else "")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "EventLog":
        """Read a log previously written by :meth:`save_jsonl`."""
        return cls.from_jsonl(Path(path).read_text())
