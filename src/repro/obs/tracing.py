"""Lightweight span tracing: nested timed regions as a tree.

A :class:`Tracer` maintains a stack of open :class:`Span` objects;
``with tracer.span("round", round=t):`` opens a child of whatever span
is currently active, times it with ``perf_counter``, and files it under
its parent.  The resulting forest doubles as a profiler (span durations)
and a trace exporter (:meth:`Span.to_dict` is JSON-ready).

Single-threaded by design — the whole reproduction runs one process on
one core, so the active-span stack needs no context variables.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer"]


class Span:
    """One timed region of execution, possibly with child spans."""

    __slots__ = ("name", "attributes", "start_s", "end_s", "children")

    def __init__(self, name: str, attributes: dict[str, Any], start_s: float) -> None:
        self.name = name
        self.attributes = attributes
        self.start_s = start_s
        self.end_s: float | None = None
        self.children: list["Span"] = []

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            raise ValueError(f"span {self.name!r} has not finished")
        return self.end_s - self.start_s

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach or update one attribute on an open or closed span."""
        self.attributes[key] = value

    def to_dict(self) -> dict[str, Any]:
        """Recursive JSON-ready form of this span and its subtree."""
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "start_s": self.start_s,
            "duration_s": self.duration_s if self.finished else None,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output.

        An unfinished span (``duration_s`` null — e.g. a worker killed
        mid-region) stays unfinished after the round trip.
        """
        try:
            span = cls(
                str(data["name"]),
                dict(data.get("attributes", {})),
                float(data["start_s"]),
            )
            duration = data.get("duration_s")
            if duration is not None:
                span.end_s = span.start_s + float(duration)
            span.children = [
                cls.from_dict(child) for child in data.get("children", ())
            ]
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"malformed span record: {error}") from None
        return span

    def iter_spans(self) -> Iterator["Span"]:
        """Pre-order walk over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration_s:.6f}s" if self.finished else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class Tracer:
    """Builds a forest of spans from nested ``with tracer.span(...)`` blocks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a span as a child of the current one; close it on exit."""
        if not name:
            raise ValueError("span name must be a non-empty string")
        span = Span(name, attributes, self._clock())
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_s = self._clock()
            self._stack.pop()

    def iter_spans(self) -> Iterator[Span]:
        """Pre-order walk over every recorded span (all roots)."""
        for root in self.roots:
            yield from root.iter_spans()

    def find(self, name: str) -> list[Span]:
        """All recorded spans with the given name."""
        return [s for s in self.iter_spans() if s.name == name]

    def to_dicts(self) -> list[dict[str, Any]]:
        """JSON-ready list of root span trees."""
        return [root.to_dict() for root in self.roots]

    def render_text(self, indent: str = "  ") -> str:
        """Indented text rendering of the span forest."""
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            duration = (
                f"{span.duration_s * 1e3:.3f} ms" if span.finished else "(open)"
            )
            attrs = (
                " " + " ".join(f"{k}={v}" for k, v in span.attributes.items())
                if span.attributes
                else ""
            )
            lines.append(f"{indent * depth}{span.name} {duration}{attrs}")
            for child in span.children:
                walk(child, depth + 1)

        for root in self.roots:
            walk(root, 0)
        return "\n".join(lines) if lines else "(no spans recorded)"
