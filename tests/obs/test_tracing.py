"""Unit tests for the span tracer."""

from __future__ import annotations

import pytest

from repro.obs.tracing import Tracer


def _ticking_clock(step: float = 1.0):
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += step
        return state["now"]

    return clock


class TestSpanNesting:
    def test_children_nest_under_parent(self) -> None:
        tracer = Tracer()
        with tracer.span("round", round=0) as round_span:
            with tracer.span("client.train", client=1):
                pass
            with tracer.span("client.train", client=2):
                pass
        assert len(tracer.roots) == 1
        assert [c.name for c in round_span.children] == [
            "client.train",
            "client.train",
        ]
        assert [c.attributes["client"] for c in round_span.children] == [1, 2]

    def test_sibling_roots(self) -> None:
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [r.name for r in tracer.roots] == ["a", "b"]

    def test_current_tracks_stack(self) -> None:
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
                assert tracer.depth == 2
            assert tracer.current is outer
        assert tracer.current is None

    def test_span_closed_on_exception(self) -> None:
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("broken"):
                raise RuntimeError("boom")
        assert tracer.roots[0].finished
        assert tracer.current is None

    def test_empty_name_rejected(self) -> None:
        with pytest.raises(ValueError, match="non-empty"):
            with Tracer().span(""):
                pass


class TestDurations:
    def test_duration_from_clock(self) -> None:
        tracer = Tracer(clock=_ticking_clock())
        with tracer.span("outer"):  # start 1
            with tracer.span("inner"):  # start 2, end 3
                pass
        # outer: start 1, end 4.
        assert tracer.roots[0].duration_s == 3.0
        assert tracer.roots[0].children[0].duration_s == 1.0

    def test_unfinished_duration_raises(self) -> None:
        tracer = Tracer()
        with tracer.span("open") as span:
            with pytest.raises(ValueError, match="not finished"):
                _ = span.duration_s


class TestExport:
    def test_to_dict_recursive(self) -> None:
        tracer = Tracer(clock=_ticking_clock())
        with tracer.span("round", round=7):
            with tracer.span("aggregate"):
                pass
        tree = tracer.to_dicts()[0]
        assert tree["name"] == "round"
        assert tree["attributes"] == {"round": 7}
        assert tree["duration_s"] == 3.0
        assert tree["children"][0]["name"] == "aggregate"
        assert tree["children"][0]["children"] == []

    def test_iter_and_find(self) -> None:
        tracer = Tracer()
        with tracer.span("round"):
            with tracer.span("client.train"):
                pass
        with tracer.span("round"):
            pass
        assert [s.name for s in tracer.iter_spans()] == [
            "round",
            "client.train",
            "round",
        ]
        assert len(tracer.find("round")) == 2

    def test_render_text(self) -> None:
        tracer = Tracer()
        with tracer.span("round", round=0):
            with tracer.span("inner"):
                pass
        text = tracer.render_text()
        assert "round" in text
        assert "  inner" in text
        assert "(no spans" in Tracer().render_text()
