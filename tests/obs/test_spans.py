"""Span nesting, timing, exception safety, and the disabled fast path."""

import time

import pytest

from repro.obs import MetricsRegistry, SpanTracker
from repro.obs.spans import _NULL_SPAN


@pytest.fixture()
def tracker():
    return SpanTracker(MetricsRegistry(), max_roots=8)


class TestNesting:
    def test_nested_spans_build_a_tree(self, tracker):
        with tracker.span("outer"):
            with tracker.span("inner_a"):
                pass
            with tracker.span("inner_b"):
                with tracker.span("leaf"):
                    pass
        assert len(tracker.roots) == 1
        root = tracker.roots[0]
        assert root.name == "outer"
        assert [child.name for child in root.children] == ["inner_a", "inner_b"]
        assert [child.name for child in root.children[1].children] == ["leaf"]

    def test_sequential_roots_accumulate(self, tracker):
        for name in ("a", "b", "c"):
            with tracker.span(name):
                pass
        assert [span.name for span in tracker.roots] == ["a", "b", "c"]

    def test_roots_ring_is_bounded(self, tracker):
        for i in range(20):
            with tracker.span(f"s{i}"):
                pass
        assert len(tracker.roots) == 8
        assert tracker.roots[0].name == "s12"

    def test_current_tracks_the_innermost_open_span(self, tracker):
        assert tracker.current is None
        with tracker.span("outer"):
            assert tracker.current.name == "outer"
            with tracker.span("inner"):
                assert tracker.current.name == "inner"
            assert tracker.current.name == "outer"
        assert tracker.current is None


class TestTiming:
    def test_duration_covers_the_block(self, tracker):
        with tracker.span("sleepy"):
            time.sleep(0.01)
        duration = tracker.roots[0].duration
        assert 0.009 <= duration < 1.0

    def test_child_duration_bounded_by_parent(self, tracker):
        with tracker.span("outer"):
            with tracker.span("inner"):
                time.sleep(0.005)
        root = tracker.roots[0]
        assert root.children[0].duration <= root.duration

    def test_durations_feed_the_span_histogram(self, tracker):
        for _ in range(3):
            with tracker.span("timed"):
                pass
        with tracker.span("slow"):
            time.sleep(0.002)
        assert tracker._histogram.labels(span="timed").count == 3
        slow = tracker._histogram.labels(span="slow")
        assert slow.count == 1
        assert slow.sum >= 0.002

    def test_walk_and_render(self, tracker):
        with tracker.span("outer"):
            with tracker.span("inner"):
                pass
        root = tracker.roots[0]
        assert [(d, s.name) for d, s in root.walk()] == [(0, "outer"), (1, "inner")]
        rendered = root.render(unit="ms")
        assert "outer" in rendered and "  inner" in rendered and "ms" in rendered


class TestExceptionSafety:
    def test_span_closes_and_records_on_exception(self, tracker):
        with pytest.raises(RuntimeError, match="boom"):
            with tracker.span("outer"):
                with tracker.span("inner"):
                    raise RuntimeError("boom")
        assert tracker.current is None
        root = tracker.roots[0]
        assert root.name == "outer"
        assert root.children[0].name == "inner"
        assert root.duration > 0.0


class TestDisabled:
    def test_disabled_registry_returns_the_shared_null_span(self):
        registry = MetricsRegistry(enabled=False)
        tracker = SpanTracker(registry)
        assert tracker.span("anything") is _NULL_SPAN
        with tracker.span("anything"):
            pass
        assert len(tracker.roots) == 0
        assert not list(tracker._histogram.samples())  # no child ever created

    def test_clear_drops_roots(self, tracker):
        with tracker.span("x"):
            pass
        tracker.clear()
        assert len(tracker.roots) == 0
