"""Lightweight spans: nested wall-clock timers over a contextvar.

``with spans.span("predict.forward"): ...`` times a block, records the
duration into the shared ``repro_span_duration_seconds`` histogram
(labelled by span name), and — because the active span lives in a
:mod:`contextvars` variable — automatically nests: a span opened while
another is active becomes its child, producing a per-run tree
(``campaign.day`` → ``campaign.monitor`` → ``predict.execute`` → ...).

Completed *root* spans are kept in a bounded ring so reports can render
the most recent trees; children are owned by their parents. When the
owning registry is disabled, :meth:`SpanTracker.span` returns a shared
no-op context manager — no Span object, no contextvar write, no clock
read.

The active span is a contextvar rather than a module global because
asyncio tasks interleave on one event loop: each task runs in its own
copy of the context, so a span one task opens never becomes the parent
of a span another task opens while the first is suspended.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from .metrics import MetricsRegistry

__all__ = ["Span", "SpanTracker"]

#: Bounds tuned for span-sized work: 0.1 ms .. 30 s.
SPAN_BUCKETS = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Span:
    """One timed block: a name, a duration, and child spans."""

    __slots__ = ("name", "start", "end", "children")

    def __init__(self, name: str):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.children: list["Span"] = []

    @property
    def duration(self) -> float:
        """Seconds between enter and exit (0.0 while still open)."""
        return max(self.end - self.start, 0.0) if self.end else 0.0

    def walk(self) -> Iterator[tuple[int, "Span"]]:
        """Depth-first (depth, span) pairs, self first."""
        stack: list[tuple[int, Span]] = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def render(self, unit: str = "ms") -> str:
        """An indented tree with per-span durations, for reports."""
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        lines = [
            f"{'  ' * depth}{node.name:<{max(1, 40 - 2 * depth)}} "
            f"{node.duration * scale:>10.3f} {unit}"
            for depth, node in self.walk()
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration:.6f}s, {len(self.children)} children)"


class _NullSpan:
    """Reusable do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class SpanTracker:
    """Owns the active-span contextvar and the recent-roots ring."""

    def __init__(self, registry: MetricsRegistry, max_roots: int = 256):
        self._registry = registry
        self._histogram = registry.histogram(
            "repro_span_duration_seconds",
            "Wall-clock duration of instrumented spans.",
            labels=("span",),
            buckets=SPAN_BUCKETS,
        )
        self._current: ContextVar[Span | None] = ContextVar("repro_obs_span", default=None)
        self.roots: deque[Span] = deque(maxlen=max_roots)

    @property
    def current(self) -> Span | None:
        """The innermost open span in this context, if any."""
        return self._current.get()

    def span(self, name: str):
        """Context manager timing a block as a child of the active span."""
        if not self._registry.enabled:
            return _NULL_SPAN
        return self._record(name)

    @contextmanager
    def _record(self, name: str):
        node = Span(name)
        parent = self._current.get()
        token = self._current.set(node)
        node.start = time.perf_counter()
        try:
            yield node
        finally:
            node.end = time.perf_counter()
            self._current.reset(token)
            if parent is None:
                self.roots.append(node)
            else:
                parent.children.append(node)
            self._histogram.labels(span=name).observe(node.duration)

    def clear(self) -> None:
        self.roots.clear()
