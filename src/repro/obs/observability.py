"""The process-global :class:`Observability` object.

Every instrumented module resolves its metric handles from one shared
instance (:func:`get_observability`) so that a
single scrape sees the whole system: collector ingestion, TSDB traffic,
pipeline latencies, campaign alarms, inference-engine cache behaviour.

Switching instrumentation off (the :meth:`Observability.disabled` block,
or ``Observability(enabled=False)``) turns every ``inc``/``set``/``observe``
into a flag check and every ``span(...)`` into a shared no-op context
manager — the hot paths stay within noise of uninstrumented code
(``benchmarks/bench_observability.py`` holds this to <2%).

The global instance is a singleton by design: handles cached at import
time in instrumented modules must stay valid for the life of the process.
Tests therefore isolate themselves with :meth:`Observability.reset` (zero
all values, drop recorded spans) rather than by swapping the object.
"""

from __future__ import annotations

from contextlib import contextmanager

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, DEFAULT_BUCKETS
from .spans import Span, SpanTracker

__all__ = ["Observability", "get_observability"]


class Observability:
    """Registry + span tracker behind one on/off switch."""

    def __init__(self, enabled: bool = True, max_roots: int = 256):
        self.registry = MetricsRegistry(enabled=enabled)
        self.spans = SpanTracker(self.registry, max_roots=max_roots)

    # -- switch ------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    @contextmanager
    def disabled(self):
        """Temporarily switch instrumentation off (benchmark baselines)."""
        previous = self.registry.enabled
        self.registry.enabled = False
        try:
            yield
        finally:
            self.registry.enabled = previous

    # -- registration (delegates) -----------------------------------------
    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Counter:
        return self.registry.counter(name, help, labels)

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Gauge:
        return self.registry.gauge(name, help, labels)

    def histogram(self, name: str, help: str = "", labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self.registry.histogram(name, help, labels, buckets)

    # -- spans -------------------------------------------------------------
    def span(self, name: str):
        """``with obs.span("predict.forward"): ...`` — see :mod:`.spans`."""
        return self.spans.span(name)

    @property
    def recent_spans(self) -> list[Span]:
        """Most recent completed root spans, oldest first."""
        return list(self.spans.roots)

    # -- isolation -----------------------------------------------------------
    def reset(self) -> None:
        """Zero all metric values and drop recorded spans.

        Registrations (and cached handles in instrumented modules) stay
        valid — this is the between-tests / between-benchmarks isolation
        primitive.
        """
        self.registry.reset()
        self.spans.clear()


#: The process-global instance every instrumented module shares.
_GLOBAL = Observability()


def get_observability() -> Observability:
    """The process-global :class:`Observability` singleton."""
    return _GLOBAL
