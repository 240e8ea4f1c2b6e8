"""Self-observability: metrics, spans, and exporters for the system itself.

The workflow monitors VNFs through a Prometheus-shaped stack; this package
applies the same discipline to the system's own behaviour. A process-global
:class:`Observability` object owns a metric registry (Counter / Gauge /
Histogram, all named ``repro_*``) and a nesting span timer; two exporters
take the data out — Prometheus text exposition, and a
:class:`TSDBExporter` that scrapes the registry into the in-repo
:class:`~repro.workflow.tsdb.TimeSeriesDB` so self-metrics are queryable
through :mod:`repro.workflow.promql`::

    from repro.obs import get_observability, span, TSDBExporter

    obs = get_observability()
    requests = obs.counter("repro_requests_total", "Requests served.")
    with span("serve.request"):
        requests.inc()

    exporter = TSDBExporter(obs.registry, interval=15.0)
    exporter.tick()                      # scrape at simulated t=15s
    print(render_prometheus(obs.registry))  # Prometheus text format

Everything is zero-cost when disabled (``with obs.disabled():``): mutators
become a flag check, spans become a shared no-op context manager.
"""

from .export import TSDBExporter, render_prometheus
from .metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramTimer,
    MetricSample,
    MetricsRegistry,
)
from .observability import Observability, get_observability
from .spans import Span, SpanTracker

__all__ = [
    "Observability",
    "get_observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramTimer",
    "MetricSample",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "Span",
    "SpanTracker",
    "span",
    "render_prometheus",
    "TSDBExporter",
]


def span(name: str):
    """Time a block against the process-global observability instance."""
    return get_observability().span(name)
