"""Prometheus text exposition and the TSDB dogfood exporter."""

import pytest

from repro.obs import MetricsRegistry, TSDBExporter, render_prometheus
from repro.workflow.tsdb import TimeSeriesDB


@pytest.fixture()
def registry():
    registry = MetricsRegistry()
    registry.counter("repro_requests_total", "Requests served.").inc(3)
    registry.gauge("repro_queue_depth", "Queue depth.").set(7)
    return registry


class TestPrometheusExposition:
    def test_help_type_and_sample_lines(self, registry):
        text = render_prometheus(registry)
        assert "# HELP repro_requests_total Requests served." in text
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 3" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 7" in text
        assert text.endswith("\n")

    def test_labelled_samples_render_label_pairs(self, registry):
        registry.counter("repro_writes_total", labels=("db",)).labels(db="a").inc()
        text = render_prometheus(registry)
        assert 'repro_writes_total{db="a"} 1' in text

    def test_label_values_are_escaped(self, registry):
        counter = registry.counter("repro_odd_total", labels=("tag",))
        counter.labels(tag='quo"te\\back\nline').inc()
        text = render_prometheus(registry)
        assert 'repro_odd_total{tag="quo\\"te\\\\back\\nline"} 1' in text

    def test_histogram_exposes_bucket_sum_count(self, registry):
        histogram = registry.histogram("repro_lat_seconds", "Latency.", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        text = render_prometheus(registry)
        assert "# TYPE repro_lat_seconds histogram" in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_sum 5.05" in text
        assert "repro_lat_seconds_count 2" in text

    def test_non_integer_values_keep_precision(self, registry):
        registry.gauge("repro_ratio").set(0.125)
        assert "repro_ratio 0.125" in render_prometheus(registry)


class TestTSDBExporter:
    def test_scrape_writes_prefixed_samples(self, registry):
        registry.counter("other_total").inc()  # outside the repro_ namespace
        exporter = TSDBExporter(registry, tsdb=TimeSeriesDB(name="obs-test"))
        written = exporter.scrape(at=100.0)
        assert written == 2  # the two repro_* samples only
        tsdb = exporter.tsdb
        assert tsdb.metrics() == ["repro_queue_depth", "repro_requests_total"]
        series = tsdb.query_one("repro_requests_total")
        assert series.timestamps == [100.0]
        assert series.values == [3.0]

    def test_scrapes_accumulate_series_history(self, registry):
        exporter = TSDBExporter(registry, tsdb=TimeSeriesDB(name="obs-test"))
        exporter.scrape(at=10.0)
        registry.get("repro_requests_total").inc(2)
        exporter.scrape(at=20.0)
        series = exporter.tsdb.query_one("repro_requests_total")
        assert series.values == [3.0, 5.0]

    def test_scrape_time_must_advance(self, registry):
        exporter = TSDBExporter(registry, tsdb=TimeSeriesDB(name="obs-test"))
        exporter.scrape(at=10.0)
        with pytest.raises(ValueError, match="must advance"):
            exporter.scrape(at=10.0)
        with pytest.raises(ValueError, match="must advance"):
            exporter.scrape(at=5.0)

    def test_tick_advances_by_interval(self, registry):
        exporter = TSDBExporter(registry, tsdb=TimeSeriesDB(name="obs-test"), interval=15.0)
        assert exporter.tick() == 15.0
        assert exporter.tick() == 30.0
        assert exporter.last_scrape == 30.0

    def test_invalid_interval_rejected(self, registry):
        with pytest.raises(ValueError, match="interval"):
            TSDBExporter(registry, tsdb=TimeSeriesDB(name="obs-test"), interval=0.0)

    def test_default_tsdb_is_lazily_constructed(self, registry):
        exporter = TSDBExporter(registry)
        assert exporter.tsdb.name == "observability"
