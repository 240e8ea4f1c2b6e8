"""Counter/Gauge/Histogram semantics and registry behaviour."""

import math

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


def _bucket_counts(histogram):
    """The ``_bucket`` sample values, ending with the +Inf total."""
    return [
        int(sample.value) for sample in histogram.samples() if sample.name.endswith("_bucket")
    ]


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        counter = registry.counter("repro_things_total", "Things.")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("repro_things_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_disabled_registry_makes_inc_a_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("repro_things_total")
        counter.inc(100)
        assert counter.value == 0.0
        registry.enabled = True
        counter.inc()
        assert counter.value == 1.0

    def test_invalid_metric_name_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad name!")


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("repro_live_things", "Live things.")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0

    def test_gauge_can_go_negative(self, registry):
        gauge = registry.gauge("repro_live_things")
        gauge.dec(4)
        assert gauge.value == -4.0


class TestLabels:
    def test_children_are_independent(self, registry):
        counter = registry.counter("repro_writes_total", "Writes.", labels=("db",))
        counter.labels(db="a").inc()
        counter.labels(db="a").inc()
        counter.labels(db="b").inc(7)
        assert counter.labels(db="a").value == 2.0
        assert counter.labels(db="b").value == 7.0

    def test_labels_must_match_declared_names(self, registry):
        counter = registry.counter("repro_writes_total", labels=("db",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.labels(shard="a")
        with pytest.raises(ValueError, match="takes labels"):
            counter.labels()

    def test_mutating_a_labelled_family_directly_raises(self, registry):
        counter = registry.counter("repro_writes_total", labels=("db",))
        with pytest.raises(ValueError, match="labelled family"):
            counter.inc()

    def test_samples_cover_all_children_sorted(self, registry):
        gauge = registry.gauge("repro_sizes", labels=("db",))
        gauge.labels(db="zeta").set(1)
        gauge.labels(db="alpha").set(2)
        samples = list(gauge.samples())
        assert [s.labels["db"] for s in samples] == ["alpha", "zeta"]
        assert [s.value for s in samples] == [2.0, 1.0]

    def test_invalid_label_name_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("repro_x_total", labels=("0bad",))


class TestHistogram:
    def test_observations_land_in_correct_buckets(self, registry):
        histogram = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert _bucket_counts(histogram) == [1, 2, 3, 4]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(55.55)

    def test_boundary_value_falls_in_its_le_bucket(self, registry):
        histogram = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.1)  # le="0.1" is inclusive
        assert _bucket_counts(histogram) == [1, 1, 1]

    def test_bucket_samples_are_cumulative_with_inf(self, registry):
        histogram = registry.histogram("repro_lat_seconds", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        histogram.observe(99.0)
        samples = {
            (s.name, s.labels.get("le")): s.value for s in histogram.samples()
        }
        assert samples[("repro_lat_seconds_bucket", "1")] == 1.0
        assert samples[("repro_lat_seconds_bucket", "2")] == 2.0
        assert samples[("repro_lat_seconds_bucket", "+Inf")] == 3.0
        assert samples[("repro_lat_seconds_sum", None)] == pytest.approx(101.0)
        assert samples[("repro_lat_seconds_count", None)] == 3.0

    def test_non_increasing_bounds_rejected(self, registry):
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("repro_lat_seconds", buckets=(1.0, 1.0, 2.0))

    def test_explicit_inf_bound_is_stripped(self, registry):
        histogram = registry.histogram(
            "repro_lat_seconds", buckets=(1.0, math.inf)
        )
        assert histogram.bounds == (1.0,)

    def test_labelled_histogram_children_keep_bounds(self, registry):
        histogram = registry.histogram(
            "repro_lat_seconds", labels=("stage",), buckets=(1.0, 2.0)
        )
        child = histogram.labels(stage="fit")
        child.observe(1.5)
        assert child.bounds == (1.0, 2.0)
        assert _bucket_counts(child) == [0, 1, 1]


class TestRegistry:
    def test_registration_is_idempotent(self, registry):
        first = registry.counter("repro_x_total", "X.")
        second = registry.counter("repro_x_total", "X.")
        assert first is second

    def test_kind_mismatch_raises(self, registry):
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x_total")

    def test_label_mismatch_raises(self, registry):
        registry.counter("repro_x_total", labels=("db",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("repro_x_total", labels=("shard",))

    def test_bucket_mismatch_raises(self, registry):
        registry.histogram("repro_x_seconds", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="different buckets"):
            registry.histogram("repro_x_seconds", buckets=(1.0, 3.0))
        assert registry.histogram("repro_x_seconds", buckets=(1.0, 2.0)) is not None

    def test_default_buckets_used_when_unspecified(self, registry):
        histogram = registry.histogram("repro_x_seconds")
        assert histogram.bounds == DEFAULT_BUCKETS

    def test_get_and_names(self, registry):
        registry.counter("repro_b_total")
        registry.gauge("repro_a")
        assert registry.names() == ["repro_a", "repro_b_total"]
        assert isinstance(registry.get("repro_b_total"), Counter)
        assert isinstance(registry.get("repro_a"), Gauge)
        with pytest.raises(KeyError, match="no metric registered"):
            registry.get("repro_missing")

    def test_reset_zeroes_values_but_keeps_handles(self, registry):
        counter = registry.counter("repro_x_total")
        gauge = registry.gauge("repro_y", labels=("db",))
        histogram = registry.histogram("repro_z_seconds", buckets=(1.0,))
        counter.inc(3)
        child = gauge.labels(db="a")
        child.set(9)
        histogram.observe(0.5)
        registry.reset()
        assert counter.value == 0.0
        assert child.value == 0.0  # the pre-reset handle still works
        assert histogram.count == 0
        child.set(1)
        assert gauge.labels(db="a").value == 1.0

    def test_registry_samples_span_all_families(self, registry):
        registry.counter("repro_x_total").inc()
        registry.gauge("repro_y").set(2)
        names = {sample.name for sample in registry.samples()}
        assert names == {"repro_x_total", "repro_y"}

    def test_histogram_instance_check(self, registry):
        assert isinstance(registry.histogram("repro_h_seconds"), Histogram)
