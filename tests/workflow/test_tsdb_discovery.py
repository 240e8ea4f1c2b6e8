"""TSDB, service discovery, and EM registry tests."""

import json

import numpy as np
import pytest

from repro.data import Environment
from repro.workflow import (
    AmbiguousSeries,
    EMRegistry,
    SeriesNotFound,
    ServiceDiscovery,
    TimeSeriesDB,
)


def _env(testbed="Testbed_01"):
    return Environment(testbed, "SUT_A", "Testcase_Load", "Build_S01")


class TestTimeSeriesDB:
    def test_write_and_query(self):
        db = TimeSeriesDB()
        db.write("cpu", {"env": "em-1"}, 0.0, 50.0)
        db.write("cpu", {"env": "em-1"}, 900.0, 52.0)
        series = db.query_one("cpu", {"env": "em-1"})
        timestamps, values = series.as_arrays()
        np.testing.assert_allclose(timestamps, [0.0, 900.0])
        np.testing.assert_allclose(values, [50.0, 52.0])

    def test_label_isolation(self):
        db = TimeSeriesDB()
        db.write("cpu", {"env": "em-1"}, 0.0, 50.0)
        db.write("cpu", {"env": "em-2"}, 0.0, 70.0)
        assert len(db.query("cpu")) == 2
        assert len(db.query("cpu", {"env": "em-1"})) == 1

    def test_query_one_requires_unique_match(self):
        db = TimeSeriesDB()
        db.write("cpu", {"env": "em-1"}, 0.0, 1.0)
        db.write("cpu", {"env": "em-2"}, 0.0, 1.0)
        with pytest.raises(LookupError):
            db.query_one("cpu")
        with pytest.raises(LookupError):
            db.query_one("cpu", {"env": "em-3"})

    def test_query_one_error_types_distinguish_failures(self):
        db = TimeSeriesDB()
        db.write("cpu", {"env": "em-1"}, 0.0, 1.0)
        db.write("cpu", {"env": "em-2"}, 0.0, 1.0)
        with pytest.raises(SeriesNotFound, match="no series matches"):
            db.query_one("cpu", {"env": "em-3"})
        with pytest.raises(AmbiguousSeries, match="add labels to disambiguate"):
            db.query_one("cpu")
        # Both stay LookupError subclasses for existing handlers.
        assert issubclass(SeriesNotFound, LookupError)
        assert issubclass(AmbiguousSeries, LookupError)

    def test_timestamps_strictly_increasing(self):
        db = TimeSeriesDB()
        db.write("cpu", {}, 10.0, 1.0)
        with pytest.raises(ValueError):
            db.write("cpu", {}, 10.0, 2.0)
        with pytest.raises(ValueError):
            db.write("cpu", {}, 5.0, 2.0)

    def test_write_array(self):
        db = TimeSeriesDB()
        db.write_array("mem", {"env": "a"}, np.arange(5.0), np.arange(5.0) * 2)
        assert len(db.query_one("mem", {"env": "a"})) == 5
        with pytest.raises(ValueError):
            db.write_array("mem", {"env": "b"}, np.arange(5.0), np.arange(4.0))

    def test_write_array_names_the_offending_timestamp(self):
        db = TimeSeriesDB()
        with pytest.raises(ValueError, match=r"timestamps\[2\] = 1\.0 does not advance"):
            db.write_array("mem", {}, np.array([0.0, 2.0, 1.0]), np.zeros(3))
        # A rejected batch writes nothing.
        assert db.n_samples() == 0

    def test_write_array_must_advance_past_existing_series(self):
        db = TimeSeriesDB()
        db.write("mem", {}, 10.0, 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            db.write_array("mem", {}, np.array([10.0, 11.0]), np.zeros(2))
        db.write_array("mem", {}, np.array([11.0, 12.0]), np.zeros(2))
        assert db.n_samples() == 3

    def test_series_range_is_half_open(self):
        """Boundary: range(start, end) includes a sample at exactly `start`
        and excludes one at exactly `end` — start-inclusive, end-exclusive."""
        db = TimeSeriesDB()
        db.write_array("cpu", {"env": "a"}, np.arange(5.0), np.arange(5.0) * 10)
        series = db.query_one("cpu", {"env": "a"})
        timestamps, values = series.range(1.0, 3.0).as_arrays()
        np.testing.assert_allclose(timestamps, [1.0, 2.0])
        np.testing.assert_allclose(values, [10.0, 20.0])
        # Degenerate and out-of-bounds windows are empty, never an error.
        assert len(series.range(2.0, 2.0)) == 0
        assert len(series.range(10.0, 20.0)) == 0
        # A window past both ends returns every sample.
        assert len(series.range(-1.0, 100.0)) == 5

    def test_introspection(self):
        db = TimeSeriesDB()
        db.write("cpu", {"env": "a"}, 0, 1)
        db.write("mem", {"env": "b"}, 0, 1)
        assert db.metrics() == ["cpu", "mem"]
        assert db.n_series() == 2
        assert db.n_samples() == 2

    def test_empty_metric_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesDB().write("", {}, 0, 1)


class TestEMRegistry:
    def test_register_idempotent(self):
        registry = EMRegistry()
        record_a = registry.register(_env())
        record_b = registry.register(_env())
        assert record_a == record_b
        assert len(registry) == 1

    def test_lookup_roundtrip(self):
        registry = EMRegistry()
        record = registry.register(_env())
        assert registry.lookup(record) == _env()
        assert record in registry

    def test_distinct_envs_distinct_ids(self):
        registry = EMRegistry()
        a = registry.register(_env("Testbed_01"))
        b = registry.register(_env("Testbed_02"))
        assert a != b

    def test_unknown_lookup(self):
        with pytest.raises(KeyError):
            EMRegistry().lookup("em-999999")


class TestServiceDiscovery:
    def test_paper_json_shape(self, tmp_path):
        config = tmp_path / "sd.json"
        discovery = ServiceDiscovery(config)
        discovery.add_target("10.0.0.1:9100", "em-000001")
        data = json.loads(config.read_text())
        assert data == [{"targets": ["10.0.0.1:9100"], "labels": {"env": "em-000001"}}]

    def test_add_remove(self, tmp_path):
        discovery = ServiceDiscovery(tmp_path / "sd.json")
        discovery.add_target("10.0.0.1:9100", "em-1")
        discovery.add_target("10.0.0.2:9100", "em-2")
        assert len(discovery) == 2

    def test_duplicate_endpoint_rejected(self, tmp_path):
        discovery = ServiceDiscovery(tmp_path / "sd.json")
        discovery.add_target("10.0.0.1:9100", "em-1")
        with pytest.raises(ValueError):
            discovery.add_target("10.0.0.1:9100", "em-2")

    def test_malformed_endpoint_rejected(self, tmp_path):
        discovery = ServiceDiscovery(tmp_path / "sd.json")
        with pytest.raises(ValueError):
            discovery.add_target("not-an-endpoint", "em-1")

    def test_reload_from_disk(self, tmp_path):
        path = tmp_path / "sd.json"
        first = ServiceDiscovery(path)
        first.add_target("10.0.0.1:9100", "em-1")
        second = ServiceDiscovery(path)
        assert second.targets() == [{"targets": ["10.0.0.1:9100"], "labels": {"env": "em-1"}}]

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "sd.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError):
            ServiceDiscovery(path)
