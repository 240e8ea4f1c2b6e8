"""Property-based tests on workflow substrate invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Environment
from repro.workflow import AlarmStore, EMRegistry, ModelStore, TimeSeriesDB

label_values = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8
)


class TestTSDBProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(label_values, label_values),
            min_size=1,
            max_size=20,
        )
    )
    def test_property_sample_conservation(self, writes):
        """Total samples written == total samples stored, regardless of how
        writes are distributed over (metric, label) combinations."""
        db = TimeSeriesDB()
        clocks: dict[tuple, float] = {}
        for metric, env in writes:
            key = (metric, env)
            clocks[key] = clocks.get(key, 0.0) + 1.0
            db.write(metric, {"env": env}, clocks[key], 1.0)
        assert db.n_samples() == len(writes)
        # Every series is recoverable through its exact label match.
        total = 0
        for metric, env in {(m, e) for m, e in writes}:
            series = db.query_one(metric, {"env": env})
            total += len(series)
        assert total == len(writes)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=2, max_size=30, unique=True),
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=50.001, max_value=120.0),
    )
    def test_property_range_query_is_filter(self, timestamps, start, end):
        """Series.range returns exactly the samples with start <= t < end."""
        timestamps = sorted(timestamps)
        db = TimeSeriesDB()
        for t in timestamps:
            db.write("cpu", {"env": "a"}, t, t * 2)
        ranged = db.query_one("cpu", {"env": "a"}).range(start, end)
        expected = [t for t in timestamps if start <= t < end]
        np.testing.assert_allclose(ranged.timestamps, expected)


class TestAlarmStoreProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=1, max_value=20),
                st.sampled_from(["Testbed_01", "Testbed_02", "Testbed_03"]),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_property_fetch_partitions_by_testbed(self, alarms):
        """Per-testbed fetches partition the full alarm set."""
        with AlarmStore() as store:
            for start, length, testbed in alarms:
                env = Environment(testbed, "SUT_A", "Testcase_Load", "Build_S01")
                store.push(env, start, start + length, 1.0, 2.0)
            per_testbed = sum(
                len(store.fetch(testbed=tb))
                for tb in ("Testbed_01", "Testbed_02", "Testbed_03")
            )
            assert per_testbed == store.count() == len(alarms)


class TestModelStoreProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=10))
    def test_property_latest_is_last_published(self, blobs):
        store = ModelStore()
        for blob in blobs:
            store.publish(blob)
        latest, version = store.fetch_latest()
        assert latest == blobs[-1]
        assert version.version == len(blobs)
        # Every historical version remains fetchable and intact.
        for i, blob in enumerate(blobs, start=1):
            stored, _ = store.fetch(i)
            assert stored == blob


class TestEMRegistryProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(label_values, label_values),
            min_size=1,
            max_size=20,
        )
    )
    def test_property_register_is_injective(self, pairs):
        """Distinct environments get distinct ids; equal ones share an id."""
        registry = EMRegistry()
        ids = {}
        for testbed, build in pairs:
            env = Environment(f"T_{testbed}", "SUT_A", "Testcase_Load", f"B_{build}")
            record = registry.register(env)
            if env in ids:
                assert ids[env] == record
            ids[env] = record
            assert registry.lookup(record) == env
        assert len(registry) == len(ids)
