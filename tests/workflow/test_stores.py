"""Alarm store and model store tests."""

import pytest

from repro.data import Environment
from repro.workflow import AlarmStore, ModelStore


def _env(build="Build_S01", testbed="Testbed_01"):
    return Environment(testbed, "SUT_A", "Testcase_Load", build)


class TestAlarmStore:
    def test_push_and_fetch(self):
        with AlarmStore() as store:
            alarm_id = store.push(_env(), 10, 20, peak_deviation=12.5, gamma=2.0)
            records = store.fetch()
            assert len(records) == 1
            record = records[0]
            assert record.alarm_id == alarm_id
            assert record.environment == _env()
            assert record.interval == (10, 20)
            assert record.peak_deviation == 12.5
            assert not record.acknowledged

    def test_fetch_filters(self):
        with AlarmStore() as store:
            store.push(_env(testbed="Testbed_01"), 0, 5, 1.0, 2.0)
            store.push(_env(testbed="Testbed_02"), 0, 5, 1.0, 2.0)
            store.push(_env(testbed="Testbed_02", build="Build_S02"), 0, 5, 1.0, 2.0)
            assert len(store.fetch(testbed="Testbed_02")) == 2
            assert len(store.fetch(build="Build_S02")) == 1
            assert len(store.fetch(environment=_env(testbed="Testbed_01"))) == 1
            assert store.count() == 3

    def test_acknowledge(self):
        with AlarmStore() as store:
            alarm_id = store.push(_env(), 0, 5, 1.0, 2.0)
            store.acknowledge(alarm_id)
            assert store.fetch()[0].acknowledged
            assert store.fetch(unacknowledged_only=True) == []
            with pytest.raises(KeyError):
                store.acknowledge(9999)

    def test_invalid_interval(self):
        with AlarmStore() as store:
            with pytest.raises(ValueError):
                store.push(_env(), 5, 5, 1.0, 2.0)
            with pytest.raises(ValueError):
                store.push(_env(), -1, 5, 1.0, 2.0)

    def test_push_many_equals_one_push_each(self):
        alarms = [
            (_env(), 3, 9, 4.5, 2.0),
            (_env(testbed="Testbed_02"), 0, 1, 7.25, 1.5),
            (_env(), 10, 12, 6.0, 2.0),
        ]
        with AlarmStore() as one_by_one, AlarmStore() as batched:
            for store in (one_by_one, batched):
                store.push(_env(build="Build_S00"), 1, 2, 1.0, 2.0)
            ids = [one_by_one.push(*alarm) for alarm in alarms]
            assert batched.push_many(alarms) == ids
            assert batched.fetch() == one_by_one.fetch()
            assert batched.push_many([]) == []
            assert batched.push(_env(), 0, 5, 1.0, 2.0) == one_by_one.push(_env(), 0, 5, 1.0, 2.0)
            assert batched.fetch() == one_by_one.fetch()

    def test_push_many_stores_nothing_when_one_alarm_is_bad(self):
        with AlarmStore() as store:
            with pytest.raises(ValueError):
                store.push_many([(_env(), 0, 5, 1.0, 2.0), (_env(), 5, 5, 1.0, 2.0)])
            assert store.count() == 0
            assert store.push(_env(), 0, 5, 1.0, 2.0) == 1
            assert store.fetch()[0].created_at == 1.0

    def test_should_terminate_counts_pending_alarms(self):
        with AlarmStore() as store:
            env = _env()
            store.push(env, 0, 5, 1.0, 2.0)
            assert not store.should_terminate(env, threshold=3, pending=1)
            assert store.should_terminate(env, threshold=3, pending=2)

    def test_should_terminate(self):
        with AlarmStore() as store:
            env = _env()
            assert not store.should_terminate(env, threshold=2)
            store.push(env, 0, 5, 1.0, 2.0)
            store.push(env, 10, 15, 1.0, 2.0)
            assert store.should_terminate(env, threshold=2)
            # Other environments don't count.
            assert not store.should_terminate(_env(build="Build_S09"), threshold=1)
            with pytest.raises(ValueError):
                store.should_terminate(env, threshold=0)

    def test_persistence_on_disk(self, tmp_path):
        path = tmp_path / "alarms.sqlite"
        with AlarmStore(path) as store:
            store.push(_env(), 0, 5, 1.0, 2.0)
        with AlarmStore(path) as reopened:
            assert reopened.count() == 1


class TestModelStore:
    def test_publish_and_fetch_latest(self):
        store = ModelStore()
        store.publish(b"model-v1", {"mae": 1.0})
        record = store.publish(b"model-v2", {"mae": 0.9})
        blob, version = store.fetch_latest()
        assert blob == b"model-v2"
        assert version.version == record.version == 2
        assert version.metadata == {"mae": 0.9}

    def test_fetch_specific_version(self):
        store = ModelStore()
        store.publish(b"v1")
        store.publish(b"v2")
        blob, version = store.fetch(1)
        assert blob == b"v1" and version.version == 1
        with pytest.raises(LookupError):
            store.fetch(99)

    def test_empty_store(self):
        with pytest.raises(LookupError):
            ModelStore().fetch_latest()

    def test_empty_blob_rejected(self):
        with pytest.raises(ValueError):
            ModelStore().publish(b"")

    def test_versions_listing(self):
        store = ModelStore()
        store.publish(b"a")
        store.publish(b"b")
        assert [v.version for v in store.versions()] == [1, 2]
        assert store.latest_version == 2

    def test_disk_persistence(self, tmp_path):
        store = ModelStore(tmp_path / "models")
        store.publish(b"payload", {"note": "x"})
        reopened = ModelStore(tmp_path / "models")
        blob, version = reopened.fetch_latest()
        assert blob == b"payload"
        assert version.version == 1
        assert version.metadata == {"note": "x"}
        # Publishing continues the version sequence.
        reopened.publish(b"next")
        assert reopened.latest_version == 2
