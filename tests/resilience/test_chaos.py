"""Unit tests for seeded chaos injection and the dead-letter store."""

import numpy as np
import pytest

from repro.obs import get_observability
from repro.resilience import (
    ChaosProfile,
    DeadLetterRecord,
    DeadLetterStore,
    FlakyTSDB,
    TransientTSDBError,
)

_OBS = get_observability()


def _stream(n=200, n_series=4, seed=0):
    rng = np.random.default_rng(seed)
    timestamps = 100.0 * np.arange(n, dtype=np.float64)
    rows = rng.normal(size=(n, n_series))
    return timestamps, rows


class TestChaosProfile:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="drop_rate"):
            ChaosProfile(drop_rate=1.5)
        with pytest.raises(ValueError, match="outage_rate"):
            ChaosProfile(outage_rate=-0.1)

    def test_zero_profile_is_identity_on_scrapes(self):
        timestamps, rows = _stream()
        out_t, out_rows = ChaosProfile(seed=1).corrupt_scrape("k", timestamps, rows)
        assert np.array_equal(out_t, timestamps)
        assert np.array_equal(out_rows, rows)

    def test_corrupt_scrape_is_deterministic_per_key(self):
        profile = ChaosProfile(
            seed=3, drop_rate=0.1, duplicate_rate=0.05, reorder_rate=0.05, nan_rate=0.05
        )
        timestamps, rows = _stream()
        t1, r1 = profile.corrupt_scrape("env-1", timestamps, rows)
        t2, r2 = profile.corrupt_scrape("env-1", timestamps, rows)
        assert np.array_equal(t1, t2)
        assert np.array_equal(r1, r2, equal_nan=True)
        # a different key draws an independent stream
        t3, _ = profile.corrupt_scrape("env-2", timestamps, rows)
        assert not np.array_equal(t1, t3)

    def test_corrupt_scrape_rates_are_approximately_honoured(self):
        profile = ChaosProfile(seed=9, drop_rate=0.2)
        timestamps, rows = _stream(n=2000)
        out_t, _ = profile.corrupt_scrape("k", timestamps, rows)
        dropped = len(timestamps) - len(out_t)
        assert 0.1 < dropped / len(timestamps) < 0.3

    def test_corrupt_scrape_injects_every_kind(self):
        _OBS.reset()
        profile = ChaosProfile(
            seed=5, drop_rate=0.1, duplicate_rate=0.1, reorder_rate=0.1, nan_rate=0.1
        )
        timestamps, rows = _stream(n=500)
        out_t, out_rows = profile.corrupt_scrape("k", timestamps, rows)
        injected = _OBS.counter("repro_chaos_injected_total", labels=("kind",))
        for kind in ("drop", "duplicate", "reorder", "nan"):
            assert injected.labels(kind=kind).value > 0, kind
        assert np.isnan(out_rows).any()
        # duplicates netted against drops change the delivered length
        assert len(out_t) != len(timestamps) or len(set(out_t)) != len(out_t)

    def test_corrupt_scrape_rejects_misaligned_input(self):
        profile = ChaosProfile()
        with pytest.raises(ValueError):
            profile.corrupt_scrape("k", np.arange(3.0), np.zeros((4, 2)))

    def test_outage_and_divergence_are_deterministic(self):
        profile = ChaosProfile(seed=2, outage_rate=0.3, training_divergence_rate=0.3)
        outages = [profile.outage(f"env-{i}") for i in range(50)]
        assert outages == [profile.outage(f"env-{i}") for i in range(50)]
        assert any(outages) and not all(outages)
        diverges = [profile.training_diverges(day) for day in range(50)]
        assert diverges == [profile.training_diverges(day) for day in range(50)]
        assert any(diverges) and not all(diverges)

    def test_independent_fault_streams(self):
        """Changing one rate must not reshuffle another kind's decisions."""
        timestamps, rows = _stream()
        a = ChaosProfile(seed=7, drop_rate=0.2)
        b = ChaosProfile(seed=7, drop_rate=0.2, outage_rate=0.9)
        t_a, _ = a.corrupt_scrape("k", timestamps, rows)
        t_b, _ = b.corrupt_scrape("k", timestamps, rows)
        assert np.array_equal(t_a, t_b)


class _RecordingTSDB:
    """Minimal duck-typed TSDB standing in for the workflow one."""

    name = "recording"

    def __init__(self):
        self.writes = []

    def write(self, *args):
        self.writes.append(("write", args))

    def write_array(self, *args):
        self.writes.append(("write_array", args))

    def metrics(self):
        return ["m"]


class TestFlakyTSDB:
    def test_zero_rate_returns_the_tsdb_unwrapped(self):
        tsdb = _RecordingTSDB()
        assert ChaosProfile().flaky(tsdb) is tsdb

    def test_failures_happen_before_the_write_lands(self):
        tsdb = _RecordingTSDB()
        flaky = ChaosProfile(seed=11, tsdb_failure_rate=0.5).flaky(tsdb)
        assert isinstance(flaky, FlakyTSDB)
        failures = successes = 0
        for i in range(100):
            before = len(tsdb.writes)
            try:
                flaky.write_array("m", {}, i, float(i))
            except TransientTSDBError:
                failures += 1
                assert len(tsdb.writes) == before  # never double-writes
            else:
                successes += 1
                assert len(tsdb.writes) == before + 1
        assert failures > 0 and successes > 0
        assert flaky.failures_injected == failures

    def test_reads_pass_through(self):
        tsdb = _RecordingTSDB()
        flaky = FlakyTSDB(tsdb, ChaosProfile(seed=1, tsdb_failure_rate=1.0))
        assert flaky.metrics() == ["m"]  # not a write: never fails
        assert flaky.name == "recording"


class TestDeadLetterStore:
    def test_add_and_lookup(self):
        store = DeadLetterStore()
        record = store.add("env-1", "gap_too_long", detail="9 samples", day=3)
        assert record == DeadLetterRecord("env-1", "gap_too_long", "9 samples", 3)
        assert "env-1" in store
        assert "env-2" not in store
        assert len(store) == 1
        assert store.get("env-1").reason == "gap_too_long"

    def test_re_adding_overwrites(self):
        store = DeadLetterStore()
        store.add("env-1", "gap_too_long")
        store.add("env-1", "collector_outage")
        assert len(store) == 1
        assert store.get("env-1").reason == "collector_outage"

    def test_records_filter_and_reasons_histogram(self):
        store = DeadLetterStore()
        store.add("a", "outage")
        store.add("b", "outage")
        store.add("c", "gap_too_long")
        assert [r.key for r in store.records()] == ["a", "b", "c"]
        assert [r.key for r in store.records(reason="outage")] == ["a", "b"]

    def test_empty_key_or_reason_rejected(self):
        store = DeadLetterStore()
        with pytest.raises(ValueError):
            store.add("", "reason")
        with pytest.raises(ValueError):
            store.add("key", "")

    def test_metrics_emitted_but_not_on_restore(self):
        _OBS.reset()
        counter = _OBS.counter("repro_resilience_dead_letters_total", labels=("reason",))
        size = _OBS.gauge("repro_resilience_dead_letter_size")
        store = DeadLetterStore()
        store.add("a", "outage")
        assert counter.labels(reason="outage").value == 1
        assert size.value == 1
        restored = DeadLetterStore()
        restored.restore(store.records())
        assert counter.labels(reason="outage").value == 1  # no double count
        assert size.value == 1
        assert restored.get("a") == store.get("a")


class TestWorkerChaos:
    def test_worker_rates_validated(self):
        with pytest.raises(ValueError, match="worker_kill_rate"):
            ChaosProfile(worker_kill_rate=1.5)
        with pytest.raises(ValueError, match="worker_stall_rate"):
            ChaosProfile(worker_stall_rate=-0.1)

    def test_worker_draws_deterministic_per_key(self):
        profile = ChaosProfile(seed=7, worker_kill_rate=0.3, worker_stall_rate=0.3)
        replay = ChaosProfile(seed=7, worker_kill_rate=0.3, worker_stall_rate=0.3)
        kills = [profile.worker_kill(batch_id) for batch_id in range(100)]
        stalls = [profile.worker_stall(batch_id) for batch_id in range(100)]
        assert kills == [replay.worker_kill(batch_id) for batch_id in range(100)]
        assert stalls == [replay.worker_stall(batch_id) for batch_id in range(100)]
        # Distinct streams: the kill draw for a key must not decide the
        # stall draw for the same key.
        assert kills != stalls
        assert 10 < sum(kills) < 60

    def test_zero_rates_never_fire(self):
        profile = ChaosProfile(seed=7)
        assert not any(profile.worker_kill(i) for i in range(50))
        assert not any(profile.worker_stall(i) for i in range(50))

    def test_rate_one_always_fires(self):
        profile = ChaosProfile(seed=7, worker_kill_rate=1.0, worker_stall_rate=1.0)
        assert all(profile.worker_kill(i) for i in range(10))
        assert all(profile.worker_stall(i) for i in range(10))
