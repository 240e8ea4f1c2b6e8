"""The benchmark's percentile rule and its due-time latency accounting."""

import asyncio
import time
from types import SimpleNamespace

import numpy as np
import pytest

from e2e.loadgen import (
    closed_loop,
    highest_supported_percentile,
    open_loop,
    percentile,
    summarize,
    tail_count,
)
from repro.serve import ServiceOverloaded, run_load


class _Stream:
    """Fresh request objects, each with its own execution stand-in."""

    def __init__(self):
        self.sent = 0

    def next(self):
        self.sent += 1
        return SimpleNamespace(execution=object(), request_id=str(self.sent)), self.sent


class _StallingClient:
    """Answers at once, except one request that blocks the loop."""

    def __init__(self, stall_at: int, stall_s: float):
        self.calls = 0
        self.stall_at = stall_at
        self.stall_s = stall_s

    async def predict(self, request):
        self.calls += 1
        if self.calls == self.stall_at:
            time.sleep(self.stall_s)  # a synchronous stall freezes the event loop
        return SimpleNamespace(status="ok")


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert highest_supported_percentile(99) is None
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(999) == 90.0
    assert highest_supported_percentile(1000) == 99.0
    assert highest_supported_percentile(10_000) == 99.9
    assert tail_count(100, 90.0) == 10
    assert tail_count(1000, 99.9) == 1


def test_summary_reports_ms_and_its_sample_count():
    samples = np.linspace(0.001, 0.1, 500)
    summary = summarize(samples)
    assert summary["n"] == 500
    assert summary["p50_ms"] == pytest.approx(percentile(samples, 50) * 1e3)
    assert summary["p50_ms"] < summary["p90_ms"] < summary["p99_ms"]
    assert summary["highest_supported_percentile"] == 90.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_latency_counts_from_due_time_so_a_stall_shows():
    """A 50 ms stall delays every request due during it.

    Timed from the due time (this benchmark), the delayed requests read
    tens of milliseconds; timed from the actual submit
    (``repro.serve.loadgen.run_load``), only the stalled request does.
    """
    stall_s = 0.05
    offsets = np.arange(100) * 0.001

    async def due_timed():
        return await open_loop(_StallingClient(10, stall_s), _Stream(), offsets)

    async def submit_timed():
        stream = _Stream()
        requests = [stream.next()[0] for _ in offsets]
        return await run_load(_StallingClient(10, stall_s), requests, offsets, max_retries=0)

    due = asyncio.run(due_timed())
    submit = asyncio.run(submit_timed())
    assert due.sent == due.ok == 100
    slow_due = sum(latency > 0.02 for latency in due.latencies)
    slow_submit = sum(latency > 0.02 for latency in submit.latencies)
    assert slow_due >= 20, f"only {slow_due} requests show the stall"
    assert slow_submit <= 1
    assert max(due.lateness) >= 0.03


def test_failures_count_against_attempts():
    class _Flaky:
        def __init__(self):
            self.calls = 0

        async def predict(self, request):
            self.calls += 1
            if self.calls % 3 == 0:
                raise ServiceOverloaded("full", retry_after=0.0)
            if self.calls % 3 == 1:
                return SimpleNamespace(status="skipped")
            return SimpleNamespace(status="ok")

    outcome = asyncio.run(closed_loop(_Flaky(), _Stream(), n_clients=4, duration=0.05))
    assert outcome.sent == outcome.ok + outcome.failed
    assert outcome.rejected > 0
    assert outcome.failed > outcome.rejected  # "skipped" is a failure too
    assert outcome.completed_in_window <= outcome.ok
