"""Testbed data collection (paper §3, workflow step 1).

The testing engineer schedules a test-case execution; the metric collector
monitors the workload metrics, VNF performance metrics, and resource
utilization, links them to the environment metadata, and pushes everything
into the TSDB. Here the "live testbed" is a
:class:`~repro.data.chains.TestExecution` replayed sample by sample.

The collector is the workflow's first line of graceful degradation. A live
scrape stream is lossy — samples arrive late, twice, or never, and the
TSDB itself can refuse a write — so collection runs a repair ladder rather
than assuming clean input:

1. **sanitize** the delivered stream: re-sort out-of-order samples, drop
   duplicate timestamps, and drop NaN-poisoned rows (each dropped row
   becomes a *gap*, never a crash);
2. **retry** TSDB writes under a :class:`~repro.resilience.Retry` policy
   (transient failures back off and re-attempt; exhaustion propagates
   :class:`~repro.resilience.RetryExhausted` for the caller to quarantine);
3. **impute** short gaps on read-back by linear interpolation over the
   expected sample grid, and **quarantine** the execution
   (:class:`~repro.resilience.ExecutionQuarantined`) when gaps are too
   long or too numerous to trust.

Attach a :class:`~repro.resilience.ChaosProfile` to simulate the lossy
testbed; without one the ladder is pass-through and collection behaves
exactly as the clean replay always did.
"""

from __future__ import annotations

import numpy as np

from ..data.chains import TestExecution
from ..obs import get_observability
from ..resilience import ChaosProfile, ExecutionQuarantined, Retry
from .discovery import EMRegistry, ServiceDiscovery
from .tsdb import SeriesNotFound, TimeSeriesDB

__all__ = ["MetricCollector", "RU_METRIC", "SAMPLE_INTERVAL_SECONDS"]

#: §4.2.1 — the telecom corpus is "measured at 15 minute intervals".
SAMPLE_INTERVAL_SECONDS = 15 * 60

#: Metric name under which resource utilization (the target) is stored.
RU_METRIC = "cpu_usage"

#: Largest fraction of an execution's samples read-back will impute;
#: past it the execution is quarantined.
MAX_MISSING_FRACTION = 0.5

_OBS = get_observability()
_M_SAMPLES = _OBS.counter(
    "repro_samples_ingested_total",
    "Samples written into the workload TSDB by the metric collector.",
)
_M_SERIES = _OBS.counter(
    "repro_series_ingested_total",
    "Series written per collected execution (features + RU).",
)
_M_EXECUTIONS = _OBS.counter(
    "repro_executions_collected_total",
    "Test executions replayed into the TSDB.",
)
_M_REPAIRS = _OBS.counter(
    "repro_resilience_scrape_repairs_total",
    "Scrape-stream repairs performed by the collector's sanitizer.",
    labels=("repair",),
)
_M_GAPS = _OBS.counter(
    "repro_resilience_gap_samples_total",
    "Expected scrape rows missing after sanitization (gap-marked).",
)
_M_IMPUTED = _OBS.counter(
    "repro_resilience_imputed_samples_total",
    "Gap samples filled by linear interpolation on read-back.",
)


def _longest_run(mask: np.ndarray) -> int:
    """Length of the longest run of True in a boolean vector."""
    longest = current = 0
    for hit in mask:
        current = current + 1 if hit else 0
        longest = max(longest, current)
    return longest


class MetricCollector:
    """Replays test executions into a TSDB with EM labels attached.

    ``max_gap`` bounds the longest consecutive gap (in samples) that
    read-back will impute; :data:`MAX_MISSING_FRACTION` bounds the total
    fraction of missing samples. Past either bound the execution is
    quarantined rather than reconstructed from guesswork. Every TSDB
    write goes through one ``Retry(max_attempts=5)`` policy.
    """

    def __init__(
        self,
        tsdb: TimeSeriesDB,
        registry: EMRegistry,
        discovery: ServiceDiscovery | None = None,
        feature_names: list[str] | None = None,
        interval: float = SAMPLE_INTERVAL_SECONDS,
        chaos: ChaosProfile | None = None,
        max_gap: int = 5,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if max_gap < 1:
            raise ValueError("max_gap must be >= 1")
        self.chaos = chaos
        self.tsdb = chaos.flaky(tsdb) if chaos is not None else tsdb
        self.registry = registry
        self.discovery = discovery
        self.feature_names = feature_names
        self.interval = interval
        self.retry = Retry(max_attempts=5, name="tsdb-write")
        self.max_gap = max_gap
        self._next_port = 9100
        # Expected sample grid per collected execution:
        # (start_time, n, complete). ``complete`` records that sanitization
        # delivered all n rows, letting read-back skip grid alignment.
        self._expected: dict[str, tuple[float, int, bool]] = {}

    @staticmethod
    def _sanitize(
        timestamps: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Repair one delivered scrape stream: resort, dedupe, drop NaN rows."""
        timestamps = np.asarray(timestamps, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.float64)
        if len(timestamps) > 1:
            deltas = np.diff(timestamps)
            inversions = int((deltas < 0).sum())
            if inversions:
                order = np.argsort(timestamps, kind="stable")
                timestamps, rows = timestamps[order], rows[order]
                _M_REPAIRS.labels(repair="resort").inc(inversions)
                deltas = np.diff(timestamps)
            # A strictly increasing stream has no duplicates; only pay for
            # the dedupe sort when equal adjacent timestamps prove it's
            # needed (the clean path must stay cheap).
            if (deltas == 0).any():
                unique, first = np.unique(timestamps, return_index=True)
                _M_REPAIRS.labels(repair="dedupe").inc(len(timestamps) - len(unique))
                timestamps, rows = unique, rows[first]
        poisoned = np.isnan(rows).any(axis=1)
        if poisoned.any():
            _M_REPAIRS.labels(repair="nan_drop").inc(int(poisoned.sum()))
            timestamps, rows = timestamps[~poisoned], rows[~poisoned]
        return timestamps, rows

    def collect(self, execution: TestExecution, start_time: float = 0.0) -> str:
        """Ingest a whole execution; returns its EM record id.

        Writes one series per contextual feature plus the RU series, all
        labelled with ``env=<EM record id>`` as in the paper's service
        discovery snippet, and registers a collector endpoint when a
        discovery config is attached. Under chaos the stream is corrupted,
        sanitized, and written with gaps where samples were lost; writes
        go through the retry policy either way.
        """
        with _OBS.span("collector.collect"):
            record_id = self.registry.register(execution.environment)
            if self.discovery is not None:
                endpoint = f"10.0.0.{self._next_port % 250 + 1}:{self._next_port}"
                self._next_port += 1
                self.discovery.add_target(endpoint, record_id)
            labels = {"env": record_id}
            n = execution.n_timesteps
            timestamps = start_time + self.interval * np.arange(n)
            names = self.feature_names or [
                f"feature_{i:02d}" for i in range(execution.features.shape[1])
            ]
            if len(names) != execution.features.shape[1]:
                raise ValueError(
                    f"{len(names)} feature names for {execution.features.shape[1]} feature columns"
                )
            rows = np.column_stack([execution.features, execution.cpu])
            if self.chaos is not None:
                # Only a chaotic stream can arrive out of order, duplicated,
                # or NaN-poisoned; the clean replay is grid-built right here,
                # so sanitization would be a no-op scan per execution.
                timestamps, rows = self.chaos.corrupt_scrape(record_id, timestamps, rows)
                timestamps, rows = self._sanitize(timestamps, rows)
            self._expected[record_id] = (float(start_time), n, len(timestamps) == n)
            if n > len(timestamps):
                _M_GAPS.inc(n - len(timestamps))
            call, write = self.retry.call, self.tsdb.write_array
            for column, name in enumerate(names):
                call(write, name, labels, timestamps, rows[:, column])
            call(write, RU_METRIC, labels, timestamps, rows[:, -1])
            _M_EXECUTIONS.inc()
            _M_SERIES.inc(len(names) + 1)
            _M_SAMPLES.inc(len(timestamps) * (len(names) + 1))
        return record_id

    def read_back(self, record_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Reconstruct (features, cpu) for an execution from the TSDB.

        This is what the prediction pipeline does in step 3: read the
        monitoring data of the running testbed back out of Prometheus.
        The stored samples are aligned against the expected grid; short
        gaps are imputed by linear interpolation, and executions whose
        gaps exceed ``max_gap`` consecutive samples (or
        :data:`MAX_MISSING_FRACTION` overall) raise
        :class:`~repro.resilience.ExecutionQuarantined`. A record id this
        collector never ingested raises
        :class:`~repro.workflow.tsdb.SeriesNotFound`.
        """
        expected = self._expected.get(record_id)
        if expected is None:
            raise SeriesNotFound(f"{record_id}: not collected by this collector")
        start, n, complete = expected
        tsdb = self.tsdb
        labels = {"env": record_id}
        names = self.feature_names or sorted(
            metric for metric in tsdb.metrics() if metric != RU_METRIC
        )
        if complete:
            # Sanitization delivered every expected row, so the stored
            # series *is* the grid — reconstruct exactly, no alignment.
            _, cpu = tsdb.query_one(RU_METRIC, labels).as_arrays()
            columns = [
                tsdb.query_one(name, labels).as_arrays()[1] for name in names
            ]
            return np.stack(columns, axis=1), cpu

        def aligned(metric: str) -> np.ndarray:
            stamps, values = tsdb.query_one(metric, labels).as_arrays()
            vector = np.full(n, np.nan)
            if len(stamps):
                idx = np.rint((stamps - start) / self.interval).astype(int)
                ok = (idx >= 0) & (idx < n)
                vector[idx[ok]] = values[ok]
            return vector

        cpu = aligned(RU_METRIC)
        columns = [aligned(name) for name in names]
        missing = np.isnan(cpu)
        for column in columns:
            missing |= np.isnan(column)
        n_missing = int(missing.sum())
        if n_missing:
            if n_missing == n:
                raise ExecutionQuarantined(
                    "all_samples_missing", f"{record_id}: no usable samples stored"
                )
            longest = _longest_run(missing)
            if longest > self.max_gap:
                raise ExecutionQuarantined(
                    "gap_too_long",
                    f"{record_id}: longest gap is {longest} samples (max_gap={self.max_gap})",
                )
            if n_missing / n > MAX_MISSING_FRACTION:
                raise ExecutionQuarantined(
                    "too_many_gaps",
                    f"{record_id}: {n_missing}/{n} samples missing "
                    f"(MAX_MISSING_FRACTION={MAX_MISSING_FRACTION})",
                )
            grid = np.arange(n, dtype=np.float64)
            present = ~missing
            cpu[missing] = np.interp(grid[missing], grid[present], cpu[present])
            for column in columns:
                column[missing] = np.interp(grid[missing], grid[present], column[present])
            _M_IMPUTED.inc(n_missing * (len(names) + 1))
        return np.stack(columns, axis=1), cpu
