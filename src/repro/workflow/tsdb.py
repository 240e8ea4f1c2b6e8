"""An in-memory, label-indexed time-series database (Prometheus substitute).

Workflow step 1 (paper §3): workload metrics (WMs), VNF performance
metrics (PMs) and resource-utilization (RU) metrics "are linked to EM and
pulled into a real-time time-series database (TSDB), in our case,
Prometheus". This module provides the slice of Prometheus the Env2Vec
pipelines rely on: append-only series keyed by (metric name, label set),
exact-match label selectors, and range queries.

Lookup failures carry dedicated types — :class:`SeriesNotFound` and
:class:`AmbiguousSeries` (both ``LookupError`` subclasses) — so pipelines
can distinguish "nothing matched" from "the selector is underspecified".

Every instance reports its own traffic to :mod:`repro.obs` under a ``db``
label (``repro_tsdb_samples_written_total{db="default"}``, query counters,
series/sample gauges), which is how the observability exporter's dogfood
TSDB and the workload TSDB stay distinguishable in one registry.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from ..obs import get_observability

__all__ = [
    "Series",
    "SeriesNotFound",
    "AmbiguousSeries",
    "TimeSeriesDB",
]


class SeriesNotFound(LookupError):
    """A selector matched no series."""


class AmbiguousSeries(LookupError):
    """A selector expected to identify one series matched several."""


@dataclass
class Series:
    """One time series: a metric name, a label set, and ordered samples."""

    metric: str
    labels: dict[str, str]
    timestamps: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, timestamp: float, value: float) -> None:
        if self.timestamps and timestamp <= self.timestamps[-1]:
            raise ValueError(
                f"timestamps must be strictly increasing; got {timestamp} after {self.timestamps[-1]}"
            )
        self.timestamps.append(float(timestamp))
        self.values.append(float(value))

    def extend(self, timestamps: np.ndarray, values: np.ndarray) -> None:
        """Bulk-append pre-validated (strictly increasing) aligned arrays."""
        if len(timestamps) == 0:
            return
        if self.timestamps and timestamps[0] <= self.timestamps[-1]:
            raise ValueError(
                f"timestamps must be strictly increasing; series {self.metric}{self.labels} "
                f"already ends at {self.timestamps[-1]}, new batch starts at {timestamps[0]}"
            )
        self.timestamps.extend(timestamps.tolist())
        self.values.extend(values.tolist())

    def __len__(self) -> int:
        return len(self.timestamps)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.timestamps), np.asarray(self.values)

    def range(self, start: float, end: float) -> "Series":
        """Samples with start <= timestamp < end (exact half-open interval)."""
        lo = bisect_left(self.timestamps, start)
        hi = bisect_left(self.timestamps, end)
        return Series(
            metric=self.metric,
            labels=dict(self.labels),
            timestamps=self.timestamps[lo:hi],
            values=self.values[lo:hi],
        )


def _series_key(metric: str, labels: dict[str, str]) -> tuple:
    return (metric, tuple(sorted(labels.items())))


_OBS = get_observability()
_M_WRITES = _OBS.counter(
    "repro_tsdb_samples_written_total", "Samples appended to a TSDB.", labels=("db",)
)
_M_QUERIES = _OBS.counter(
    "repro_tsdb_queries_total", "Label-matching queries served by a TSDB.", labels=("db",)
)
_G_SERIES = _OBS.gauge("repro_tsdb_series", "Live series per TSDB.", labels=("db",))
_G_SAMPLES = _OBS.gauge("repro_tsdb_samples", "Stored samples per TSDB.", labels=("db",))


class TimeSeriesDB:
    """Append-only store with Prometheus-style label matching.

    Queries read two indexes kept in series-creation order: metric →
    series, and ``(metric, label, value)`` → series. A query filters the
    shortest candidate list its selector names, so its cost follows the
    matching series, not the size of the database.
    """

    def __init__(self, name: str = "default") -> None:
        self._series: dict[tuple, Series] = {}
        self._by_metric: dict[str, list[Series]] = {}
        self._by_label: dict[tuple[str, str, str], list[Series]] = {}
        self.name = name
        self._n_samples = 0
        # Handles resolved once per instance; per-write cost is one method
        # call plus the registry's enabled check.
        self._m_writes = _M_WRITES.labels(db=name)
        self._m_queries = _M_QUERIES.labels(db=name)
        self._g_series = _G_SERIES.labels(db=name)
        self._g_samples = _G_SAMPLES.labels(db=name)

    # -- ingestion ---------------------------------------------------------
    def _series_for(self, metric: str, labels: dict[str, str]) -> Series:
        if not metric:
            raise ValueError("metric name must be non-empty")
        labels = {str(k): str(v) for k, v in labels.items()}
        key = _series_key(metric, labels)
        series = self._series.get(key)
        if series is None:
            series = Series(metric=metric, labels=labels)
            self._series[key] = series
            self._by_metric.setdefault(metric, []).append(series)
            for label, value in labels.items():
                self._by_label.setdefault((metric, label, value), []).append(series)
            self._g_series.set(len(self._series))
        return series

    def write(self, metric: str, labels: dict[str, str], timestamp: float, value: float) -> None:
        """Append one sample to the series identified by (metric, labels)."""
        self._series_for(metric, labels).append(timestamp, value)
        self._n_samples += 1
        self._m_writes.inc()
        self._g_samples.set(self._n_samples)

    def write_array(
        self,
        metric: str,
        labels: dict[str, str],
        timestamps: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Bulk-append aligned timestamp/value arrays.

        Timestamps must be strictly increasing; the first offending index
        is named so a misordered replay fails with actionable context.
        """
        timestamps = np.asarray(timestamps, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if timestamps.shape != values.shape or timestamps.ndim != 1:
            raise ValueError("timestamps and values must be aligned 1-d arrays")
        if timestamps.size > 1:
            gaps = np.diff(timestamps)
            if (gaps <= 0).any():
                bad = int(np.flatnonzero(gaps <= 0)[0]) + 1
                raise ValueError(
                    f"timestamps must be strictly increasing; "
                    f"timestamps[{bad}] = {timestamps[bad]} does not advance past "
                    f"timestamps[{bad - 1}] = {timestamps[bad - 1]}"
                )
        self._series_for(metric, labels).extend(timestamps, values)
        self._n_samples += timestamps.size
        self._m_writes.inc(timestamps.size)
        self._g_samples.set(self._n_samples)

    # -- queries -------------------------------------------------------------
    def query(self, metric: str, matchers: dict[str, str] | None = None) -> list[Series]:
        """Series of ``metric`` whose labels include all ``matchers``."""
        self._m_queries.inc()
        matchers = {str(k): str(v) for k, v in (matchers or {}).items()}
        candidates = self._by_metric.get(metric, [])
        for k, v in matchers.items():
            indexed = self._by_label.get((metric, k, v), [])
            if len(indexed) < len(candidates):
                candidates = indexed
        return [
            series
            for series in candidates
            if all(series.labels.get(k) == v for k, v in matchers.items())
        ]

    def query_one(self, metric: str, matchers: dict[str, str] | None = None) -> Series:
        """Like :meth:`query` but requires exactly one matching series.

        Raises :class:`SeriesNotFound` when nothing matches and
        :class:`AmbiguousSeries` when the selector is underspecified.
        """
        matches = self.query(metric, matchers)
        if not matches:
            raise SeriesNotFound(f"no series matches {metric} {matchers or {}}")
        if len(matches) > 1:
            raise AmbiguousSeries(
                f"selector {metric} {matchers or {}} matches {len(matches)} series; "
                f"add labels to disambiguate"
            )
        return matches[0]

    # -- introspection ----------------------------------------------------------
    def metrics(self) -> list[str]:
        return sorted(self._by_metric)

    def n_series(self) -> int:
        return len(self._series)

    def n_samples(self) -> int:
        return self._n_samples
