"""Metric primitives: Counter, Gauge, Histogram, and their registry.

The system is Prometheus-shaped end to end (the workflow's TSDB and PromQL
engine substitute for a real Prometheus), so its *self*-instrumentation
speaks the same dialect: metric families carry a name, help text, and a
fixed tuple of label names; label *values* select a child time series;
histograms expose cumulative ``_bucket``/``_sum``/``_count`` samples. The
naming convention for everything this repo records about itself is a
``repro_`` prefix (``repro_samples_ingested_total``,
``repro_prediction_run_seconds_bucket``, ...).

Hot-path cost model: every mutator (``inc``/``set``/``observe``) first
checks the owning registry's ``enabled`` flag and returns immediately when
instrumentation is off — one attribute load and one branch, no allocation.
Metric handles are meant to be resolved once (module/instance scope) and
reused, not looked up per call.

Metrics are plain process state with no locks: every process runs its
code on one thread (the serve tier scales across processes, each with
its own registry), and the analyzer's REP011 confines thread use to the
serve supervisor's reaper.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from time import perf_counter
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramTimer",
    "MetricSample",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
]

#: Prometheus client defaults — general-purpose positive observations.
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Finer low end for the microsecond-scale latencies of the compiled
#: inference engine (a batch-1 forward is tens of microseconds).
LATENCY_BUCKETS = (
    5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


class MetricSample:
    """One exposition-ready sample of a metric family."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str], value: float):
        self.name = name
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricSample({self.name!r}, {self.labels!r}, {self.value!r})"


class _Enabled:
    """Shared mutable on/off cell — one branch per hot-path mutation."""

    __slots__ = ("on",)

    def __init__(self, on: bool = True):
        self.on = on


class _Metric:
    """Common family machinery: label children, registration metadata."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", label_names: tuple[str, ...] = (),
                 enabled: _Enabled | None = None):
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.fullmatch(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._enabled = enabled if enabled is not None else _Enabled()
        self._children: dict[tuple[str, ...], "_Metric"] = {}
        if not self.label_names:
            # A label-less family is its own single child: inc()/set()/
            # observe() work directly on it.
            self._children[()] = self

    def labels(self, **labels: str):
        """The child selected by one value per declared label name."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}; got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def _make_child(self):
        child = object.__new__(type(self))
        child.name = self.name
        child.help = self.help
        child.label_names = ()
        child._enabled = self._enabled
        child._children = {(): child}
        child._init_value()
        return child

    def _init_value(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _require_leaf(self) -> None:
        if self.label_names:
            raise ValueError(
                f"{self.name} is a labelled family; select a child via .labels(...)"
            )

    def _iter_children(self) -> Iterator[tuple[dict[str, str], "_Metric"]]:
        if not self.label_names:
            yield {}, self
            return
        for key, child in sorted(self._children.items()):
            yield dict(zip(self.label_names, key)), child

    def samples(self) -> Iterator[MetricSample]:
        """Exposition samples over every child, in label-sorted order."""
        for labels, child in self._iter_children():
            yield from child._value_samples(labels)

    def _value_samples(self, labels: dict[str, str]) -> Iterator[MetricSample]:
        raise NotImplementedError  # pragma: no cover - overridden

    def reset(self) -> None:
        """Zero every child's value (registrations and children survive)."""
        for _, child in self._iter_children():
            child._init_value()


class Counter(_Metric):
    """A monotonically increasing count (``*_total`` by convention)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", label_names: tuple[str, ...] = (),
                 enabled: _Enabled | None = None):
        super().__init__(name, help, label_names, enabled)
        if not self.label_names:
            self._init_value()

    def _init_value(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._enabled.on:
            return
        if self.label_names:  # inline leaf check: no call on the hot path
            self._require_leaf()
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        self._value += amount

    @property
    def value(self) -> float:
        self._require_leaf()
        return self._value

    def _value_samples(self, labels: dict[str, str]) -> Iterator[MetricSample]:
        yield MetricSample(self.name, labels, self._value)


class Gauge(_Metric):
    """A value that can go up and down (sizes, cache fill, masks)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", label_names: tuple[str, ...] = (),
                 enabled: _Enabled | None = None):
        super().__init__(name, help, label_names, enabled)
        if not self.label_names:
            self._init_value()

    def _init_value(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        if not self._enabled.on:
            return
        if self.label_names:
            self._require_leaf()
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._enabled.on:
            return
        if self.label_names:
            self._require_leaf()
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        self._require_leaf()
        return self._value

    def _value_samples(self, labels: dict[str, str]) -> Iterator[MetricSample]:
        yield MetricSample(self.name, labels, self._value)


def format_le(bound: float) -> str:
    """Prometheus bucket-bound rendering: ``0.005``, ``1``, ``+Inf``."""
    if bound == float("inf"):
        return "+Inf"
    text = repr(float(bound))
    return text[:-2] if text.endswith(".0") else text


class HistogramTimer:
    """``with histogram.time() as t: ...`` — observe the block's duration.

    This is the sanctioned way for sim-clock code (``core``, ``workflow``,
    ``resilience``) to measure real elapsed time: the
    monotonic-clock read lives here in :mod:`repro.obs`, the one package
    the REP002 wall-clock rule exempts, instead of being scattered
    through pipeline bodies as ``time.perf_counter()`` pairs. The timer
    always measures (one perf_counter read per enter/exit — nowhere near
    a hot path); only the ``observe`` respects the registry switch.
    ``t.elapsed`` holds the measured seconds after the block exits.
    """

    __slots__ = ("_histogram", "_start", "elapsed")

    def __init__(self, histogram: "Histogram"):
        self._histogram = histogram
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "HistogramTimer":
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = perf_counter() - self._start
        self._histogram.observe(self.elapsed)


class Histogram(_Metric):
    """Cumulative-bucket histogram of positive observations.

    Exposes ``<name>_bucket{le="..."}`` (cumulative counts including the
    ``+Inf`` bucket), ``<name>_sum`` and ``<name>_count`` — exactly the
    series shape ``histogram_quantile`` expects downstream.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", label_names: tuple[str, ...] = (),
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                 enabled: _Enabled | None = None):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing; got {bounds}")
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # +Inf is implicit
        self.bounds = bounds
        super().__init__(name, help, label_names, enabled)
        if not self.label_names:
            self._init_value()

    def _make_child(self):
        child = super()._make_child()
        child.bounds = self.bounds
        child._init_value()  # re-init now that bounds exist
        return child

    def _init_value(self) -> None:
        # _counts[i] is the number of observations landing in bucket i
        # (non-cumulative); the final slot is the overflow (+Inf) bucket.
        self._counts = [0] * (len(getattr(self, "bounds", ())) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not self._enabled.on:
            return
        if self.label_names:
            self._require_leaf()
        value = float(value)
        bucket = bisect_left(self.bounds, value)
        self._counts[bucket] += 1
        self._sum += value
        self._count += 1

    def time(self) -> HistogramTimer:
        """A context manager observing the wrapped block's wall duration."""
        self._require_leaf()
        return HistogramTimer(self)

    @property
    def count(self) -> int:
        self._require_leaf()
        return self._count

    @property
    def sum(self) -> float:
        self._require_leaf()
        return self._sum

    def _value_samples(self, labels: dict[str, str]) -> Iterator[MetricSample]:
        # Read every field before the first yield: a consumer may observe
        # into this histogram while it walks the samples, and the buckets,
        # sum and count must still come from one state.
        total_sum, total_count = self._sum, self._count
        cumulative, running = [], 0
        for count in self._counts:
            running += count
            cumulative.append(running)
        for bound, count in zip(self.bounds + (float("inf"),), cumulative):
            yield MetricSample(
                f"{self.name}_bucket", {**labels, "le": format_le(bound)}, float(count)
            )
        yield MetricSample(f"{self.name}_sum", labels, total_sum)
        yield MetricSample(f"{self.name}_count", labels, float(total_count))


class MetricsRegistry:
    """Process-wide family index with idempotent registration.

    Registering the same name twice returns the existing family (so any
    module can declare the metrics it uses without coordination), but
    mismatched kind/labels/buckets raise — two call sites silently writing
    incompatible shapes to one name is a bug worth failing loudly on.
    """

    def __init__(self, enabled: bool = True):
        self._enabled = _Enabled(enabled)
        self._metrics: dict[str, _Metric] = {}

    # -- enable/disable ----------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled.on

    @enabled.setter
    def enabled(self, on: bool) -> None:
        self._enabled.on = bool(on)

    @property
    def enabled_cell(self) -> _Enabled:
        """The shared on/off cell, for hot paths where even the ``enabled``
        property call per operation is measurable — read ``cell.on``."""
        return self._enabled

    # -- registration ------------------------------------------------------
    def _register(self, cls, name: str, help: str, label_names: tuple[str, ...], **kw):
        label_names = tuple(label_names)
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}{existing.label_names}; cannot re-register as "
                    f"{cls.kind}{label_names}"
                )
            if kw.get("buckets") is not None and existing.bounds != tuple(
                float(b) for b in kw["buckets"] if b != float("inf")
            ):
                raise ValueError(f"metric {name!r} already registered with different buckets")
            return existing
        metric = cls(name, help, label_names, enabled=self._enabled, **{
            k: v for k, v in kw.items() if v is not None
        })
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "", labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labels, buckets=tuple(buckets))

    # -- introspection -----------------------------------------------------
    def get(self, name: str) -> _Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(f"no metric registered under {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def collect(self) -> Iterator[_Metric]:
        """Families in registration order (stable exposition layout)."""
        yield from list(self._metrics.values())

    def samples(self) -> Iterator[MetricSample]:
        for metric in self.collect():
            yield from metric.samples()

    def reset(self) -> None:
        """Zero every value while keeping registrations and children."""
        for metric in self.collect():
            metric.reset()
