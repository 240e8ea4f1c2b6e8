"""Exporters: Prometheus text exposition and the TSDB dogfood scrape.

Two ways out of a :class:`~repro.obs.metrics.MetricsRegistry`:

- :func:`render_prometheus` produces the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers plus one line per sample) — what a real
  ``/metrics`` endpoint would serve;
- :class:`TSDBExporter` *scrapes* the registry into the repo's own
  :class:`~repro.workflow.tsdb.TimeSeriesDB` on a simulated-clock cadence,
  so the system's self-metrics become ordinary series that the in-repo
  PromQL engine can query (``rate(repro_samples_ingested_total[15m])``,
  ``histogram_quantile(0.9, repro_prediction_run_seconds_bucket)``) —
  the same dogfood loop a production VNF monitor runs on itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tsdb imports obs)
    from ..workflow.tsdb import TimeSeriesDB

__all__ = ["render_prometheus", "TSDBExporter"]

#: the self-metric namespace a TSDB scrape keeps.
SCRAPE_PREFIX = "repro_"


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    lines: list[str] = []
    for metric in registry.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for sample in metric.samples():
            if sample.labels:
                rendered = ",".join(
                    f'{key}="{_escape_label_value(str(value))}"'
                    for key, value in sample.labels.items()
                )
                lines.append(f"{sample.name}{{{rendered}}} {_format_value(sample.value)}")
            else:
                lines.append(f"{sample.name} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n"


class TSDBExporter:
    """Scrape a registry into a :class:`TimeSeriesDB` at simulated times.

    Each scrape writes every sample (including histogram ``_bucket`` /
    ``_sum`` / ``_count`` series) at the given timestamp. The TSDB
    enforces strictly increasing timestamps per series, so scrapes must
    advance the clock; :meth:`tick` does that automatically on a fixed
    ``interval``. Only the repo's self-metric namespace
    (:data:`SCRAPE_PREFIX`, ``repro_*``) is scraped.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        tsdb: "TimeSeriesDB | None" = None,
        interval: float = 15.0,
    ):
        if interval <= 0:
            raise ValueError("scrape interval must be positive")
        if tsdb is None:
            from ..workflow.tsdb import TimeSeriesDB  # deferred: tsdb imports repro.obs

            tsdb = TimeSeriesDB(name="observability")
        self.registry = registry
        self.tsdb = tsdb
        self.interval = float(interval)
        self.last_scrape: float | None = None
        self._now = 0.0

    def scrape(self, at: float) -> int:
        """Write one snapshot of the registry at time ``at``.

        Returns the number of samples written. Scrapes must move forward
        in time; a repeated or earlier timestamp raises, because silently
        dropping a scrape would bias every rate() computed downstream.
        """
        at = float(at)
        if self.last_scrape is not None and at <= self.last_scrape:
            raise ValueError(
                f"scrape time must advance (last scrape at {self.last_scrape}, got {at})"
            )
        written = 0
        for metric in self.registry.collect():
            if not metric.name.startswith(SCRAPE_PREFIX):
                continue
            for sample in metric.samples():
                self.tsdb.write(sample.name, sample.labels, at, sample.value)
                written += 1
        self.last_scrape = at
        self._now = max(self._now, at)
        return written

    def tick(self) -> float:
        """Advance the simulated clock by ``interval`` and scrape.

        Returns the timestamp that was scraped.
        """
        self._now += self.interval
        self.scrape(self._now)
        return self._now
