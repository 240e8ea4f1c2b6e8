"""Typed failure taxonomy for the resilience layer.

Every failure the chaos layer injects — and every failure a live testbed
produces — maps to one of these types, so call sites can distinguish
*transient* conditions (worth retrying) from *terminal* ones (worth
quarantining) without string-matching messages:

- :class:`TransientError` and subclasses: the operation may succeed if
  repeated — :class:`Retry` policies only ever retry these by default.
- :class:`ExecutionQuarantined`: degraded telemetry crossed the
  degradation ladder's floor (e.g. a gap too long to impute, or a whole
  scrape window lost to a collector outage) — the execution is excluded
  from monitoring *and* training.
- :class:`CircuitOpen` / :class:`RetryExhausted`: raised by the policies
  themselves when a budget runs out.
- :class:`DeadlineExceeded`: serve admission shed a request whose
  deadline lapsed in the queue.

:class:`~repro.nn.training.TrainingDiverged` (raised by the Trainer's
NaN/Inf loss guard) and :class:`~repro.workflow.model_store.CorruptModelError`
live next to the code that raises them; they are part of the same taxonomy
but are defined downstream to keep this package free of heavyweight
imports.
"""

from __future__ import annotations

__all__ = [
    "ResilienceError",
    "TransientError",
    "TransientTSDBError",
    "ExecutionQuarantined",
    "CircuitOpen",
    "DeadlineExceeded",
    "RetryExhausted",
]


class ResilienceError(RuntimeError):
    """Base class for every failure the resilience layer models."""


class TransientError(ResilienceError):
    """A failure that may clear on retry (network blip, busy backend)."""


class TransientTSDBError(TransientError):
    """A TSDB write/query failed transiently (simulated Prometheus hiccup)."""


class ExecutionQuarantined(ResilienceError):
    """Telemetry too degraded to monitor or train on; dead-letter it.

    ``reason`` is a short machine-readable slug (``gap_too_long``,
    ``series_missing``, ...) mirrored into the dead-letter record.
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


class CircuitOpen(ResilienceError):
    """A circuit breaker is open; the protected call was not attempted."""


class DeadlineExceeded(ResilienceError):
    """A request's deadline lapsed before it could be served."""


class RetryExhausted(ResilienceError):
    """A retry policy ran out of attempts; ``__cause__`` is the last error."""
