"""Typed request/response surface of the always-on serving layer.

Every piece of traffic a live deployment fields maps to one request type:

- :class:`PredictRequest` — monitor one test execution (inline arrays or a
  ``record_id`` referencing telemetry previously scraped into the TSDB);
  answered with a :class:`PredictResponse` wrapping the canonical
  :class:`~repro.workflow.PipelineRun`.
- :class:`ScrapeRequest` — ingest one execution's telemetry through the
  collector into the workload TSDB; answered with a
  :class:`ScrapeResponse` carrying the EM ``record_id``.

Requests are immutable and carry a caller-chosen ``request_id`` tag that
is echoed back verbatim, so concurrent clients can correlate responses
without relying on ordering. :class:`ServiceOverloaded` is the admission
layer's explicit backpressure signal: it subclasses
:class:`~repro.resilience.TransientError`, so a standard
:class:`~repro.resilience.Retry` policy on the client side backs off and
re-submits — ``retry_after`` is the service's own estimate of when queue
depth will have drained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.anomaly import GaussianErrorModel
from ..data.chains import TestExecution
from ..data.environment import Environment
from ..resilience import TransientError
from ..workflow.prediction_pipeline import PipelineRun, SkippedExecution

__all__ = [
    "HealthReport",
    "PredictRequest",
    "PredictResponse",
    "ScrapeRequest",
    "ScrapeResponse",
    "ServeConfig",
    "ServiceOverloaded",
    "WorkerState",
]


class ServiceOverloaded(TransientError):
    """Admission rejected the request: queue depth exceeded the bound.

    ``retry_after`` (seconds) estimates when the queue will have drained
    enough to admit new work; a client-side retry policy should back off
    at least that long before re-submitting.
    """

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = float(retry_after)


@dataclass(frozen=True)
class ServeConfig:
    """The service's operating knobs (admission, batching, resilience).

    ``max_batch``/``max_wait`` trade latency for throughput: the
    micro-batcher coalesces up to ``max_batch`` queued predictions into
    one :meth:`~repro.workflow.PredictionPipeline.execute` call (one
    coalesced forward). After draining what is queued it keeps topping
    the batch up one event-loop iteration at a time while requests keep
    arriving, for at most ``max_wait`` seconds; it never sleeps on a
    timer, so an idle service scores a lone request at once (``0``
    coalesces only what is already queued).
    ``max_queue_depth`` bounds admission; past it, requests are rejected
    with :class:`ServiceOverloaded` instead of growing the queue without
    bound.
    """

    max_batch: int = 32
    max_wait: float = 0.002
    max_queue_depth: int = 1024
    #: consecutive scrape failures before the TSDB breaker opens, and the
    #: (simulated) seconds it stays open before a half-open trial.
    breaker_failures: int = 5
    breaker_recovery: float = 300.0
    #: worker processes behind the supervisor; ``0`` executes batches on
    #: the event loop exactly as the single-loop service always has.
    n_workers: int = 0
    #: supervisor tick interval (seconds, wall clock) between liveness
    #: checks, and how long a worker may sit on one dispatched batch (or
    #: fail to answer pings while idle) before it is declared hung.
    heartbeat_interval: float = 0.05
    worker_stall_timeout: float = 2.0
    #: degradation ladder: per-environment last-good answers kept for
    #: serving (stamped ``degraded=True``) while the TSDB breaker is open
    #: or every worker is restarting. ``0`` disables the ladder.
    last_good_capacity: int = 256

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if self.breaker_recovery <= 0:
            raise ValueError("breaker_recovery must be positive")
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.worker_stall_timeout <= 0:
            raise ValueError("worker_stall_timeout must be positive")
        if self.last_good_capacity < 0:
            raise ValueError("last_good_capacity must be >= 0")


@dataclass(frozen=True)
class PredictRequest:
    """Monitor one execution: inline telemetry or a scraped ``record_id``.

    Exactly one of ``execution``/``record_id`` must be set; a
    ``record_id`` request must also name the ``environment`` the scraped
    telemetry came from (the TSDB stores series, not EM tuples). With
    ``error_model=None`` the §4.3 self-calibrated mode is used.

    ``deadline_seconds`` is the caller's latency budget, relative to
    admission: once it elapses, the caller has given up, so the service
    sheds the request (:class:`~repro.resilience.DeadlineExceeded`)
    instead of spending a batch slot on an answer nobody will read.
    ``None`` means the caller waits forever.
    """

    execution: TestExecution | None = None
    record_id: str | None = None
    environment: Environment | None = None
    error_model: GaussianErrorModel | None = None
    deadline_seconds: float | None = None
    request_id: str = ""

    def __post_init__(self) -> None:
        if (self.execution is None) == (self.record_id is None):
            raise ValueError(
                "exactly one of execution/record_id must be set on a PredictRequest"
            )
        if self.record_id is not None and self.environment is None:
            raise ValueError("a record_id request must carry its environment")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive when set")
        if self.error_model is not None and not isinstance(self.error_model, GaussianErrorModel):
            # The worker wire ships an error model as its (mu, sigma) pair.
            raise TypeError(
                f"error_model must be a GaussianErrorModel or None, "
                f"got {type(self.error_model).__name__}"
            )

    def __repr__(self) -> str:
        # Compact by design: the default repr would stringify the inline
        # execution's telemetry arrays every time a queue/future holding
        # the request is repr'd (asyncio does this on the hot path).
        target = (
            f"record_id={self.record_id!r}"
            if self.record_id is not None
            else f"execution=<{len(self.execution.cpu)} timesteps>"
        )
        return f"PredictRequest({target}, request_id={self.request_id!r})"


@dataclass(frozen=True)
class PredictResponse:
    """One prediction outcome; ``run`` is byte-identical to batch mode.

    ``status`` is ``"ok"`` (``run`` set) or ``"skipped"`` (``skipped``
    names why the referenced telemetry could not be monitored — missing
    series, quarantine, TSDB circuit open). ``batch_size`` records how
    many requests shared this response's coalesced forward, and
    ``queued_seconds`` how long the request waited for it; neither
    influences the numbers in ``run``. ``degraded=True`` marks a
    last-good answer replayed from cache while the fresh path was down
    (TSDB breaker open, or every worker mid-restart) — the numbers are
    real but stale, and callers should treat them accordingly.
    """

    request_id: str
    status: str
    model_version: int
    run: PipelineRun | None = None
    skipped: SkippedExecution | None = None
    batch_size: int = 1
    queued_seconds: float = 0.0
    degraded: bool = False

    def __repr__(self) -> str:
        # PipelineRun's own repr is compact; keep the response repr flat
        # so asyncio future reprs stay O(1) regardless of payload size.
        body = repr(self.run) if self.run is not None else repr(self.skipped)
        degraded = ", degraded=True" if self.degraded else ""
        return (
            f"PredictResponse(request_id={self.request_id!r}, "
            f"status={self.status!r}, model_version={self.model_version}, "
            f"batch_size={self.batch_size}{degraded}, {body})"
        )


@dataclass(frozen=True)
class WorkerState:
    """One supervised worker's liveness snapshot, as ``health()`` saw it.

    ``phase`` is ``"ready"`` (idle, answering pings), ``"busy"`` (a batch
    dispatched, inside its stall budget), ``"starting"`` (spawned, not
    yet reported ready — includes rolling-publish rehydration) or
    ``"dead"`` (process gone, restart pending). ``epoch`` counts spawns:
    it starts at 1 and each restart increments it, so ``epoch - 1`` is
    the worker's lifetime restart count.
    """

    worker_id: int
    phase: str
    epoch: int
    model_version: int
    inflight_batch: int | None = None


@dataclass(frozen=True)
class HealthReport:
    """``/health``-style readiness + liveness for the whole service.

    ``live`` — the service can make progress (event loop up, and in
    supervised mode at least the supervisor is running); ``ready`` — a
    request admitted now will be served fresh (some worker ready, TSDB
    breaker not open, not draining). ``degraded`` mirrors the response
    stamp: the service is answering from last-good cache.
    """

    live: bool
    ready: bool
    degraded: bool
    n_workers: int
    workers_ready: int
    queue_depth: int
    breaker_state: str
    model_version: int
    workers: tuple[WorkerState, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class ScrapeRequest:
    """Ingest one execution's telemetry through the collector."""

    execution: TestExecution
    start_time: float = 0.0
    request_id: str = ""


@dataclass(frozen=True)
class ScrapeResponse:
    """Outcome of a scrape: the EM ``record_id``, or why it failed.

    ``status`` is ``"ok"``, ``"unavailable"`` (the TSDB write path failed
    past its retry budget) or ``"circuit_open"`` (the TSDB breaker is
    failing fast; ``retry_after`` estimates when the next trial runs).
    """

    request_id: str
    status: str
    record_id: str | None = None
    detail: str = ""
    retry_after: float = 0.0
