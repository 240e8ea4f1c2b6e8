"""Resilience policies: retry with backoff and circuit breakers.

The workflow talks to lossy infrastructure (scrapes stall, TSDB writes
fail transiently, test executions die mid-run), so cross-component calls
go through a policy:

- :class:`Retry` — bounded attempts with exponential backoff + decorrelated
  jitter. Backoff sleeps go through a :class:`Clock`, and the default is
  the :class:`SimulatedClock`: deterministic, instantaneous, and metered —
  a campaign that retries thousands of times still runs in milliseconds,
  while ``repro_resilience_backoff_seconds_total`` records how long a real
  deployment would have waited.
- :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine: after ``failure_threshold`` consecutive failures the circuit
  opens and calls fail fast with :class:`CircuitOpen`; after
  ``recovery_time`` one trial call probes the backend (half-open) and
  either closes the circuit or re-opens it.

Each policy has one entry form, the one its caller uses::

    retry = Retry(max_attempts=4, name="tsdb-write")
    retry.call(tsdb.write_array, ...)    # the collector's writes

    breaker = CircuitBreaker(name="tsdb-scrape")
    breaker.allow()                      # raises CircuitOpen while open
    try:
        scrape()
    except TransientError:
        breaker.record_failure()
        raise
    breaker.record_success()             # the service's scrape path

Every decision is observable: ``repro_resilience_retries_total``,
``repro_resilience_giveups_total``, ``repro_resilience_backoff_seconds_total``
(all labelled ``policy``), ``repro_resilience_breaker_state`` and
``repro_resilience_breaker_transitions_total`` — scraped into the campaign
TSDB alongside everything else in :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..obs import get_observability
from .errors import CircuitOpen, RetryExhausted, TransientError

__all__ = [
    "Clock",
    "SimulatedClock",
    "Retry",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

#: Backoff shape of every :class:`Retry`: attempt ``k + 1`` waits
#: ``min(MAX_DELAY, BASE_DELAY * MULTIPLIER ** (k - 1))`` seconds, less a
#: seeded random share of up to ``JITTER`` of that.
BASE_DELAY = 0.5
MAX_DELAY = 60.0
MULTIPLIER = 2.0
JITTER = 0.5

_OBS = get_observability()
_M_RETRIES = _OBS.counter(
    "repro_resilience_retries_total",
    "Retried attempts (attempt 2+) made by retry policies.",
    labels=("policy",),
)
_M_GIVEUPS = _OBS.counter(
    "repro_resilience_giveups_total",
    "Retry policies that exhausted their attempt budget.",
    labels=("policy",),
)
_M_BACKOFF = _OBS.counter(
    "repro_resilience_backoff_seconds_total",
    "Total (simulated) seconds spent backing off between retry attempts.",
    labels=("policy",),
)
_G_BREAKER_STATE = _OBS.gauge(
    "repro_resilience_breaker_state",
    "Circuit breaker state (0=closed, 1=half-open, 2=open).",
    labels=("breaker",),
)
_M_BREAKER_TRANSITIONS = _OBS.counter(
    "repro_resilience_breaker_transitions_total",
    "Circuit breaker state transitions.",
    labels=("breaker", "to"),
)
_M_BREAKER_REJECTED = _OBS.counter(
    "repro_resilience_breaker_rejected_total",
    "Calls rejected fast because the circuit was open.",
    labels=("breaker",),
)


class Clock:
    """Minimal clock interface: ``now()`` seconds and ``sleep(seconds)``."""

    def now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class SimulatedClock(Clock):
    """A deterministic clock whose sleeps advance time instantaneously.

    The default for every policy in this repo: campaigns replay simulated
    days, so backoff must consume *simulated* seconds, not wall-clock.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self._now += seconds

    def advance(self, seconds: float) -> None:
        """Move time forward without it counting as a backoff sleep."""
        self.sleep(seconds)


class Retry:
    """Bounded retry with exponential backoff and decorrelated jitter.

    The backoff shape is the module's :data:`BASE_DELAY`,
    :data:`MAX_DELAY`, :data:`MULTIPLIER` and :data:`JITTER`. Only exceptions matching ``retry_on`` (default: :class:`TransientError`)
    are retried; anything else propagates immediately. When the budget is
    exhausted :meth:`call` raises :class:`RetryExhausted` from the last
    failure.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        retry_on: tuple[type[BaseException], ...] = (TransientError,),
        clock: Clock | None = None,
        seed: int = 0,
        name: str = "retry",
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.retry_on = retry_on
        self.clock = clock if clock is not None else SimulatedClock()
        self.name = name
        self._rng = np.random.default_rng(seed)
        self._m_retries = _M_RETRIES.labels(policy=name)
        self._m_giveups = _M_GIVEUPS.labels(policy=name)
        self._m_backoff = _M_BACKOFF.labels(policy=name)

    def delay_for(self, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (attempts count from 1)."""
        raw = min(MAX_DELAY, BASE_DELAY * MULTIPLIER ** (attempt - 1))
        return raw * (1.0 - JITTER * float(self._rng.random()))

    def call(self, fn: Callable, *args, **kwargs):
        """Invoke ``fn`` under this policy, returning its result.

        The first attempt runs span-free: a policy wrapped around every
        TSDB write must cost nothing when the write simply succeeds. Only
        once a retryable failure starts an actual retry loop does the
        ``resilience.retry.<name>`` span open (covering attempts 2+).
        """
        try:
            return fn(*args, **kwargs)
        except self.retry_on as exc:
            last_error: BaseException = exc
        if self.max_attempts > 1:
            with _OBS.span(f"resilience.retry.{self.name}"):
                for attempt in range(1, self.max_attempts):
                    self._m_retries.inc()
                    delay = self.delay_for(attempt)
                    self._m_backoff.inc(delay)
                    self.clock.sleep(delay)
                    try:
                        return fn(*args, **kwargs)
                    except self.retry_on as exc:
                        last_error = exc
        self._m_giveups.inc()
        raise RetryExhausted(
            f"policy {self.name!r} gave up after {self.max_attempts} attempts"
        ) from last_error


BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

_STATE_VALUES = {BREAKER_CLOSED: 0.0, BREAKER_HALF_OPEN: 1.0, BREAKER_OPEN: 2.0}


class CircuitBreaker:
    """Closed → open → half-open breaker around a flaky dependency.

    ``failure_threshold`` *consecutive* failures open the circuit; while
    open, :meth:`allow` fails fast with :class:`CircuitOpen`. After
    ``recovery_time`` (on the breaker's clock) the next call runs as a
    half-open trial: the caller's :meth:`record_success` closes the
    circuit, :meth:`record_failure` re-opens it and restarts the recovery
    timer.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
        clock: Clock | None = None,
        name: str = "breaker",
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_time <= 0:
            raise ValueError("recovery_time must be positive")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.clock = clock if clock is not None else SimulatedClock()
        self.name = name
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self._opened_at = 0.0
        self._g_state = _G_BREAKER_STATE.labels(breaker=name)
        self._m_rejected = _M_BREAKER_REJECTED.labels(breaker=name)
        self._g_state.set(_STATE_VALUES[self.state])

    def _transition(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        self._g_state.set(_STATE_VALUES[state])
        _M_BREAKER_TRANSITIONS.labels(breaker=self.name, to=state).inc()

    def allow(self) -> None:
        """Gate a call: raises :class:`CircuitOpen` while the circuit is open."""
        if self.state == BREAKER_OPEN:
            if self.clock.now() - self._opened_at >= self.recovery_time:
                self._transition(BREAKER_HALF_OPEN)
            else:
                self._m_rejected.inc()
                raise CircuitOpen(
                    f"breaker {self.name!r} is open "
                    f"({self.consecutive_failures} consecutive failures)"
                )

    def retry_after(self) -> float:
        """Seconds (on the breaker's clock) until the next half-open trial.

        ``0.0`` whenever the breaker is not open — callers can always use
        this to stamp a hint onto fail-fast responses without inspecting
        :attr:`state` first.
        """
        if self.state != BREAKER_OPEN:
            return 0.0
        return max(0.0, self.recovery_time - (self.clock.now() - self._opened_at))

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._transition(BREAKER_CLOSED)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == BREAKER_HALF_OPEN or self.consecutive_failures >= self.failure_threshold:
            self._opened_at = self.clock.now()
            self._transition(BREAKER_OPEN)
