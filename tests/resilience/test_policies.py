"""Unit tests for the resilience policy toolkit (retry/breaker)."""

import numpy as np
import pytest

from repro.obs import get_observability
from repro.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    CircuitOpen,
    Retry,
    RetryExhausted,
    SimulatedClock,
    TransientError,
    TransientTSDBError,
)
from repro.resilience.policies import BASE_DELAY, JITTER, MAX_DELAY, MULTIPLIER

_OBS = get_observability()


class Flaky:
    """Callable failing ``n_failures`` times before succeeding."""

    def __init__(self, n_failures: int, error: type[BaseException] = TransientError):
        self.n_failures = n_failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.n_failures:
            raise self.error(f"failure #{self.calls}")
        return "ok"


class TestSimulatedClock:
    def test_sleep_advances_time_instantly(self):
        clock = SimulatedClock(start=100.0)
        clock.sleep(2.5)
        assert clock.now() == 102.5

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().sleep(-1.0)


class TestRetry:
    def test_succeeds_after_transient_failures(self):
        fn = Flaky(2)
        retry = Retry(max_attempts=4, name="t-succeed")
        assert retry.call(fn) == "ok"
        assert fn.calls == 3

    def test_non_retryable_propagates_immediately(self):
        fn = Flaky(5, error=KeyError)
        retry = Retry(max_attempts=4, name="t-nonretry")
        with pytest.raises(KeyError):
            retry.call(fn)
        assert fn.calls == 1

    def test_exhaustion_raises_retry_exhausted_with_cause(self):
        fn = Flaky(10, error=TransientTSDBError)
        retry = Retry(max_attempts=3, name="t-exhaust")
        with pytest.raises(RetryExhausted) as excinfo:
            retry.call(fn)
        assert fn.calls == 3
        assert isinstance(excinfo.value.__cause__, TransientTSDBError)
        assert "failure #3" in str(excinfo.value.__cause__)

    def test_backoff_consumes_simulated_time_only(self):
        clock = SimulatedClock()
        retry = Retry(max_attempts=4, clock=clock, name="t-backoff")
        with pytest.raises(RetryExhausted):
            retry.call(Flaky(99))
        # 3 backoffs of at most 0.5 + 1 + 2 simulated seconds, each less a
        # jitter share of up to JITTER, and zero wall-clock.
        full = sum(BASE_DELAY * MULTIPLIER**k for k in range(3))
        assert (1.0 - JITTER) * full <= clock.now() <= full

    def test_backoff_bounded_by_max_delay(self):
        retry = Retry(max_attempts=20, seed=3, name="t-cap")
        draws = np.random.default_rng(3).random(12)
        for attempt, draw in zip(range(1, 13), draws):
            raw = min(MAX_DELAY, BASE_DELAY * MULTIPLIER ** (attempt - 1))
            assert retry.delay_for(attempt) == raw * (1.0 - JITTER * draw)
        assert raw == MAX_DELAY  # attempt 9 onwards is capped (0.5 * 2**8 > 60)

    def test_jitter_is_seeded_and_deterministic(self):
        a = Retry(seed=7, name="t-jit-a")
        b = Retry(seed=7, name="t-jit-b")
        delays_a = [a.delay_for(1) for _ in range(5)]
        delays_b = [b.delay_for(1) for _ in range(5)]
        assert delays_a == delays_b
        assert all((1.0 - JITTER) * BASE_DELAY <= d <= BASE_DELAY for d in delays_a)
        assert len(set(delays_a)) == 5

    def test_retry_metrics_emitted(self):
        _OBS.reset()
        clock = SimulatedClock()
        retry = Retry(max_attempts=3, clock=clock, name="t-metrics")
        with pytest.raises(RetryExhausted):
            retry.call(Flaky(99))
        retries = _OBS.counter("repro_resilience_retries_total", labels=("policy",))
        giveups = _OBS.counter("repro_resilience_giveups_total", labels=("policy",))
        backoff = _OBS.counter("repro_resilience_backoff_seconds_total", labels=("policy",))
        assert retries.labels(policy="t-metrics").value == 2
        assert giveups.labels(policy="t-metrics").value == 1
        assert backoff.labels(policy="t-metrics").value == pytest.approx(clock.now())
        assert clock.now() > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Retry(max_attempts=0)


class TestCircuitBreaker:
    @staticmethod
    def _trip(breaker, n):
        for _ in range(n):
            breaker.allow()
            breaker.record_failure()

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, name="b-open")
        self._trip(breaker, 2)
        assert breaker.state == BREAKER_CLOSED
        self._trip(breaker, 1)
        assert breaker.state == BREAKER_OPEN

    def test_open_circuit_fails_fast(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_time=30.0, name="b-fast")
        self._trip(breaker, 1)
        with pytest.raises(CircuitOpen):
            breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=3, name="b-reset")
        self._trip(breaker, 2)
        breaker.allow()
        breaker.record_success()
        self._trip(breaker, 2)
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_success_closes(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=30.0, clock=clock, name="b-probe-ok"
        )
        self._trip(breaker, 1)
        clock.advance(31.0)
        breaker.allow()  # promotes to half-open; the success closes
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            failure_threshold=2, recovery_time=30.0, clock=clock, name="b-probe-bad"
        )
        self._trip(breaker, 2)
        assert breaker.state == BREAKER_OPEN
        clock.advance(31.0)
        self._trip(breaker, 1)  # the single half-open trial fails
        assert breaker.state == BREAKER_OPEN
        with pytest.raises(CircuitOpen):
            breaker.allow()

    def test_breaker_metrics_emitted(self):
        _OBS.reset()
        breaker = CircuitBreaker(failure_threshold=1, recovery_time=30.0, name="b-metrics")
        self._trip(breaker, 1)
        with pytest.raises(CircuitOpen):
            breaker.allow()
        state = _OBS.gauge("repro_resilience_breaker_state", labels=("breaker",))
        rejected = _OBS.counter("repro_resilience_breaker_rejected_total", labels=("breaker",))
        transitions = _OBS.counter(
            "repro_resilience_breaker_transitions_total", labels=("breaker", "to")
        )
        assert state.labels(breaker="b-metrics").value == 2.0  # open
        assert rejected.labels(breaker="b-metrics").value == 1
        assert transitions.labels(breaker="b-metrics", to=BREAKER_OPEN).value == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_time=0.0)
