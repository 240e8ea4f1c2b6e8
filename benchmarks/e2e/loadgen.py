"""Request generation with due-time accounting, and the percentile rule.

Two loop shapes drive a :class:`~repro.serve.ServeClient` from one
coroutine on one thread:

- :func:`closed_loop` keeps ``n_clients`` requests outstanding; each
  simulated caller sends its next request only after the previous one
  returned, so it measures capacity (completions per second).
- :func:`open_loop` sends on a precomputed arrival schedule regardless
  of completions. Latency is timed from each request's *due* time, not
  from when the generator managed to submit it: a stall in the service
  (or in the generator) delays later submissions, and that delay is
  part of what a user waits. ``repro.serve.loadgen.run_load`` times from
  the actual submit and so hides it.

Every send counts as attempted; rejections, exceptions and non-``ok``
responses count as failed.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve import ServiceOverloaded

__all__ = [
    "MIN_TAIL_SAMPLES",
    "Outcome",
    "best",
    "closed_loop",
    "highest_supported_percentile",
    "open_loop",
    "percentile",
    "poisson_offsets",
    "summarize",
]

clock = time.perf_counter

#: A percentile is reported only when at least this many samples lie
#: beyond it; the median is always reported.
MIN_TAIL_SAMPLES = 10
#: Tail percentiles considered, lowest first.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)
#: Errors kept per outcome for the result file (the count is exact).
MAX_ERRORS_KEPT = 5


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of a non-empty sample."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(values, q))


def tail_count(n_samples: int, q: float) -> int:
    """How many of ``n_samples`` lie beyond the ``q``-th percentile."""
    return math.floor(n_samples * (100.0 - q) / 100.0 + 1e-9)


def highest_supported_percentile(n_samples: int) -> float | None:
    """The highest tail percentile with ``MIN_TAIL_SAMPLES`` beyond it."""
    supported = [q for q in TAIL_PERCENTILES if tail_count(n_samples, q) >= MIN_TAIL_SAMPLES]
    return supported[-1] if supported else None


def best(values, better: str) -> float:
    """The best of a run's per-window values.

    A shared machine alternates between normal and slower periods lasting
    seconds to minutes, so a run's median depends on how much of the run
    was slowed. The best window tracks the program's own speed as long as
    one window of the run fell in a normal period.
    """
    return max(values) if better == "higher" else min(values)


def summarize(latencies_s) -> dict:
    """Median, p90 and p99 in ms, with the sample count behind them."""
    n = len(latencies_s)
    if n == 0:
        raise ValueError("no latency samples to summarize")
    return {
        "n": n,
        "p50_ms": percentile(latencies_s, 50) * 1e3,
        "p90_ms": percentile(latencies_s, 90) * 1e3,
        "p99_ms": percentile(latencies_s, 99) * 1e3,
        "highest_supported_percentile": highest_supported_percentile(n),
    }


def poisson_offsets(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets (seconds from start) of a Poisson process."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    expected = int(rate * duration * 1.2) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    while offsets[-1] < duration:
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, size=expected))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


@dataclass
class Outcome:
    """What one loop sent, what came back, and how long it took."""

    sent: int = 0
    ok: int = 0
    failed: int = 0
    rejected: int = 0
    #: seconds from due time to response, one per ``ok`` response.
    latencies: list = field(default_factory=list)
    #: seconds from due time to actual submit, one per send.
    lateness: list = field(default_factory=list)
    #: ``ok`` responses that arrived before the window closed.
    completed_in_window: int = 0
    duration: float = 0.0
    errors: list = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """In-window completions per second of window."""
        return self.completed_in_window / self.duration if self.duration > 0 else 0.0

    def _fail(self, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(f"{type(error).__name__}: {error}")


async def _send(client, stream, due, window_end, outcome, on_ok, hooks) -> None:
    """One request; ``due=None`` (closed loop) times from the submit."""
    request, key = stream.next()
    submitted = clock()
    outcome.sent += 1
    if due is None:
        due = submitted
    else:
        outcome.lateness.append(submitted - due)
    if hooks is not None:
        hooks.submitted(request, due, submitted)
    ok = False
    try:
        response = await client.predict(request)
    except ServiceOverloaded as error:
        outcome.rejected += 1
        outcome._fail(error)
    except Exception as error:  # noqa: BLE001 - a failed request is data, not a crash
        outcome._fail(error)
    else:
        ok = getattr(response, "status", None) == "ok"
        if ok:
            done = clock()
            outcome.ok += 1
            outcome.latencies.append(done - due)
            if done <= window_end:
                outcome.completed_in_window += 1
            if on_ok is not None:
                on_ok(key, response)
        else:
            outcome._fail(RuntimeError(f"status {getattr(response, 'status', None)!r}"))
    if hooks is not None:
        hooks.completed(request, clock(), ok)


async def closed_loop(client, stream, n_clients: int, duration: float, *, on_ok=None, hooks=None) -> Outcome:
    """``n_clients`` callers, each sending again as soon as it is answered.

    Callers stop sending once ``duration`` has elapsed and the call
    returns when every outstanding request has completed. Only responses
    that arrived inside the window count towards throughput.
    """
    outcome = Outcome(duration=duration)
    window_end = clock() + duration

    async def caller() -> None:
        while clock() < window_end:
            await _send(client, stream, None, window_end, outcome, on_ok, hooks)

    await asyncio.gather(*(caller() for _ in range(n_clients)))
    return outcome


async def open_loop(client, stream, offsets, *, on_ok=None, hooks=None) -> Outcome:
    """Send one request per offset, on schedule, whatever comes back.

    Requests whose due time has passed are sent at once in due order, so
    a stall shows up as lateness and as latency of the late requests.
    Returns when every request has completed.
    """
    offsets = np.asarray(offsets, dtype=np.float64)
    duration = float(offsets[-1]) if len(offsets) else 0.0
    outcome = Outcome(duration=duration)
    loop = asyncio.get_running_loop()
    start = clock()
    window_end = math.inf
    tasks = []
    i = 0
    while i < len(offsets):
        delay = start + offsets[i] - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        now = clock()
        while i < len(offsets) and start + offsets[i] <= now:
            tasks.append(
                loop.create_task(
                    _send(client, stream, start + offsets[i], window_end, outcome, on_ok, hooks)
                )
            )
            i += 1
    await asyncio.gather(*tasks)
    outcome.completed_in_window = outcome.ok
    return outcome
