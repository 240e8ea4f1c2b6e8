"""Bounded request admission with explicit backpressure.

The admission controller is the only component that decides whether a
request enters the service at all. It keeps a FIFO of pending predict
requests with a hard depth bound: past ``max_depth`` the submit raises
:class:`~repro.serve.api.ServiceOverloaded` *synchronously* — the caller
learns immediately, nothing is silently dropped, and the queue can never
grow without bound. ``retry_after`` on the rejection is the current
depth times an EWMA of measured per-request service time, i.e. the
service's own estimate of when the backlog will have drained. The EWMA
is seeded from config (no zero-sample cold start) and its decay constant
is a validated :class:`~repro.serve.api.ServeConfig` field.

Deadlines are stamped here: a request carrying ``deadline_seconds`` gets
an absolute expiry (``now + budget``, monotonic loop time) at admission,
and :meth:`drain` sheds expired requests instead of handing them to the
batcher — their futures fail with
:class:`~repro.resilience.DeadlineExceeded` and the shed is counted in
``repro_serve_deadline_shed_total``. Shedding at drain time (not on a
timer) costs nothing when no deadlines are set and guarantees a batch
never contains an already-dead request.

Depth checks and enqueues happen synchronously on the event loop, so
admission order equals submit order — the property the byte-identity
tests lean on.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field

from ...obs import get_observability
from ...resilience import DeadlineExceeded
from ..api import PredictRequest, ServiceOverloaded

__all__ = ["AdmissionController", "PendingRequest"]

_OBS = get_observability()
_M_REJECTED = _OBS.counter(
    "repro_serve_rejected_total",
    "Predict requests rejected by admission (queue depth exceeded)",
)
_M_SHED = _OBS.counter(
    "repro_serve_deadline_shed_total",
    "Queued predict requests shed because their deadline expired",
)
_G_DEPTH = _OBS.gauge(
    "repro_serve_queue_depth",
    "Predict requests currently queued ahead of the micro-batcher",
)


@dataclass
class PendingRequest:
    """One admitted predict request waiting for a micro-batch slot."""

    request: PredictRequest
    future: asyncio.Future
    enqueued_at: float
    #: absolute monotonic expiry, or ``None`` when the caller waits forever.
    deadline: float | None = None
    #: filled in by the batcher when the request joins a coalesced forward.
    batch_size: int = field(default=1, compare=False)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class AdmissionController:
    """FIFO admission queue with a depth bound and drain estimation."""

    def __init__(
        self,
        max_depth: int,
        default_service_seconds: float,
        decay: float = 0.8,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        self.max_depth = int(max_depth)
        self._queue: deque[PendingRequest] = deque()
        self._nonempty = asyncio.Event()
        # EWMA of per-request service time, seeded with the configured
        # default so the very first rejection still quotes a finite wait.
        self._service_seconds = float(default_service_seconds)
        self._decay = float(decay)
        self.rejected = 0
        self.admitted = 0
        self.shed = 0

    @property
    def depth(self) -> int:
        return len(self._queue)

    def retry_after(self) -> float:
        """Estimated seconds until the current backlog has drained."""
        return max(1, len(self._queue)) * self._service_seconds

    def submit(self, request: PredictRequest, *, now: float) -> asyncio.Future:
        """Admit ``request`` or raise :class:`ServiceOverloaded`.

        Must be called from the event loop thread; the depth check and
        enqueue are atomic with respect to other coroutines.
        """
        if len(self._queue) >= self.max_depth:
            self.rejected += 1
            _M_REJECTED.inc()
            raise ServiceOverloaded(
                f"admission queue is full ({self.max_depth} pending)",
                retry_after=self.retry_after(),
            )
        loop = asyncio.get_running_loop()
        deadline = (
            now + request.deadline_seconds
            if request.deadline_seconds is not None
            else None
        )
        pending = PendingRequest(
            request=request,
            future=loop.create_future(),
            enqueued_at=now,
            deadline=deadline,
        )
        self._queue.append(pending)
        self.admitted += 1
        _G_DEPTH.set(len(self._queue))
        self._nonempty.set()
        return pending.future

    def evict(self, futures: list[asyncio.Future]) -> int:
        """Remove still-queued requests whose future is in ``futures``.

        Lets ``predict_many`` withdraw its partial submissions when a
        later submit in the same call is rejected, so an all-or-nothing
        batch submit never leaves orphaned work behind. Requests already
        drained into a batch are past the point of no return and are left
        to complete. Returns the number evicted.
        """
        targets = {id(f) for f in futures}
        kept = [p for p in self._queue if id(p.future) not in targets]
        evicted = len(self._queue) - len(kept)
        if evicted:
            self._queue.clear()
            self._queue.extend(kept)
            _G_DEPTH.set(len(self._queue))
            if not self._queue:
                self._nonempty.clear()
        return evicted

    async def wait_nonempty(self) -> None:
        """Block until at least one request is queued."""
        while not self._queue:
            self._nonempty.clear()
            await self._nonempty.wait()

    def _shed_one(self, pending: PendingRequest, now: float) -> None:
        self.shed += 1
        _M_SHED.inc()
        if not pending.future.done():
            pending.future.set_exception(
                DeadlineExceeded(
                    f"request {pending.request.request_id!r} spent "
                    f"{now - pending.enqueued_at:.4f}s queued, past its "
                    f"{pending.request.deadline_seconds}s deadline"
                )
            )

    def shed_expired(self, *, now: float) -> int:
        """Fail every queued request whose deadline has passed.

        Used by the graceful-stop drain; the batcher's normal path sheds
        lazily inside :meth:`drain`. Returns the number shed.
        """
        kept: list[PendingRequest] = []
        shed = 0
        for pending in self._queue:
            if pending.expired(now):
                self._shed_one(pending, now)
                shed += 1
            else:
                kept.append(pending)
        if shed:
            self._queue.clear()
            self._queue.extend(kept)
            _G_DEPTH.set(len(self._queue))
            if not self._queue:
                self._nonempty.clear()
        return shed

    def drain(self, limit: int, *, now: float | None = None) -> list[PendingRequest]:
        """Dequeue up to ``limit`` live requests in admission order.

        With ``now`` given, expired requests are shed (future failed with
        :class:`DeadlineExceeded`, counted) instead of occupying a batch
        slot; shed requests do not count against ``limit``.
        """
        batch: list[PendingRequest] = []
        while self._queue and len(batch) < limit:
            pending = self._queue.popleft()
            if now is not None and pending.expired(now):
                self._shed_one(pending, now)
                continue
            batch.append(pending)
        _G_DEPTH.set(len(self._queue))
        if not self._queue:
            self._nonempty.clear()
        return batch

    def record_service_time(self, per_request_seconds: float) -> None:
        """Fold a measured per-request service time into the EWMA."""
        if per_request_seconds <= 0:
            return
        self._service_seconds = (
            self._decay * self._service_seconds
            + (1.0 - self._decay) * per_request_seconds
        )
