"""Cross-chain micro-batching over the admission queue.

The batcher is a single background task that repeatedly (1) waits for
the admission queue to become non-empty, (2) greedily drains whatever is
already queued up to ``max_batch`` — shedding any request whose deadline
already expired, (3) tops the batch up while requests keep arriving:
it yields one event-loop iteration and drains what came in, stopping at
the first iteration that adds nothing, at a full batch, after
``max_wait`` seconds, or at the earliest deadline it holds, then
(4) hands the batch to the service's execute callback, which runs the
coalesced forward and resolves each request's future in admission order.

The top-up never sleeps on a clock. Under load a commit wakes the
closed-loop clients and they resubmit within the next loop iteration,
so saturated batches still fill; at light load an idle executor gets a
lone request on the next iteration instead of after ``max_wait``.

The execute callback comes in two shapes. A plain callable runs
synchronously on the loop (the single-process service). A coroutine
function is scheduled as a task and the batcher immediately collects the
next batch, keeping up to ``max_inflight`` batches in flight — that is
how the supervised service keeps N worker processes busy from one drain
loop while batch *composition* stays a deterministic function of arrival
order. The supervised service passes two batches per worker: while a
worker scores one, the next waits in the supervisor's backlog, so the
worker starts on it as soon as it answers instead of waiting for the
parent to commit that answer and collect a new batch.

Because every compiled kernel in the model is row-wise, the *numbers* a
request gets back are independent of which batch it landed in — batch
composition affects throughput and latency only. That is what makes the
timing-dependent coalescing safe to combine with byte-identity tests.

Batches can finish out of order under the supervisor;
:class:`SequencedMerger` puts their results back in batch order before
fan-in applies side effects.
"""

from __future__ import annotations

import asyncio
import inspect
from typing import Callable

from ...obs import get_observability
from .admission import AdmissionController, PendingRequest

__all__ = ["MicroBatcher", "SequencedMerger"]

_OBS = get_observability()
_M_BATCHES = _OBS.counter(
    "repro_serve_batches_total",
    "Coalesced forwards executed by the micro-batcher",
)
_H_BATCH_SIZE = _OBS.histogram(
    "repro_serve_batch_size",
    "Requests coalesced per micro-batch",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
)


class MicroBatcher:
    """Background drain loop: admission queue -> coalesced executes."""

    def __init__(
        self,
        admission: AdmissionController,
        *,
        max_batch: int,
        max_wait: float,
        execute: Callable[[list[PendingRequest]], object],
        max_inflight: int = 1,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self._admission = admission
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self._execute = execute
        self._async_execute = inspect.iscoroutinefunction(execute)
        self.max_inflight = int(max_inflight)
        self._inflight: set[asyncio.Task] = set()
        self._task: asyncio.Task | None = None

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    def start(self) -> None:
        if self.running:
            raise RuntimeError("micro-batcher is already running")
        self._task = asyncio.get_running_loop().create_task(self._run(), name="serve-batcher")

    async def stop(self, drain: bool = True) -> None:
        """Stop the drain loop.

        If the loop was running and ``drain`` is true, this is a
        *graceful drain*: expired queued requests are shed with
        ``DeadlineExceeded``, live queued requests are batched and
        completed, and in-flight async batches are awaited — an
        acknowledged live request is never dropped by a clean shutdown.
        With ``drain=False`` (a simulated crash), or if the loop never
        started, queued futures can never complete, so they are failed
        loudly instead.
        """
        if self._task is None:
            self._fail_queued()
            return
        was_running = self.running
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None
        if not was_running or not drain:
            for task in list(self._inflight):
                task.cancel()
            if self._inflight:
                await asyncio.gather(*self._inflight, return_exceptions=True)
                self._inflight.clear()
            self._fail_queued()
            return
        loop = asyncio.get_running_loop()
        self._admission.shed_expired(now=loop.time())
        while True:
            batch = self._admission.drain(self.max_batch, now=loop.time())
            if not batch:
                break
            await self._dispatch(batch)
        if self._inflight:
            await asyncio.gather(*self._inflight, return_exceptions=True)
            self._inflight.clear()

    def _fail_queued(self) -> None:
        for pending in self._admission.drain(self._admission.max_depth):
            if not pending.future.done():
                pending.future.set_exception(
                    RuntimeError("service stopped before the request was batched")
                )

    async def _collect(self) -> list[PendingRequest]:
        """Assemble one batch: greedy drain, then top up while requests arrive."""
        await self._admission.wait_nonempty()
        loop = asyncio.get_running_loop()
        batch = self._admission.drain(self.max_batch, now=loop.time())
        if self.max_wait > 0 and len(batch) < self.max_batch:
            # Topping up must not expire what we hold: stop at the
            # earliest deadline in the batch, arrivals included. (The
            # queue is empty here: a drain stops short only on an empty
            # queue.)
            deadline = _earliest(batch, loop.time() + self.max_wait)
            while len(batch) < self.max_batch and loop.time() < deadline:
                await asyncio.sleep(0)
                arrived = self._admission.drain(
                    self.max_batch - len(batch), now=loop.time()
                )
                if not arrived:
                    break
                batch.extend(arrived)
                deadline = _earliest(arrived, deadline)
        return batch

    async def _dispatch(self, batch: list[PendingRequest]) -> None:
        """Run one batch through the execute callback (sync or async)."""
        for pending in batch:
            pending.batch_size = len(batch)
        _M_BATCHES.inc()
        _H_BATCH_SIZE.observe(len(batch))
        if not self._async_execute:
            # The forward runs synchronously on the loop: numpy releases
            # the GIL only inside kernels and the model is not re-entrant,
            # so there is nothing to gain from a thread hop — and staying
            # on the loop keeps execution order deterministic.
            try:
                self._execute(batch)
            except Exception as exc:  # noqa: BLE001 - fail the batch, not the loop
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(exc)
            return
        while len(self._inflight) >= self.max_inflight:
            done, self._inflight = await asyncio.wait(
                self._inflight, return_when=asyncio.FIRST_COMPLETED
            )
            del done  # task exceptions are handled inside _guarded
        task = asyncio.get_running_loop().create_task(
            self._guarded(batch), name="serve-batch-exec"
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _guarded(self, batch: list[PendingRequest]) -> None:
        try:
            await self._execute(batch)
        except Exception as exc:  # noqa: BLE001 - fail the batch, not the loop
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)

    async def _run(self) -> None:
        while True:
            batch = await self._collect()
            if not batch:
                continue
            await self._dispatch(batch)
            # Yield once per batch so resolved waiters run before the
            # next drain, letting closed-loop clients re-submit and form
            # the next coalesced batch.
            await asyncio.sleep(0)


def _earliest(requests: list[PendingRequest], bound: float) -> float:
    """The soonest of ``bound`` and the requests' deadlines."""
    for pending in requests:
        if pending.deadline is not None and pending.deadline < bound:
            bound = pending.deadline
    return bound


class SequencedMerger:
    """Release out-of-order completions in strict submission order.

    In the serve supervisor, batches complete on whichever worker
    process finishes first, but side effects (alarm pushes) must be
    applied in dispatch order to stay byte-identical to a serial run. ``put(seq, item)`` buffers the item
    and returns every ``(seq, item)`` pair that is now releasable — a
    contiguous run starting at the next unreleased sequence number.

    Single-threaded by design: it lives on an event loop.
    """

    def __init__(self, start: int = 0):
        self._next = int(start)
        self._buffer: dict[int, object] = {}

    @property
    def pending(self) -> int:
        """Completed items buffered behind an earlier, unfinished one."""
        return len(self._buffer)

    def put(self, seq: int, item) -> list[tuple[int, object]]:
        """Buffer ``item`` under ``seq``; return the newly releasable run."""
        if seq < self._next or seq in self._buffer:
            raise ValueError(f"sequence {seq} was already released or buffered")
        self._buffer[seq] = item
        released: list[tuple[int, object]] = []
        while self._next in self._buffer:
            released.append((self._next, self._buffer.pop(self._next)))
            self._next += 1
        return released
