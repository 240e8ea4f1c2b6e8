"""Process-backed serving tier: supervised workers, heartbeats, recovery.

The single-loop service executes every coalesced forward on the event
loop; one hung forward (or one crash) takes the whole service down. This
module shards that work across N worker *processes*, each owning a warm
model replica rehydrated from :class:`~repro.workflow.ModelStore` blobs
on spawn, under a supervisor that holds three guarantees:

1. **No acknowledged request is ever lost.** The parent keeps every
   dispatched batch until its result message arrives; when a worker
   crashes or stalls, its in-flight batch is re-enqueued at the *front*
   of the backlog under a fresh batch id and redispatched (bounded by
   ``max_dispatch_attempts``, after which the batch's futures fail
   loudly — failed, never silently dropped).
2. **Determinism survives the process boundary.** Workers run only the
   pure half of the pipeline
   (:meth:`~repro.workflow.PredictionPipeline.score_with_isolation` —
   windows, one coalesced forward, detection); every side effect (alarm
   pushes, metrics) is applied by the parent in dispatch order through a
   :class:`~repro.parallel.SequencedMerger`. Chaos draws are keyed by
   batch id, and a re-dispatch gets a *new* id, so a seeded
   ``worker_kill_rate < 1`` cannot pin one batch forever.
3. **Serving never goes cold on a publish.** Rolling publishes walk the
   fleet one worker at a time: wait for the worker to go idle, ship the
   new blob, await its compile ack, move on — the other N-1 workers keep
   serving the previous version throughout.

Liveness is heartbeat-based: a reader thread per worker forwards pipe
messages onto the loop; the supervise task ticks every
``heartbeat_interval`` and declares a worker dead when its process is
gone (crash), when a dispatched batch outlives ``worker_stall_timeout``
(hung mid-batch), or when an idle worker stops answering pings. Every
restart path converges on the same respawn: bump the worker's epoch
(messages from the old incarnation are dropped by epoch tag), kill the
process, spawn a replacement from the parent-held blob set, and measure
the outage in ``repro_serve_worker_recovery_seconds``.

This file is the one sanctioned home for process-management APIs
(``os.kill``/``os._exit``/``multiprocessing.Process``/...); lint rule
REP011 keeps it that way.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from ...core.model import Env2VecRegressor
from ...obs import get_observability
from ...workflow.model_store import CorruptModelError, ModelStore
from ...workflow.prediction_pipeline import PredictionPipeline
from ..api import ServeConfig, WorkerState

__all__ = ["WorkerSupervisor"]

_OBS = get_observability()
_M_RESTARTS = _OBS.counter(
    "repro_serve_worker_restarts_total",
    "Supervised worker restarts, by detection reason.",
    labels=("reason",),
)
_M_REENQUEUED = _OBS.counter(
    "repro_serve_inflight_reenqueued_total",
    "In-flight batches re-enqueued after their worker died or stalled.",
)
_G_READY = _OBS.gauge(
    "repro_serve_workers_ready",
    "Supervised workers currently able to take a batch (ready or busy).",
)
_H_RECOVERY = _OBS.histogram(
    "repro_serve_worker_recovery_seconds",
    "Outage per worker restart: failure detected to replacement ready.",
    buckets=(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0),
)


# ---------------------------------------------------------------------------
# Worker process side
# ---------------------------------------------------------------------------

def _worker_main(worker_id: int, epoch: int, conn, init: dict) -> None:
    """Entry point of one scoring worker process.

    Single-threaded recv loop over the duplex pipe. The worker holds a
    capacity-bounded dict of rehydrated+compiled model replicas and a
    store-less :class:`PredictionPipeline` used purely for
    ``score_with_isolation`` — it never touches a ModelStore, AlarmStore,
    or TSDB, which is what keeps it byte-neutral and spawn-safe.
    """
    pipeline = PredictionPipeline(
        None,  # type: ignore[arg-type] - scoring never touches the store
        None,  # type: ignore[arg-type] - ... or the alarm store
        gamma=init["gamma"],
        abs_threshold=init["abs_threshold"],
    )
    chaos = init.get("chaos")
    stall_seconds = init["stall_seconds"]
    capacity = init["capacity"]
    dtype = np.dtype(init.get("dtype", "float64")).type
    models: OrderedDict[int, Env2VecRegressor] = OrderedDict()

    def admit(version: int, blob: bytes) -> None:
        model = Env2VecRegressor.from_bytes(blob)
        model.compile(dtype=dtype)
        models[version] = model
        while len(models) > capacity:
            del models[min(models)]

    for version, blob in init["blobs"]:
        admit(version, blob)
    conn.send(("ready", epoch, worker_id, os.getpid()))
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "batch":
                _, batch_id, version, rows = message
                if chaos is not None and chaos.worker_kill(batch_id):
                    os._exit(17)
                if chaos is not None and chaos.worker_stall(batch_id):
                    time.sleep(stall_seconds)
                model = models.get(version)
                used = version
                if model is None and models:
                    # Mirror the warm pool's fallback: newest resident.
                    used = max(models)
                    model = models[used]
                if model is None:
                    outcomes = [("err", "worker has no resident model")] * len(rows)
                    conn.send(("result", epoch, batch_id, -1, 0, outcomes))
                    continue
                executions = [execution for execution, _ in rows]
                error_models = [error_model for _, error_model in rows]
                outcomes = pipeline.score_with_isolation(model, executions, error_models)
                conn.send(("result", epoch, batch_id, used, model.n_lags, outcomes))
            elif kind == "model":
                _, version, blob = message
                admit(version, blob)
                conn.send(("model_ready", epoch, version))
            elif kind == "ping":
                conn.send(("pong", epoch, message[1]))
            elif kind == "shutdown":
                break
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

@dataclass
class _Dispatch:
    """One batch the supervisor has acknowledged and must answer."""

    batch_id: int
    rows: list  # [(TestExecution, GaussianErrorModel | None), ...]
    future: asyncio.Future
    attempts: int = 0


@dataclass
class _Worker:
    """Parent-side bookkeeping for one worker incarnation."""

    worker_id: int
    epoch: int
    process: multiprocessing.process.BaseProcess | None = None
    conn: object = None
    #: set once the loop stops using ``conn``; the reader then closes it
    released: threading.Event | None = None
    phase: str = "starting"  # starting | ready | busy | publishing | dead
    inflight: _Dispatch | None = None
    dispatched_at: float = 0.0
    last_pong: float = 0.0
    versions: set = field(default_factory=set)
    publish_ack: asyncio.Future | None = None
    restart_began: float | None = None


class WorkerSupervisor:
    """Owns N scoring processes; detects failure, restarts, re-enqueues.

    The public surface is four calls: :meth:`start`, :meth:`score` (the
    service's async batch executor), :meth:`publish` (rolling model
    rollout) and :meth:`stop`. Everything else — heartbeats, stall
    detection, respawn, redispatch — happens inside the supervise task.
    """

    def __init__(
        self,
        store: ModelStore,
        config: ServeConfig,
        *,
        gamma: float = 2.0,
        abs_threshold: float = 5.0,
        chaos=None,
    ):
        if config.n_workers < 1:
            raise ValueError("WorkerSupervisor needs n_workers >= 1")
        self._store = store
        self.config = config
        self._gamma = gamma
        self._abs_threshold = abs_threshold
        self._chaos = chaos
        self._ctx = multiprocessing.get_context(config.worker_start_method)
        self._workers: dict[int, _Worker] = {}
        self._backlog: deque[_Dispatch] = deque()
        self._next_batch_id = 0
        self._blobs: OrderedDict[int, bytes] = OrderedDict()
        self.latest_version = 0
        self.n_lags: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._supervise_task: asyncio.Task | None = None
        self._publish_lock = asyncio.Lock()
        self._publish_tasks: set[asyncio.Task] = set()
        self._idle_events: dict[int, asyncio.Event] = {}
        self._stopping = False
        self.restarts = 0
        self.reenqueued = 0
        self.recovery_seconds: list[float] = []
        self.restart_log: list[tuple[float, int, str]] = []

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Load blobs, spawn the fleet, wait for every worker's ready."""
        self._loop = asyncio.get_running_loop()
        self._load_blob(self._store.latest_version)
        for worker_id in range(self.config.n_workers):
            self._workers[worker_id] = _Worker(worker_id=worker_id, epoch=0)
            self._idle_events[worker_id] = asyncio.Event()
            self._spawn(self._workers[worker_id])
        await self._wait_all_ready()
        self._supervise_task = self._loop.create_task(
            self._supervise(), name="serve-supervisor"
        )

    async def stop(self) -> None:
        """Shut the fleet down; pending dispatches fail loudly."""
        self._stopping = True
        if self._supervise_task is not None:
            self._supervise_task.cancel()
            try:
                await self._supervise_task
            except asyncio.CancelledError:
                pass
            self._supervise_task = None
        for task in list(self._publish_tasks):
            task.cancel()
        if self._publish_tasks:
            await asyncio.gather(*self._publish_tasks, return_exceptions=True)
            self._publish_tasks.clear()
        for dispatch in (*self._backlog, *(
            w.inflight for w in self._workers.values() if w.inflight is not None
        )):
            if not dispatch.future.done():
                dispatch.future.set_exception(
                    RuntimeError("supervisor stopped before the batch was scored")
                )
        self._backlog.clear()
        for worker in self._workers.values():
            worker.inflight = None
            self._teardown(worker)
        _G_READY.set(0)

    def _load_blob(self, version: int) -> None:
        if not version or version in self._blobs:
            return
        blob, _record = self._store.fetch(version)
        self._blobs[version] = blob
        while len(self._blobs) > self.config.pool_capacity:
            del self._blobs[min(self._blobs)]
        self.latest_version = max(self.latest_version, version)
        # One uncompiled deserialize gives the parent the model geometry
        # it needs for admission-time pre-checks without a warm pool.
        self.n_lags = Env2VecRegressor.from_bytes(blob).n_lags

    def _spawn(self, worker: _Worker) -> None:
        """Start a fresh incarnation of ``worker`` (epoch already bumped)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        init = {
            "gamma": self._gamma,
            "abs_threshold": self._abs_threshold,
            "chaos": self._chaos,
            "capacity": self.config.pool_capacity,
            "stall_seconds": self.config.worker_stall_timeout * 10,
            "dtype": self.config.inference_dtype,
            "blobs": list(self._blobs.items()),
        }
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker.worker_id, worker.epoch, child_conn, init),
            name=f"repro-serve-worker-{worker.worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.released = threading.Event()
        worker.phase = "starting"
        worker.versions = set(self._blobs)
        worker.last_pong = self._loop.time()
        reader = threading.Thread(
            target=self._read_forever,
            args=(parent_conn, worker.released, worker.worker_id, worker.epoch),
            name=f"repro-serve-reader-{worker.worker_id}",
            daemon=True,
        )
        reader.start()

    def _teardown(self, worker: _Worker) -> None:
        """Stop using a worker's pipe and kill its process (idempotent).

        The pipe is not closed here: the reader thread may be blocked in
        ``conn.recv()`` on it, and closing under it raises in that thread.
        The loop only lets go of the pipe; the reader closes it once the
        dead process's end reaches EOF.
        """
        worker.epoch += 1  # stale reader callbacks are dropped by epoch
        worker.phase = "dead"
        self._idle_events[worker.worker_id].clear()
        if worker.conn is not None:
            try:
                worker.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
            worker.conn = None
            worker.released.set()
        if worker.process is not None:
            process = worker.process
            worker.process = None
            if process.is_alive():
                process.kill()
            # Reap without blocking the loop.
            threading.Thread(target=process.join, daemon=True).start()

    # -- reader thread -> loop -----------------------------------------

    def _read_forever(self, conn, released: threading.Event, worker_id: int, epoch: int) -> None:
        """Forward one incarnation's messages; the pipe's only closer.

        After EOF it waits until the loop has torn the worker down (and so
        will never send on the pipe again) before closing, so neither a
        ``recv`` nor a ``send`` can race the close.
        """
        loop = self._loop
        try:
            while True:
                message = conn.recv()
                loop.call_soon_threadsafe(self._on_message, worker_id, epoch, message)
        except (EOFError, OSError):
            try:
                loop.call_soon_threadsafe(self._on_eof, worker_id, epoch)
            except RuntimeError:
                released.set()  # loop already closed: nothing sends any more
        except RuntimeError:
            released.set()  # the loop closed while the worker was still talking
        released.wait()
        conn.close()

    def _on_message(self, worker_id: int, epoch: int, message: tuple) -> None:
        worker = self._workers.get(worker_id)
        if worker is None or worker.epoch != epoch:
            return  # stale incarnation
        kind = message[0]
        if kind == "ready":
            worker.phase = "ready"
            if worker.restart_began is not None:
                recovered = self._loop.time() - worker.restart_began
                worker.restart_began = None
                self.recovery_seconds.append(recovered)
                _H_RECOVERY.observe(recovered)
            worker.last_pong = self._loop.time()
            self._idle_events[worker_id].set()
            self._update_ready_gauge()
            self._pump()
        elif kind == "pong":
            worker.last_pong = self._loop.time()
        elif kind == "model_ready":
            _, _, version = message
            worker.versions.add(version)
            if worker.publish_ack is not None and not worker.publish_ack.done():
                worker.publish_ack.set_result(version)
        elif kind == "result":
            _, _, batch_id, used_version, n_lags, outcomes = message
            dispatch = worker.inflight
            worker.inflight = None
            worker.phase = "ready"
            worker.last_pong = self._loop.time()
            self._idle_events[worker_id].set()
            if dispatch is not None and not dispatch.future.done():
                dispatch.future.set_result((used_version, n_lags, outcomes))
            self._update_ready_gauge()
            self._pump()

    def _on_eof(self, worker_id: int, epoch: int) -> None:
        worker = self._workers.get(worker_id)
        if worker is None or worker.epoch != epoch or self._stopping:
            return
        self._restart(worker, reason="crash")

    # -- supervision ----------------------------------------------------

    async def _supervise(self) -> None:
        interval = self.config.heartbeat_interval
        while True:
            await asyncio.sleep(interval)
            now = self._loop.time()
            for worker in self._workers.values():
                if worker.phase == "dead":
                    continue
                process = worker.process
                if process is not None and not process.is_alive():
                    self._restart(worker, reason="crash")
                    continue
                if (
                    worker.phase == "busy"
                    and now - worker.dispatched_at > self.config.worker_stall_timeout
                ):
                    self._restart(worker, reason="stall")
                    continue
                if worker.phase == "starting":
                    if now - worker.last_pong > self.config.worker_start_timeout:
                        self._restart(worker, reason="start_timeout")
                    continue
                if worker.phase == "ready":
                    if now - worker.last_pong > self.config.worker_stall_timeout:
                        self._restart(worker, reason="idle_hang")
                        continue
                    try:
                        worker.conn.send(("ping", now))
                    except (BrokenPipeError, OSError):
                        self._restart(worker, reason="crash")

    def _restart(self, worker: _Worker, *, reason: str) -> None:
        """Declare a worker dead, requeue its batch, spawn a replacement."""
        if self._stopping:
            return
        self.restarts += 1
        _M_RESTARTS.labels(reason=reason).inc()
        began = self._loop.time()
        worker.restart_began = began
        self.restart_log.append((began, worker.worker_id, reason))
        dispatch = worker.inflight
        worker.inflight = None
        if worker.publish_ack is not None and not worker.publish_ack.done():
            # The replacement spawns with the full blob set, new version
            # included — the publish is satisfied by the respawn itself.
            worker.publish_ack.set_result(-1)
        if dispatch is not None:
            dispatch.attempts += 1
            if dispatch.attempts >= self.config.max_dispatch_attempts:
                if not dispatch.future.done():
                    dispatch.future.set_exception(
                        RuntimeError(
                            f"batch failed after {dispatch.attempts} dispatch "
                            f"attempts (last worker {worker.worker_id}: {reason})"
                        )
                    )
            else:
                # Fresh id => fresh chaos draw; front of the backlog so
                # recovered work is not starved by newly admitted work.
                dispatch.batch_id = self._next_batch_id
                self._next_batch_id += 1
                self.reenqueued += 1
                _M_REENQUEUED.inc()
                self._backlog.appendleft(dispatch)
        self._teardown(worker)
        self._spawn(worker)
        self._update_ready_gauge()

    def _update_ready_gauge(self) -> None:
        _G_READY.set(self.available_count)

    @property
    def available_count(self) -> int:
        """Workers currently able to serve (ready now, or finishing a batch)."""
        return sum(1 for w in self._workers.values() if w.phase in ("ready", "busy"))

    @property
    def ready_count(self) -> int:
        return sum(1 for w in self._workers.values() if w.phase == "ready")

    async def _wait_all_ready(self) -> None:
        deadline = self._loop.time() + self.config.worker_start_timeout
        for worker_id, event in self._idle_events.items():
            remaining = deadline - self._loop.time()
            try:
                await asyncio.wait_for(event.wait(), max(0.01, remaining))
            except asyncio.TimeoutError:
                raise RuntimeError(
                    f"worker {worker_id} did not become ready within "
                    f"{self.config.worker_start_timeout}s"
                ) from None

    # -- dispatch -------------------------------------------------------

    def _pump(self) -> None:
        """Hand backlog batches to ready workers, lowest worker id first."""
        while self._backlog:
            candidates = [w for w in self._workers.values() if w.phase == "ready"]
            if not candidates:
                return
            worker = min(candidates, key=lambda w: w.worker_id)
            dispatch = self._backlog.popleft()
            worker.phase = "busy"
            worker.inflight = dispatch
            worker.dispatched_at = self._loop.time()
            self._idle_events[worker.worker_id].clear()
            try:
                worker.conn.send(
                    ("batch", dispatch.batch_id, self.latest_version, dispatch.rows)
                )
            except (BrokenPipeError, OSError):
                self._restart(worker, reason="crash")

    async def score(self, rows: list) -> tuple[int, int, list]:
        """Score ``rows`` on some worker; survives crashes and stalls.

        ``rows`` is ``[(execution, error_model), ...]``. Returns
        ``(used_model_version, n_lags, outcomes)`` where each outcome is
        ``("ok", report, predictions, observations)`` or
        ``("err", message)``, aligned with ``rows``. The returned future
        resolves only when a worker has actually answered (or the batch
        exhausted its dispatch attempts) — acknowledged work is never
        dropped on the floor.
        """
        dispatch = _Dispatch(
            batch_id=self._next_batch_id,
            rows=list(rows),
            future=self._loop.create_future(),
        )
        self._next_batch_id += 1
        self._backlog.append(dispatch)
        self._pump()
        return await dispatch.future

    # -- rolling publish ------------------------------------------------

    def schedule_publish(self, version: int) -> asyncio.Task | None:
        """React to a store publish: roll the fleet onto ``version``.

        Fired synchronously from the store's subscriber hook; the actual
        rollout runs as a task so the publisher is never blocked on N
        compiles. Corrupt blobs are absorbed exactly like the warm pool:
        the fleet keeps serving its newest good version.
        """
        try:
            self._load_blob(version)
        except CorruptModelError:
            return None
        if self._loop is None or self._stopping:
            return None  # next start()/spawn ships the blob anyway
        task = self._loop.create_task(
            self._rolling_publish(version), name=f"serve-publish-v{version}"
        )
        self._publish_tasks.add(task)
        task.add_done_callback(self._publish_tasks.discard)
        return task

    async def _rolling_publish(self, version: int) -> None:
        blob = self._blobs.get(version)
        if blob is None:
            return
        async with self._publish_lock:
            for worker_id in sorted(self._workers):
                await self._publish_to_worker(self._workers[worker_id], version, blob)
            self.latest_version = max(self.latest_version, version)

    async def _publish_to_worker(self, worker: _Worker, version: int, blob) -> None:
        """Drain one worker, ship the blob, await its compile ack."""
        while True:
            if version in worker.versions:
                return  # respawned with the new blob set already
            if worker.phase == "ready":
                break
            await self._idle_events[worker.worker_id].wait()
        worker.phase = "publishing"
        self._idle_events[worker.worker_id].clear()
        worker.publish_ack = self._loop.create_future()
        try:
            worker.conn.send(("model", version, blob))
        except (BrokenPipeError, OSError):
            self._restart(worker, reason="crash")
            return
        try:
            await asyncio.wait_for(
                worker.publish_ack, self.config.worker_start_timeout
            )
        except asyncio.TimeoutError:
            self._restart(worker, reason="publish_timeout")
            return
        finally:
            worker.publish_ack = None
        if worker.phase == "publishing":
            worker.phase = "ready"
            self._idle_events[worker.worker_id].set()
            self._update_ready_gauge()
            self._pump()

    # -- introspection --------------------------------------------------

    def worker_states(self) -> tuple[WorkerState, ...]:
        """Liveness snapshot for ``health()``."""
        states = []
        for worker_id in sorted(self._workers):
            worker = self._workers[worker_id]
            states.append(
                WorkerState(
                    worker_id=worker_id,
                    phase=worker.phase,
                    epoch=worker.epoch + 1,
                    model_version=max(worker.versions) if worker.versions else 0,
                    inflight_batch=(
                        worker.inflight.batch_id if worker.inflight is not None else None
                    ),
                )
            )
        return tuple(states)
