"""Process-backed serving tier: supervised workers, heartbeats, recovery.

The single-loop service executes every coalesced forward on the event
loop; one hung forward (or one crash) takes the whole service down. This
module shards that work across N worker *processes*, each owning a warm
model replica (deserialized once from :class:`~repro.workflow.ModelStore`
blobs in the parent, inherited by the forked worker, compiled there),
under a supervisor that holds three guarantees:

1. **No acknowledged request is ever lost.** The parent keeps every
   dispatched batch until its result message arrives; when a worker
   crashes or stalls, its in-flight batch is re-enqueued at the *front*
   of the backlog and redispatched under a fresh batch id (bounded by
   :data:`MAX_DISPATCH_ATTEMPTS`, after which the batch's futures fail
   loudly — failed, never silently dropped).
2. **Determinism survives the process boundary.** Workers run only the
   pure half of the pipeline
   (:meth:`~repro.workflow.PredictionPipeline.score_with_isolation` —
   windows, one coalesced forward, detection); every side effect (alarm
   pushes, metrics) is applied by the parent in dispatch order through a
   :class:`~repro.serve._internal.batcher.SequencedMerger`. Chaos draws
   are keyed by batch id, and a re-dispatch gets a *new* id, so a seeded
   ``worker_kill_rate < 1`` cannot pin one batch forever.
3. **Serving never goes cold on a publish.** Rolling publishes walk the
   fleet one worker at a time: wait for the worker to go idle, ship the
   new model, await its compile ack, move on — the other N-1 workers keep
   serving the previous version throughout.

Liveness is heartbeat-based: the event loop reads every worker pipe
itself (``loop.add_reader``), so the loop is the only code that touches
a pipe and it closes a pipe directly when it tears a worker down. The
supervise task ticks every ``heartbeat_interval`` and declares a worker
dead when its process is gone (crash, also seen as pipe EOF), when a
dispatched batch outlives ``worker_stall_timeout`` (hung mid-batch), or
when an idle worker stops answering pings. Every restart path converges
on the same respawn: stop reading and close the old pipe, kill the
process, spawn a replacement from the parent-held model set, and measure
the outage in ``repro_serve_worker_recovery_seconds``.

The service keeps two batches in flight per worker: one scoring, one
waiting in the backlog. When a result arrives the waiting batch goes to
the worker before the finished one commits, so a worker does not idle
while the parent fans in one batch and collects the next. Each worker
still holds one batch at a time, which keeps stall detection and
re-enqueue per batch.

**Wire format.** Pickling a ``TestExecution`` or an ``AnomalyReport``
costs more per object than scoring it, so a batch crosses the pipe as a
few flat blocks (:func:`_pack_rows`): environment field tuples, each
row's ``(timesteps, features)`` shape, one float64 feature block, one
cpu block, and each row's ``(mu, sigma)`` or ``None``. The worker
rebuilds ``TestExecution`` views and runs
``PredictionPipeline.score_with_isolation``; rows keep their own
shapes, so a wrong-width row still fails alone. The reply
(:func:`_pack_outcomes`) is each scored row's window count, one block
each for predictions, observations, flags and errors, the alarms as
``(start, end, peak)`` tuples and ``{row: message}`` for failed rows,
plus the worker's deltas of the scoring counters (detections, alarms,
flagged and filtered timesteps, row failures, ...), which the parent
adds to its own registry. The parent rebuilds the outcomes as views of
the blocks.

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
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ...core.anomaly import Alarm, AnomalyReport, GaussianErrorModel
from ...core.model import Env2VecRegressor
from ...data.chains import TestExecution
from ...data.environment import Environment
from ...obs import get_observability
from ...workflow.model_store import CorruptModelError, ModelStore
from ...workflow.prediction_pipeline import PredictionPipeline
from ..api import ServeConfig, WorkerState

__all__ = ["WorkerSupervisor"]

#: dispatch attempts per batch before its requests are failed (each
#: worker crash/stall consumes one attempt for the batch it carried).
MAX_DISPATCH_ATTEMPTS = 5

#: model versions the parent and every worker keep. During a rolling
#: publish an updated worker must still hold the version the rest of the
#: fleet serves, as well as the new one.
_RESIDENT_VERSIONS = 2
#: seconds a spawned worker may take to report ready, and a worker may
#: take to acknowledge a published model.
_WORKER_START_TIMEOUT = 30.0

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


#: Scoring counters a worker increments; it ships their deltas back.
_FORWARDED_COUNTERS = tuple(
    _OBS.registry.get(name)
    for name in (
        "repro_detector_detections_total",
        "repro_detector_alarms_total",
        "repro_detector_flagged_timesteps_total",
        "repro_detector_filtered_timesteps_total",
        "repro_prediction_row_failures_total",
        "repro_predictions_total",
    )
)


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------

def _flat(arrays: list, dtype=None) -> np.ndarray:
    return np.concatenate(arrays, dtype=dtype) if arrays else np.empty(0, dtype)


def _pack_rows(rows: list) -> tuple:
    """``[(execution, error_model), ...]`` as flat blocks (module docstring)."""
    executions = [execution for execution, _ in rows]
    return (
        [execution.environment.as_tuple() for execution in executions],
        [execution.features.shape for execution in executions],
        _flat([execution.features.ravel() for execution in executions], np.float64),
        _flat([execution.cpu for execution in executions], np.float64),
        [None if model is None else (model.mu, model.sigma) for _, model in rows],
    )


def _unpack_rows(body: tuple) -> tuple[list[TestExecution], list]:
    """The executions (views of the blocks) and error models of a batch."""
    environments, shapes, features, cpu, models = body
    executions, at, step = [], 0, 0
    for fields, (steps, width) in zip(environments, shapes):
        size = steps * width
        executions.append(
            TestExecution(
                environment=Environment(*fields),
                features=features[at : at + size].reshape(steps, width),
                cpu=cpu[step : step + steps],
            )
        )
        at += size
        step += steps
    return executions, [None if m is None else GaussianErrorModel(*m) for m in models]


def _pack_outcomes(outcomes: list) -> tuple:
    """``score_with_isolation`` outcomes as flat blocks (module docstring).

    Every report of one batch comes from one detector, so ``gamma`` is
    shipped once.
    """
    ok = [outcome for outcome in outcomes if outcome[0] == "ok"]
    failed = {row: outcome[1] for row, outcome in enumerate(outcomes) if outcome[0] == "err"}
    reports = [report for _, report, _, _ in ok]
    return (
        [len(observed) for _, _, _, observed in ok],
        _flat([predictions for _, _, predictions, _ in ok]),
        _flat([observed for _, _, _, observed in ok]),
        _flat([report.flags for report in reports]),
        _flat([report.errors for report in reports]),
        [[(a.start, a.end, a.peak_deviation) for a in report.alarms] for report in reports],
        reports[0].gamma if reports else None,
        failed,
    )


def _unpack_outcomes(body: tuple, n_rows: int) -> list[tuple]:
    """The outcomes of a batch, their arrays views of the blocks."""
    lengths, predictions, observations, flags, errors, alarms, gamma, failed = body
    outcomes, at, scored = [], 0, 0
    for row in range(n_rows):
        if row in failed:
            outcomes.append(("err", failed[row]))
            continue
        end = at + lengths[scored]
        report = AnomalyReport(
            flags=flags[at:end],
            alarms=[Alarm(*alarm) for alarm in alarms[scored]],
            errors=errors[at:end],
            gamma=gamma,
        )
        outcomes.append(("ok", report, predictions[at:end], observations[at:end]))
        at = end
        scored += 1
    return outcomes


# ---------------------------------------------------------------------------
# Worker process side
# ---------------------------------------------------------------------------

def _worker_main(conn, init: dict) -> None:
    """Entry point of one scoring worker process.

    Single-threaded recv loop over the duplex pipe. The worker holds its
    ``_RESIDENT_VERSIONS`` newest compiled model replicas (the parent
    deserialized them; a forked worker inherits them) and a
    store-less :class:`PredictionPipeline` used purely for
    ``score_with_isolation`` — it never touches a ModelStore, AlarmStore,
    or TSDB, which is what keeps it byte-neutral.
    """
    pipeline = PredictionPipeline(
        None,  # type: ignore[arg-type] - scoring never touches the store
        None,  # type: ignore[arg-type] - ... or the alarm store
        gamma=init["gamma"],
        abs_threshold=init["abs_threshold"],
    )
    chaos = init.get("chaos")
    stall_seconds = init["stall_seconds"]
    models: dict[int, Env2VecRegressor] = {}

    def admit(version: int, model: Env2VecRegressor) -> None:
        model.compile()
        models[version] = model
        while len(models) > _RESIDENT_VERSIONS:
            del models[min(models)]

    for version, model in init["models"]:
        admit(version, model)
    conn.send(("ready", os.getpid()))
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "batch":
                _, batch_id, version, body = message
                if chaos is not None and chaos.worker_kill(batch_id):
                    os._exit(17)
                if chaos is not None and chaos.worker_stall(batch_id):
                    time.sleep(stall_seconds)
                model = models.get(version)
                used = version
                if model is None and models:
                    # The requested version is not resident: serve the
                    # newest one, as the pipeline's last-good model does.
                    used = max(models)
                    model = models[used]
                executions, error_models = _unpack_rows(body)
                if model is None:
                    outcomes = [("err", "worker has no resident model")] * len(executions)
                    conn.send(("result", batch_id, -1, 0, _pack_outcomes(outcomes), ()))
                    continue
                before = [counter.value for counter in _FORWARDED_COUNTERS]
                outcomes = pipeline.score_with_isolation(model, executions, error_models)
                deltas = tuple(c.value - b for c, b in zip(_FORWARDED_COUNTERS, before))
                conn.send(
                    ("result", batch_id, used, model.n_lags, _pack_outcomes(outcomes), deltas)
                )
            elif kind == "model":
                _, version, model = message
                admit(version, model)
                conn.send(("model_ready", version))
            elif kind == "ping":
                conn.send(("pong", message[1]))
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

    body: tuple  # _pack_rows of [(TestExecution, GaussianErrorModel | None), ...]
    future: asyncio.Future
    #: id of the latest dispatch; every dispatch, first or repeated, gets a new one
    batch_id: int = -1
    attempts: int = 0


@dataclass
class _Worker:
    """Parent-side bookkeeping for one worker incarnation."""

    worker_id: int
    epoch: int
    process: multiprocessing.process.BaseProcess | None = None
    conn: object = None
    phase: str = "starting"  # starting | ready | busy | publishing | dead
    inflight: _Dispatch | None = None
    dispatched_at: float = 0.0
    last_pong: float = 0.0
    versions: set = field(default_factory=set)
    #: set from the moment a rolling publish waits for this worker to go
    #: idle until its ack; no batch is dispatched to it meanwhile
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
        # fork: workers inherit the models the parent deserialized
        self._ctx = multiprocessing.get_context("fork")
        self._workers: dict[int, _Worker] = {}
        self._backlog: deque[_Dispatch] = deque()
        self._next_batch_id = 0
        #: deserialized, uncompiled replicas; a forked worker inherits them
        self._models: dict[int, Env2VecRegressor] = {}
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
        """Load the model, spawn the fleet, wait for every worker's ready."""
        self._loop = asyncio.get_running_loop()
        self._load_model(self._store.latest_version)
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

    def _load_model(self, version: int) -> None:
        """Deserialize a published version once; workers only compile it.

        The parent also reads the model geometry it needs for
        admission-time pre-checks off it, without compiling it.
        """
        if not version or version in self._models:
            return
        blob, _record = self._store.fetch(version)
        model = Env2VecRegressor.from_bytes(blob)
        self._models[version] = model
        while len(self._models) > _RESIDENT_VERSIONS:
            del self._models[min(self._models)]
        self.latest_version = max(self.latest_version, version)
        self.n_lags = model.n_lags

    def _spawn(self, worker: _Worker) -> None:
        """Start a fresh incarnation of ``worker`` (epoch already bumped)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        init = {
            "gamma": self._gamma,
            "abs_threshold": self._abs_threshold,
            "chaos": self._chaos,
            "stall_seconds": self.config.worker_stall_timeout * 10,
            "models": list(self._models.items()),
        }
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, init),
            name=f"repro-serve-worker-{worker.worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.phase = "starting"
        worker.versions = set(self._models)
        worker.last_pong = self._loop.time()
        self._loop.add_reader(parent_conn.fileno(), self._on_readable, worker, parent_conn)

    def _teardown(self, worker: _Worker) -> None:
        """Stop reading and close a worker's pipe, kill its process (idempotent)."""
        worker.epoch += 1
        worker.phase = "dead"
        self._idle_events[worker.worker_id].clear()
        conn = worker.conn
        if conn is not None:
            worker.conn = None
            try:
                conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
            self._loop.remove_reader(conn.fileno())
            conn.close()
        if worker.process is not None:
            process = worker.process
            worker.process = None
            if process.is_alive():
                process.kill()
            # Reap without blocking the loop.
            threading.Thread(target=process.join, daemon=True).start()

    # -- pipe -> loop ---------------------------------------------------

    def _on_readable(self, worker: _Worker, conn) -> None:
        """Read one message from a worker's pipe; EOF means it crashed."""
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # Stop watching a dead pipe; the restart (or stop) closes it.
            self._loop.remove_reader(conn.fileno())
            if worker.conn is conn and not self._stopping:
                self._restart(worker, reason="crash")
            return
        if worker.conn is conn:
            self._on_message(worker, message)

    def _on_message(self, worker: _Worker, message: tuple) -> None:
        kind = message[0]
        if kind == "ready":
            worker.phase = "ready"
            if worker.restart_began is not None:
                recovered = self._loop.time() - worker.restart_began
                worker.restart_began = None
                self.recovery_seconds.append(recovered)
                _H_RECOVERY.observe(recovered)
            worker.last_pong = self._loop.time()
            self._idle_events[worker.worker_id].set()
            self._update_ready_gauge()
            self._pump()
        elif kind == "pong":
            worker.last_pong = self._loop.time()
        elif kind == "model_ready":
            worker.versions.add(message[1])
            if worker.publish_ack is not None and not worker.publish_ack.done():
                worker.publish_ack.set_result(message[1])
        elif kind == "result":
            dispatch = worker.inflight
            worker.inflight = None
            worker.phase = "ready"
            worker.last_pong = self._loop.time()
            self._idle_events[worker.worker_id].set()
            # The queued batch goes out before this one commits.
            self._pump()
            if dispatch is not None and not dispatch.future.done():
                dispatch.future.set_result(message[2:])
            self._update_ready_gauge()

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
                    if now - worker.last_pong > _WORKER_START_TIMEOUT:
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
            # The replacement spawns with the full model set, new version
            # included — the publish is satisfied by the respawn itself.
            worker.publish_ack.set_result(-1)
        if dispatch is not None:
            dispatch.attempts += 1
            if dispatch.attempts >= MAX_DISPATCH_ATTEMPTS:
                if not dispatch.future.done():
                    dispatch.future.set_exception(
                        RuntimeError(
                            f"batch failed after {dispatch.attempts} dispatch "
                            f"attempts (last worker {worker.worker_id}: {reason})"
                        )
                    )
            else:
                # Front of the backlog so recovered work is not starved by
                # newly admitted work; its redispatch gets a fresh id, so
                # a fresh chaos draw.
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

    async def _wait_all_ready(self) -> None:
        deadline = self._loop.time() + _WORKER_START_TIMEOUT
        for worker_id, event in self._idle_events.items():
            remaining = deadline - self._loop.time()
            try:
                await asyncio.wait_for(event.wait(), max(0.01, remaining))
            except asyncio.TimeoutError:
                raise RuntimeError(
                    f"worker {worker_id} did not become ready within "
                    f"{_WORKER_START_TIMEOUT}s"
                ) from None

    # -- dispatch -------------------------------------------------------

    def _pump(self) -> None:
        """Hand backlog batches to ready workers, lowest worker id first."""
        while self._backlog:
            candidates = [
                w for w in self._workers.values()
                if w.phase == "ready" and w.publish_ack is None
            ]
            if not candidates:
                return
            worker = min(candidates, key=lambda w: w.worker_id)
            dispatch = self._backlog.popleft()
            dispatch.batch_id = self._next_batch_id
            self._next_batch_id += 1
            worker.phase = "busy"
            worker.inflight = dispatch
            worker.dispatched_at = self._loop.time()
            self._idle_events[worker.worker_id].clear()
            try:
                worker.conn.send(
                    ("batch", dispatch.batch_id, self.latest_version, dispatch.body)
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
        dispatch = _Dispatch(body=_pack_rows(rows), future=self._loop.create_future())
        self._backlog.append(dispatch)
        self._pump()
        used_version, n_lags, body, deltas = await dispatch.future
        for counter, delta in zip(_FORWARDED_COUNTERS, deltas):
            if delta:
                counter.inc(delta)
        return used_version, n_lags, _unpack_outcomes(body, len(rows))

    # -- rolling publish ------------------------------------------------

    def schedule_publish(self, version: int) -> asyncio.Task | None:
        """React to a store publish: roll the fleet onto ``version``.

        Fired synchronously from the store's subscriber hook; the actual
        rollout runs as a task so the publisher is never blocked on N
        compiles. Corrupt blobs are absorbed, as the single-loop
        service's publish hook absorbs them: the fleet keeps serving its
        newest good version.
        """
        try:
            self._load_model(version)
        except CorruptModelError:
            return None
        if self._loop is None or self._stopping:
            return None  # next start()/spawn ships the model anyway
        task = self._loop.create_task(
            self._rolling_publish(version), name=f"serve-publish-v{version}"
        )
        self._publish_tasks.add(task)
        task.add_done_callback(self._publish_tasks.discard)
        return task

    async def _rolling_publish(self, version: int) -> None:
        model = self._models.get(version)
        if model is None:
            return
        async with self._publish_lock:
            for worker_id in sorted(self._workers):
                await self._publish_to_worker(self._workers[worker_id], version, model)
            self.latest_version = max(self.latest_version, version)

    async def _publish_to_worker(self, worker: _Worker, version: int, model) -> None:
        """Drain one worker, ship the model, await its compile ack.

        ``publish_ack`` is set before the wait, so the worker finishes
        its batch and then takes no other one until the ack.
        """
        worker.publish_ack = self._loop.create_future()
        try:
            while worker.phase != "ready":
                if version in worker.versions:
                    return  # respawned with the new model set already
                await self._idle_events[worker.worker_id].wait()
            if version in worker.versions:
                return
            worker.phase = "publishing"
            self._idle_events[worker.worker_id].clear()
            try:
                worker.conn.send(("model", version, model))
            except (BrokenPipeError, OSError):
                self._restart(worker, reason="crash")
                return
            try:
                await asyncio.wait_for(
                    worker.publish_ack, _WORKER_START_TIMEOUT
                )
            except asyncio.TimeoutError:
                self._restart(worker, reason="publish_timeout")
                return
            if worker.phase == "publishing":
                worker.phase = "ready"
                self._idle_events[worker.worker_id].set()
                self._update_ready_gauge()
        finally:
            worker.publish_ack = None
            if not self._stopping:
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
