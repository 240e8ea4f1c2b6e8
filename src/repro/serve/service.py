"""The always-on serving layer: campaign-as-a-service.

:class:`Env2VecService` turns the batch workflow (scrape → predict →
alarm) into a long-running asyncio service with one typed request API:

- **admission** — a bounded FIFO; past ``max_queue_depth`` submits are
  rejected synchronously with :class:`~repro.serve.ServiceOverloaded`
  (explicit backpressure, never an unbounded queue); requests carrying a
  ``deadline_seconds`` budget are shed with
  :class:`~repro.resilience.DeadlineExceeded` once it lapses in queue,
- **micro-batching** — a background drain loop coalesces queued predict
  requests across chains into one batched forward, topping a batch up
  only while requests keep arriving (at most ``max_batch`` requests and
  ``max_wait`` seconds; it never idles on a timer), which is safe
  because every compiled kernel is row-wise: the numbers are
  byte-identical to batch
  :meth:`~repro.workflow.PredictionPipeline.execute` no matter how
  traffic happens to batch,
- **execution** — on the event loop (``n_workers=0``), or sharded across
  N supervised worker processes
  (:class:`~repro.serve._internal.supervisor.WorkerSupervisor`): workers
  run the pure scoring half only; alarm fan-in happens here, in dispatch
  order through a :class:`~repro.serve._internal.batcher.SequencedMerger`,
  so both modes are byte-identical to batch mode and to each other,
- **warm models** — publishes compile off the request path (a publish
  hook fills the prediction pipeline's model cache on the loop; rolling
  one-worker-at-a-time rollouts under the supervisor), so a retrain swaps
  in without a cold-compile spike,
- **resilience at the boundary** — a :class:`~repro.resilience.CircuitBreaker`
  around the TSDB scrape path fails fast during outages; rejections
  carry ``retry_after`` hints sized from measured service time; a
  per-row scoring failure dead-letters that request
  (:class:`~repro.resilience.DeadLetterStore`) without failing its
  batchmates; and a degradation ladder replays per-environment last-good
  answers (stamped ``degraded=True``) while the breaker is open or every
  worker is mid-restart.

All request-path metrics (`repro_serve_*`) are ordinary
:mod:`repro.obs` instruments; with ``self_monitor=True`` the service
dogfoods them into an in-repo TSDB via :class:`~repro.obs.TSDBExporter`,
so p50/p95/p99 and queue depth are answerable with the repo's own
PromQL (``histogram_quantile(0.95, repro_serve_request_seconds_bucket)``).

Clients never touch the service object directly: :meth:`Env2VecService.client`
hands out the :class:`ServeClient` facade, the single sanctioned entry
point for predictions, scrapes, alarm queries, and health probes.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict

from ..obs import LATENCY_BUCKETS, get_observability
from ..resilience import (
    BREAKER_OPEN,
    CircuitBreaker,
    CircuitOpen,
    DeadLetterStore,
    ExecutionQuarantined,
    RetryExhausted,
    TransientError,
)
from ..workflow.alarms import AlarmStore
from ..workflow.model_store import CorruptModelError, ModelStore
from ..workflow.prediction_pipeline import (
    PipelineRun,
    PredictionPipeline,
    SkippedExecution,
)
from ..workflow.tsdb import AmbiguousSeries, SeriesNotFound, TimeSeriesDB
from ._internal.admission import AdmissionController, PendingRequest
from ._internal.batcher import MicroBatcher, SequencedMerger
from ._internal.supervisor import WorkerSupervisor
from .api import (
    HealthReport,
    PredictRequest,
    PredictResponse,
    ScrapeRequest,
    ScrapeResponse,
    ServeConfig,
)

__all__ = ["Env2VecService", "ServeClient"]

#: cold-start per-request service-time estimate (seconds) behind
#: ``retry_after`` before the first batch is measured, and the EWMA decay
#: of the measured estimate (``decay * old + (1 - decay) * sample``).
_DEFAULT_SERVICE_SECONDS = 0.005
_SERVICE_TIME_DECAY = 0.8

_OBS = get_observability()
_M_REQUESTS = _OBS.counter(
    "repro_serve_requests_total",
    "Requests answered by the serving layer",
    labels=("kind", "status"),
)
_H_LATENCY = _OBS.histogram(
    "repro_serve_request_seconds",
    "End-to-end request latency (admission to response)",
    labels=("kind",),
    buckets=LATENCY_BUCKETS,
)
_M_DEGRADED = _OBS.counter(
    "repro_serve_degraded_total",
    "Responses replayed from the last-good cache while the fresh path was down",
)
_M_DEAD_LETTERED = _OBS.counter(
    "repro_serve_dead_lettered_total",
    "Predict requests dead-lettered after failing scoring in isolation",
)
# The predict path touches these once per request; resolve the label
# children up front instead of re-hashing label tuples on the hot path.
_M_PREDICT_OK = _M_REQUESTS.labels(kind="predict", status="ok")
_M_PREDICT_SKIPPED = _M_REQUESTS.labels(kind="predict", status="skipped")
_H_PREDICT_LATENCY = _H_LATENCY.labels(kind="predict")

#: skip reasons the degradation ladder may answer from last-good cache.
_DEGRADABLE_SKIPS = frozenset({"tsdb_circuit_open", "tsdb_unavailable"})


class _LastGoodCache:
    """Per-environment cache of the newest successful answer.

    The bottom rung of the degradation ladder: when the fresh path is
    down (TSDB breaker open for a record_id request, or every supervised
    worker mid-restart), the service replays the environment's last good
    run stamped ``degraded=True`` instead of going dark. Bounded LRU;
    ``capacity=0`` disables the ladder entirely.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._entries: OrderedDict[object, tuple[int, PipelineRun]] = OrderedDict()

    def remember(self, environment, version: int, run: PipelineRun) -> None:
        if self.capacity == 0:
            return
        self._entries[environment] = (version, run)
        self._entries.move_to_end(environment)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def get(self, environment) -> tuple[int, PipelineRun] | None:
        return self._entries.get(environment)

    def __len__(self) -> int:
        return len(self._entries)


class Env2VecService:
    """Always-on serving front end over the workflow pipelines."""

    def __init__(
        self,
        model_store: ModelStore,
        alarm_store: AlarmStore | None = None,
        collector=None,
        *,
        config: ServeConfig | None = None,
        gamma: float = 2.0,
        abs_threshold: float = 5.0,
        termination_threshold: int | None = None,
        breaker_clock=None,
        self_monitor: bool = False,
        scrape_interval: float = 15.0,
        chaos=None,
    ):
        self.config = config if config is not None else ServeConfig()
        self.model_store = model_store
        self.alarm_store = alarm_store if alarm_store is not None else AlarmStore()
        self.collector = collector
        self.pipeline = PredictionPipeline(
            model_store,
            self.alarm_store,
            gamma=gamma,
            abs_threshold=abs_threshold,
            termination_threshold=termination_threshold,
        )
        self.admission = AdmissionController(
            self.config.max_queue_depth,
            _DEFAULT_SERVICE_SECONDS,
            decay=_SERVICE_TIME_DECAY,
        )
        self.tsdb_breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            recovery_time=self.config.breaker_recovery,
            clock=breaker_clock,
            name="serve-tsdb",
        )
        self.dead_letters = DeadLetterStore()
        self.last_good = _LastGoodCache(self.config.last_good_capacity)
        self.supervisor: WorkerSupervisor | None = None
        if self.config.n_workers > 0:
            self.supervisor = WorkerSupervisor(
                model_store,
                self.config,
                gamma=gamma,
                abs_threshold=abs_threshold,
                chaos=chaos,
            )
            self._unsubscribe = model_store.subscribe(
                lambda record: self.supervisor.schedule_publish(record.version)
            )
            execute = self._dispatch_supervised
            # One batch scoring and one queued per worker (supervisor docs).
            max_inflight = 2 * self.config.n_workers
        else:
            self._unsubscribe = model_store.subscribe(self._compile_latest)
            self._compile_latest()
            execute = self._execute_batch
            max_inflight = 1
        self._merger = SequencedMerger()
        self._commit_seq = 0
        self._batcher = MicroBatcher(
            self.admission,
            max_batch=self.config.max_batch,
            max_wait=self.config.max_wait,
            execute=execute,
            max_inflight=max_inflight,
        )
        self.exporter = None
        if self_monitor:
            from ..obs import TSDBExporter

            self.exporter = TSDBExporter(
                _OBS.registry,
                tsdb=TimeSeriesDB(name="serve-observability"),
                interval=scrape_interval,
            )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start the micro-batcher (requires a running event loop).

        A supervised service (``n_workers > 0``) must be entered with
        ``async with service:`` instead, so worker processes can be
        spawned and awaited ready before traffic flows.
        """
        if self.supervisor is not None:
            raise RuntimeError(
                "a supervised service (n_workers > 0) must be started with "
                "'async with service:' so its workers can be spawned"
            )
        self._batcher.start()

    async def stop(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` (the default) is the graceful path: queued
        requests whose deadline expired are shed, live queued requests
        are batched and completed, in-flight batches finish. With
        ``drain=False`` the loop is torn down immediately and queued
        requests fail loudly — the programmatic equivalent of a crash,
        used by kill/restart tests.
        """
        await self._batcher.stop(drain=drain)
        if self.supervisor is not None:
            await self.supervisor.stop()
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        if self.exporter is not None:
            self.exporter.tick()

    def _compile_latest(self, _record=None) -> None:
        """Publish hook: compile the newest model before traffic needs it.

        A corrupt blob is absorbed here, so the publisher never sees it:
        the pipeline keeps serving its last good model, or holds none.
        """
        try:
            self.pipeline.latest_model()
        except (CorruptModelError, LookupError):
            pass

    async def __aenter__(self) -> "Env2VecService":
        if self.supervisor is not None:
            await self.supervisor.start()
            self._batcher.start()
        else:
            self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    def client(self) -> "ServeClient":
        return ServeClient(self)

    # -- health --------------------------------------------------------

    def health(self) -> HealthReport:
        """Readiness + liveness, the ``/health`` endpoint's payload.

        *Live* means the drain loop can make progress; *ready* means a
        request admitted right now would be served fresh (a worker free
        or the loop executing inline with a model to score with, breaker
        not open). ``model_version`` is the version fresh responses carry.
        ``degraded`` says answers are currently coming from the last-good
        cache.
        """
        live = self._batcher.running
        breaker_open = self.tsdb_breaker.state == BREAKER_OPEN
        if self.supervisor is not None:
            workers = self.supervisor.worker_states()
            available = self.supervisor.available_count
            n_workers = self.config.n_workers
            version = self.supervisor.latest_version
            ready = live and available > 0 and version > 0
            degraded = breaker_open or available == 0
        else:
            workers = ()
            available = 1 if live else 0
            n_workers = 0
            version = self.pipeline.cached_version
            ready = live and version > 0
            degraded = breaker_open
        return HealthReport(
            live=live,
            ready=ready,
            degraded=degraded,
            n_workers=n_workers,
            workers_ready=available,
            queue_depth=self.admission.depth,
            breaker_state=self.tsdb_breaker.state,
            model_version=version,
            workers=workers,
        )

    # -- predict path --------------------------------------------------

    def submit_predict(self, request: PredictRequest) -> asyncio.Future:
        """Admit a predict request; the future resolves to a PredictResponse."""
        if not isinstance(request, PredictRequest):
            raise TypeError(f"expected PredictRequest, got {type(request).__name__}")
        return self.admission.submit(request, now=asyncio.get_running_loop().time())

    def _resolve_execution(self, request: PredictRequest):
        """Inline execution, or the TSDB read-back behind a record_id.

        Returns ``(execution, skipped)`` — exactly one is set. Degraded
        telemetry becomes a typed skip, with missing and ambiguous series
        both reported as ``series_missing`` as the campaign does; a TSDB
        outage trips the scrape breaker's failure counter too, since both
        paths share the backend.
        """
        if request.execution is not None:
            return request.execution, None
        if self.collector is None:
            return None, SkippedExecution(
                reason="no_collector",
                detail="service has no MetricCollector; record_id requests unsupported",
            )
        try:
            self.tsdb_breaker.allow()
        except CircuitOpen as exc:
            return None, SkippedExecution(reason="tsdb_circuit_open", detail=str(exc))
        try:
            features, cpu = self.collector.read_back(request.record_id)
        except (SeriesNotFound, AmbiguousSeries) as exc:
            return None, SkippedExecution(reason="series_missing", detail=str(exc))
        except ExecutionQuarantined as exc:
            return None, SkippedExecution(reason=exc.reason, detail=exc.detail)
        except (RetryExhausted, TransientError) as exc:
            self.tsdb_breaker.record_failure()
            return None, SkippedExecution(reason="tsdb_unavailable", detail=str(exc))
        self.tsdb_breaker.record_success()
        from ..data.chains import TestExecution

        return (
            TestExecution(environment=request.environment, features=features, cpu=cpu),
            None,
        )

    def _try_degraded(self, pending: PendingRequest, loop) -> bool:
        """Answer from the last-good cache if the ladder allows; else False."""
        request = pending.request
        environment = (
            request.execution.environment
            if request.execution is not None
            else request.environment
        )
        cached = self.last_good.get(environment)
        if cached is None:
            return False
        version, run = cached
        _M_DEGRADED.inc()
        self._respond(
            pending,
            PredictResponse(
                request_id=request.request_id,
                status="ok",
                model_version=version,
                run=run,
                batch_size=pending.batch_size,
                degraded=True,
            ),
            loop,
        )
        return True

    def _dead_letter(self, pending: PendingRequest, detail: str) -> None:
        """Quarantine one bad request without failing its batchmates."""
        request = pending.request
        key = request.request_id or request.record_id or f"predict-{id(request):x}"
        self.dead_letters.add(key=key, reason="serve_row_failure", detail=detail)
        _M_DEAD_LETTERED.inc()
        if not pending.future.done():
            pending.future.set_exception(
                RuntimeError(f"request failed scoring and was dead-lettered: {detail}")
            )

    def _screen_batch(self, batch, n_lags, loop):
        """Resolve record_ids, apply skips/degradation, length pre-checks.

        Shared front half of both execution modes. Returns the rows that
        should be scored: ``[(pending, execution, error_model), ...]``.
        """
        ready = []
        for pending in batch:
            request = pending.request
            execution, skipped = self._resolve_execution(request)
            if skipped is not None:
                if skipped.reason in _DEGRADABLE_SKIPS and self._try_degraded(
                    pending, loop
                ):
                    continue
                self._respond(
                    pending, self._skip_response(pending, skipped), loop
                )
                continue
            if len(execution.cpu) <= n_lags + 1:
                pending.future.set_exception(
                    ValueError(
                        f"execution has {len(execution.cpu)} timesteps; "
                        f"need more than n_lags + 1 = {n_lags + 1} to window"
                    )
                )
                continue
            ready.append((pending, execution, request.error_model))
        return ready

    def _commit_scored(self, ready, outcomes, version, n_lags, elapsed, loop) -> None:
        """Ordered side-effect half: dead-letter errs, fan in oks, respond.

        Each ok request gets one response, stamped with its queue time at
        the batch's commit; the request counter moves once per batch and
        the latency histogram sees every request.
        """
        ok = []
        for (pending, execution, _), outcome in zip(ready, outcomes):
            if outcome[0] == "err":
                self._dead_letter(pending, outcome[1])
            else:
                ok.append((pending, execution, outcome[1:]))
        runs = self.pipeline.fan_in(
            [execution for _, execution, _ in ok],
            [scored for _, _, scored in ok],
            model_version=version,
            n_lags=n_lags,
        )
        if ready:
            self.admission.record_service_time(elapsed / len(ready))
        now = loop.time()
        _M_PREDICT_OK.inc(len(runs))
        for (pending, execution, _), run in zip(ok, runs):
            self.last_good.remember(execution.environment, version, run)
            queued = now - pending.enqueued_at
            _H_PREDICT_LATENCY.observe(queued)
            if not pending.future.done():
                pending.future.set_result(
                    PredictResponse(
                        request_id=pending.request.request_id,
                        status="ok",
                        model_version=version,
                        run=run,
                        batch_size=pending.batch_size,
                        queued_seconds=queued,
                    )
                )

    def _execute_batch(self, batch: list[PendingRequest]) -> None:
        """Single-loop mode: one coalesced forward on the event loop."""
        loop = asyncio.get_running_loop()
        try:
            model, version = self.pipeline.latest_model()
        except LookupError as exc:
            for pending in batch:
                pending.future.set_exception(LookupError(str(exc)))
            return
        ready = self._screen_batch(batch, model.n_lags, loop)
        if not ready:
            return
        started = loop.time()
        outcomes = self.pipeline.score_with_isolation(
            model,
            [execution for _, execution, _ in ready],
            [error_model for _, _, error_model in ready],
        )
        self._commit_scored(
            ready, outcomes, version, model.n_lags, loop.time() - started, loop
        )

    async def _dispatch_supervised(self, batch: list[PendingRequest]) -> None:
        """Supervised mode: score on a worker, commit in dispatch order.

        The commit sequence number is claimed in the first synchronous
        segment (batch tasks start in creation order, and creation order
        is batch composition order), so however the worker results race
        back, :class:`SequencedMerger` applies fan-in — and therefore
        alarm ids — exactly as the single-loop service would.
        """
        seq = self._commit_seq
        self._commit_seq += 1
        loop = asyncio.get_running_loop()
        thunks: list = []
        try:
            thunks = await self._score_supervised(batch, loop)
        finally:
            for _, released in self._merger.put(seq, thunks):
                for thunk in released:
                    thunk()

    async def _score_supervised(self, batch, loop) -> list:
        supervisor = self.supervisor
        if supervisor.latest_version == 0:
            error = LookupError("no model has been published yet")
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(error)
            return []
        ready = self._screen_batch(batch, supervisor.n_lags, loop)
        if ready and supervisor.available_count == 0:
            # Every worker is mid-restart: serve what the ladder can,
            # queue the rest behind recovery.
            still_ready = []
            for row in ready:
                if not self._try_degraded(row[0], loop):
                    still_ready.append(row)
            ready = still_ready
        if not ready:
            return []
        started = loop.time()
        version, n_lags, outcomes = await supervisor.score(
            [(execution, error_model) for _, execution, error_model in ready]
        )
        elapsed = loop.time() - started
        return [
            lambda: self._commit_scored(ready, outcomes, version, n_lags, elapsed, loop)
        ]

    def _skip_response(
        self, pending: PendingRequest, skipped: SkippedExecution
    ) -> PredictResponse:
        version = (
            self.supervisor.latest_version
            if self.supervisor is not None
            else self.pipeline.cached_version
        )
        return PredictResponse(
            request_id=pending.request.request_id,
            status="skipped",
            model_version=version,
            skipped=skipped,
            batch_size=pending.batch_size,
        )

    def _respond(self, pending: PendingRequest, response: PredictResponse, loop) -> None:
        now = loop.time()
        response = PredictResponse(
            request_id=response.request_id,
            status=response.status,
            model_version=response.model_version,
            run=response.run,
            skipped=response.skipped,
            batch_size=response.batch_size,
            queued_seconds=now - pending.enqueued_at,
            degraded=response.degraded,
        )
        (_M_PREDICT_OK if response.status == "ok" else _M_PREDICT_SKIPPED).inc()
        _H_PREDICT_LATENCY.observe(now - pending.enqueued_at)
        if not pending.future.done():
            pending.future.set_result(response)

    # -- scrape path ---------------------------------------------------

    def scrape(self, request: ScrapeRequest) -> ScrapeResponse:
        """Ingest telemetry through the collector, breaker-gated."""
        if self.collector is None:
            raise RuntimeError("service has no MetricCollector; cannot scrape")
        with _H_LATENCY.labels(kind="scrape").time():
            try:
                self.tsdb_breaker.allow()
            except CircuitOpen as exc:
                _M_REQUESTS.labels(kind="scrape", status="circuit_open").inc()
                return ScrapeResponse(
                    request_id=request.request_id,
                    status="circuit_open",
                    detail=str(exc),
                    retry_after=self.tsdb_breaker.retry_after(),
                )
            try:
                record_id = self.collector.collect(
                    request.execution, start_time=request.start_time
                )
            except (RetryExhausted, TransientError) as exc:
                self.tsdb_breaker.record_failure()
                _M_REQUESTS.labels(kind="scrape", status="unavailable").inc()
                return ScrapeResponse(
                    request_id=request.request_id,
                    status="unavailable",
                    detail=str(exc),
                    retry_after=self.tsdb_breaker.retry_after(),
                )
            self.tsdb_breaker.record_success()
            _M_REQUESTS.labels(kind="scrape", status="ok").inc()
            return ScrapeResponse(
                request_id=request.request_id, status="ok", record_id=record_id
            )


class ServeClient:
    """The one public handle for traffic against an :class:`Env2VecService`.

    Every method is a coroutine; submits happen synchronously inside the
    calling coroutine, so concurrent clients that are started in a fixed
    order are admitted in that order (what makes serve traffic replayable
    against batch mode).
    """

    def __init__(self, service: Env2VecService):
        self._service = service

    async def predict(self, request: PredictRequest) -> PredictResponse:
        """Monitor one execution; may coalesce with concurrent requests."""
        return await self._service.submit_predict(request)

    async def predict_many(self, requests) -> list[PredictResponse]:
        """Submit a group atomically: all admitted, or none stay queued.

        On overload mid-group, submissions still waiting in the admission
        queue are withdrawn before :class:`ServiceOverloaded` propagates,
        so a rejected group never leaves orphaned work behind.
        """
        futures: list[asyncio.Future] = []
        try:
            for request in requests:
                futures.append(self._service.submit_predict(request))
        except Exception:
            self._service.admission.evict(futures)
            for future in futures:
                if not future.done():
                    future.cancel()
            raise
        return list(await asyncio.gather(*futures))

    async def scrape(self, request: ScrapeRequest) -> ScrapeResponse:
        """Ingest one execution's telemetry (breaker-gated)."""
        return self._service.scrape(request)

    async def health(self) -> HealthReport:
        """Readiness + liveness probe."""
        return self._service.health()
