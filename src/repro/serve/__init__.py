"""Always-on serving layer: campaign-as-a-service over the workflow.

The batch workflow monitors executions a day at a time; this package
keeps the same pipelines resident behind a unified request API, the way
a production deployment of the paper's system would actually run:

- :class:`Env2VecService` — the service: bounded admission with explicit
  backpressure and deadline shedding, cross-chain micro-batching,
  publish-time model compiles, a circuit breaker on
  the TSDB boundary, and (with ``n_workers > 0``) a supervised
  multi-process scoring tier with heartbeat crash/stall detection,
  deterministic in-flight re-dispatch, and rolling model rollouts.
- :class:`ServeClient` — the single client facade (``predict`` /
  ``predict_many`` / ``scrape`` / ``health``), all typed requests in,
  typed responses out. Engineers read raised alarms from the service's
  :class:`~repro.workflow.AlarmStore` (``service.alarm_store.fetch()``).
- :mod:`~repro.serve.loadgen` — seeded bursty load generation for the
  serving benchmarks and the ``repro serve`` CLI demo.

Serve responses are byte-identical to batch
:meth:`~repro.workflow.PredictionPipeline.execute` on the same model
version: every compiled kernel is row-wise, so micro-batch composition
(a timing artifact) cannot leak into the numbers.

Everything under ``repro.serve._internal`` is private; the REP010 lint
rule keeps outside imports out.
"""

from .api import (
    HealthReport,
    PredictRequest,
    PredictResponse,
    ScrapeRequest,
    ScrapeResponse,
    ServeConfig,
    ServiceOverloaded,
    WorkerState,
)
from .loadgen import LoadProfile, LoadReport, arrival_offsets, run_load
from .service import Env2VecService, ServeClient

__all__ = [
    "Env2VecService",
    "HealthReport",
    "ServeClient",
    "ServeConfig",
    "PredictRequest",
    "PredictResponse",
    "ScrapeRequest",
    "ScrapeResponse",
    "ServiceOverloaded",
    "WorkerState",
    "LoadProfile",
    "LoadReport",
    "arrival_offsets",
    "run_load",
]
