"""The VNF testing workflow of the paper's Figure 2.

Workflow steps (§3) and their modules:

1. **Testbed data collection** — :mod:`~repro.workflow.collector` replays
   test executions into the :mod:`~repro.workflow.tsdb` TSDB (Prometheus
   substitute) with EM labels, registering endpoints in the
   :mod:`~repro.workflow.discovery` service-discovery JSON.
2. **Model training** — :mod:`~repro.workflow.training_pipeline` masks
   flagged executions, trains the single Env2Vec model daily, and publishes
   it to the :mod:`~repro.workflow.model_store`.
3. **Prediction pipeline** — :mod:`~repro.workflow.prediction_pipeline`
   builds the Table 2 dataframe and compares inferred vs observed RU.
4. **Raising alarms** — :mod:`~repro.workflow.alarms` (sqlite-backed
   PostgreSQL substitute) persists testbed + interval + deviation.
5. **Updating the model** — the prediction pipeline fetches the latest
   published model before each run.
"""

from .alarms import AlarmRecord, AlarmStore
from .checkpoint import CampaignState, checkpoint_days, load_latest_checkpoint, save_checkpoint
from .collector import MetricCollector, RU_METRIC, SAMPLE_INTERVAL_SECONDS
from .drift import DriftDecision, DriftMonitor, PageHinkley
from .discovery import EMRegistry, ServiceDiscovery
from .model_store import CorruptModelError, ModelStore, ModelVersion
from .orchestrator import DayReport, TestingCampaign
from .reporting import campaign_summary, execution_report, observability_summary, sparkline
from .promql import (
    HistogramQuantile,
    InstantSample,
    PromQLError,
    parse as parse_promql,
    query as promql_query,
)
from .prediction_pipeline import (
    PipelineRun,
    PredictBatch,
    PredictionPipeline,
    SkippedExecution,
    build_prediction_frame,
)
from .training_pipeline import TrainingPipeline, TrainingResult
from .tsdb import AmbiguousSeries, Series, SeriesNotFound, TimeSeriesDB

__all__ = [
    "TimeSeriesDB",
    "Series",
    "SeriesNotFound",
    "AmbiguousSeries",
    "ServiceDiscovery",
    "EMRegistry",
    "MetricCollector",
    "RU_METRIC",
    "SAMPLE_INTERVAL_SECONDS",
    "AlarmStore",
    "AlarmRecord",
    "ModelStore",
    "ModelVersion",
    "CorruptModelError",
    "TestingCampaign",
    "DayReport",
    "CampaignState",
    "save_checkpoint",
    "load_latest_checkpoint",
    "checkpoint_days",
    "promql_query",
    "parse_promql",
    "PromQLError",
    "InstantSample",
    "HistogramQuantile",
    "execution_report",
    "campaign_summary",
    "observability_summary",
    "sparkline",
    "DriftMonitor",
    "PageHinkley",
    "DriftDecision",
    "TrainingPipeline",
    "TrainingResult",
    "PredictionPipeline",
    "PredictBatch",
    "PipelineRun",
    "SkippedExecution",
    "build_prediction_frame",
]
