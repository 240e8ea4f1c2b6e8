"""Multi-day testing-campaign orchestration.

Ties the whole Figure 2 loop together over simulated days:

- each day, every active build chain executes its next build;
- the prediction pipeline monitors each execution with the latest
  published model (step 5 → 3), calibrating the error model on the chain's
  previously ingested builds, and pushes alarms (step 4);
- executions whose alarms were confirmed true positives are **masked out**
  of the training pool, exactly as step 2 prescribes ("Executions with
  true positive alarms are masked out from the training data");
- the model is retrained and republished daily. A warm day fine-tunes a
  copy of yesterday's model on the day's non-flagged executions plus a
  seeded replay sample of the older pool (paper §4.3: "retraining Env2Vec
  incrementally with the new data"). It keeps the encoder and FNN fixed
  and trains the combine layer, the embedding tables and the head over
  their cached outputs, at the full fit's learning rate. Those outputs,
  each execution's branch rows, are computed once per execution while
  the body stays the same, and calibration and scoring reuse them too.
  A full fit of a fresh model on the whole non-flagged pool runs on the
  first day, on a day the drift monitor fires, on the day after a
  diverged fit, once a week, and on a day with no new non-flagged
  execution. Only a full fit re-standardizes the model's scalers.

This is the integration surface a team adopting Env2Vec would run; the
example scripts and integration tests drive it end to end.

The campaign degrades gracefully instead of assuming a clean replay:

- with ``use_collector=True`` (forced on by ``chaos``), executions are
  routed through the :class:`~repro.workflow.collector.MetricCollector`
  — scraped into a workload TSDB, sanitized, gap-imputed on read-back —
  so the campaign monitors and trains on what the telemetry path actually
  delivered, not on the pristine in-memory arrays;
- executions whose telemetry is beyond repair (collector outage, gaps too
  long, TSDB down past the retry budget) are quarantined to the
  :class:`~repro.resilience.DeadLetterStore` and excluded from monitoring
  *and* training — never crashing the day;
- a divergent training run (:class:`~repro.nn.TrainingDiverged`) aborts
  cleanly: the previous model keeps serving, the day is reported as
  ``training_diverged``;
- with ``checkpoint_dir`` set, the full mutable state is snapshotted
  after every day and :meth:`TestingCampaign.run` resumes idempotently
  from the latest snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.model import Env2VecRegressor
from ..data.chains import TestExecution
from ..data.environment import Environment
from ..data.telecom import TelecomDataset
from ..data.windows import build_windows  # noqa: F401 - tracers patch windowing by this name
from ..nn.training import TrainingDiverged
from ..obs import TSDBExporter, get_observability
from ..resilience import (
    ChaosProfile,
    DeadLetterRecord,
    DeadLetterStore,
    ExecutionQuarantined,
    RetryExhausted,
    TransientTSDBError,
)
from .alarms import AlarmStore
from .checkpoint import CampaignState, load_latest_checkpoint, save_checkpoint
from .collector import MetricCollector
from .discovery import EMRegistry
from .drift import DriftMonitor
from .model_store import ModelStore
from .prediction_pipeline import PipelineRun, PredictBatch, PredictionPipeline
from .training_pipeline import TrainingPipeline
from .tsdb import AmbiguousSeries, SeriesNotFound, TimeSeriesDB

__all__ = ["DayReport", "TestingCampaign"]

#: Simulated seconds per campaign day — the observability scrape cadence.
DAY_SECONDS = 86400.0

#: Days after a full fit at which the next one is due, even without drift
#: or a divergence (paper §6: Env2Vec is retrained periodically).
_FULL_REFIT_DAYS = 7

_OBS = get_observability()
_M_DAYS = _OBS.counter("repro_campaign_days_total", "Campaign days orchestrated.")
_M_EXECUTIONS = _OBS.counter(
    "repro_campaign_executions_total", "Test executions monitored by campaigns."
)
_M_ALARMS = _OBS.counter(
    "repro_campaign_alarms_total", "Alarms raised during campaign monitoring."
)
_M_CONFIRMED = _OBS.counter(
    "repro_campaign_alarms_confirmed_total",
    "Alarmed executions confirmed as true positives (and masked).",
)
_M_DRIFT = _OBS.counter(
    "repro_campaign_drift_days_total", "Campaign days on which drift was detected."
)
_G_MASKED = _OBS.gauge(
    "repro_campaign_masked_executions", "Executions currently masked out of training."
)
_M_QUARANTINED = _OBS.counter(
    "repro_resilience_quarantined_executions_total",
    "Executions dead-lettered by campaigns instead of processed.",
)
_M_RESUMES = _OBS.counter(
    "repro_resilience_campaign_resumes_total",
    "Campaign runs that restored state from a checkpoint.",
)


@dataclass
class DayReport:
    """What happened on one campaign day."""

    day: int
    executions_run: int
    alarms_raised: int
    flagged_environments: list[Environment]
    masked_environments: list[Environment]
    model_version: int
    drift_detected: bool = False
    training_diverged: bool = False
    quarantined_environments: list[Environment] = field(default_factory=list)


def _report_to_dict(report: DayReport) -> dict:
    return {
        "day": report.day,
        "executions_run": report.executions_run,
        "alarms_raised": report.alarms_raised,
        "flagged_environments": [env.as_dict() for env in report.flagged_environments],
        "masked_environments": [env.as_dict() for env in report.masked_environments],
        "model_version": report.model_version,
        "drift_detected": report.drift_detected,
        "training_diverged": report.training_diverged,
        "quarantined_environments": [
            env.as_dict() for env in report.quarantined_environments
        ],
    }


def _report_from_dict(data: dict) -> DayReport:
    return DayReport(
        day=int(data["day"]),
        executions_run=int(data["executions_run"]),
        alarms_raised=int(data["alarms_raised"]),
        flagged_environments=[Environment(**env) for env in data["flagged_environments"]],
        masked_environments=[Environment(**env) for env in data["masked_environments"]],
        model_version=int(data["model_version"]),
        drift_detected=bool(data["drift_detected"]),
        training_diverged=bool(data["training_diverged"]),
        quarantined_environments=[
            Environment(**env) for env in data["quarantined_environments"]
        ],
    )


def _env_key(environment: Environment) -> str:
    return "/".join(environment.as_tuple())


class _BranchRows:
    """Executions' frozen-branch rows ``[v_ts, v_fs]`` under the serving body.

    A warm day keeps the encoder, the FNN and the scalers, so rows
    computed once (while scoring an execution, or calibrating on it)
    serve every later day's calibration and warm fine-tune, until a full
    fit brings a new body and :meth:`clear` drops them. Id rows are never
    kept: a vocabulary extension moves the ``<unk>`` ids.

    Rows are keyed by the identity of an execution's ``features`` and
    ``cpu`` arrays, which the pool shares with the ingested executions.
    The store holds the arrays, so a key cannot be reused while it is
    stored. An execution whose arrays were replaced (a restored
    checkpoint, the chaos poison) misses and is computed anew.
    """

    def __init__(self) -> None:
        self._rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @staticmethod
    def _key(features: np.ndarray, cpu: np.ndarray) -> tuple[int, int]:
        return id(features), id(cpu)

    def clear(self) -> None:
        self._rows.clear()

    def get(self, features: np.ndarray, cpu: np.ndarray) -> np.ndarray | None:
        entry = self._rows.get(self._key(features, cpu))
        return None if entry is None else entry[2]

    def fill(self, model: Env2VecRegressor, executions: list[TestExecution]) -> list[np.ndarray]:
        """Every execution's rows, computing the missing ones in one pass."""
        missing = {
            key: execution
            for execution in executions
            if (key := self._key(execution.features, execution.cpu)) not in self._rows
        }
        if missing:
            computed = PredictionPipeline.branch_rows(model, list(missing.values()))
            for (key, execution), rows in zip(missing.items(), computed):
                self._rows[key] = (execution.features, execution.cpu, rows)
        return [self._rows[self._key(e.features, e.cpu)][2] for e in executions]


@dataclass
class TestingCampaign:
    """Runs a testing corpus day by day through the full workflow."""

    __test__ = False  # keep pytest from collecting this as a test class

    model_store: ModelStore = field(default_factory=ModelStore)
    alarm_store: AlarmStore = field(default_factory=AlarmStore)
    gamma: float = 2.5
    abs_threshold: float = 5.0
    n_lags: int = 3
    model_params: dict = field(default_factory=lambda: {"max_epochs": 20, "batch_size": 256})
    seed: int = 0
    # Tracks the serving model's error level on clean executions; a
    # Page-Hinkley alarm marks a day where retraining was *needed*, not
    # merely scheduled.
    drift_monitor: DriftMonitor = field(default_factory=DriftMonitor)
    # Dogfood loop: after each day, scrape the global metric registry into
    # a campaign-owned TSDB (one scrape per simulated day) so the
    # campaign's own health is queryable through repro.workflow.promql.
    self_monitor: bool = True
    # Infrastructure-fault simulation; setting a profile forces executions
    # through the collector path so the faults have somewhere to land.
    chaos: ChaosProfile | None = None
    # Route executions through collector → TSDB → read-back even without
    # chaos (the production-shaped path; ~the policies-enabled clean path).
    use_collector: bool = False
    # Where un-processable executions are accounted for.
    dead_letters: DeadLetterStore = field(default_factory=DeadLetterStore)
    # Longest gap (in samples) the collector may impute before quarantine.
    max_gap: int = 5
    # When set, every completed day is snapshotted here and run() resumes
    # from the latest snapshot.
    checkpoint_dir: str | Path | None = None

    def __post_init__(self) -> None:
        self._pool: list[tuple[Environment, np.ndarray, np.ndarray]] = []
        self._ingested: dict[tuple, list[TestExecution]] = {}
        self._masked: set[Environment] = set()
        self._report_dicts: list[dict] = []
        self._exporter: TSDBExporter | None = None
        if self.self_monitor:
            self._exporter = TSDBExporter(
                _OBS.registry,
                tsdb=TimeSeriesDB(name="campaign-observability"),
                interval=DAY_SECONDS,
            )
        if self.chaos is not None:
            self.use_collector = True
        self._collector: MetricCollector | None = None
        if self.use_collector:
            self._collector = MetricCollector(
                TimeSeriesDB(name="campaign-workload"),
                EMRegistry(),
                chaos=self.chaos,
                max_gap=self.max_gap,
            )
        self._pipeline = TrainingPipeline(
            self.model_store,
            n_lags=self.n_lags,
            model_params=dict(self.model_params),
            seed=self.seed,
        )
        # The one scoring path (paper steps 3-5): windows, calibration,
        # coalesced predicts, detection, and alarm pushes.
        self._predictor = PredictionPipeline(
            self.model_store, self.alarm_store, self.gamma, self.abs_threshold
        )
        self._model: Env2VecRegressor | None = None
        self._rows = _BranchRows()
        # Day of the last full fit; None when the next retrain must be a
        # full fit (no model yet, or the last fit diverged).
        self._last_full_day: int | None = None

    def service(self, **kwargs):
        """Campaign-as-a-service: an always-on front end over this campaign.

        Builds a :class:`repro.serve.Env2VecService` wired to the
        campaign's own model store, alarm store, collector, and detector
        thresholds, so live traffic is monitored by exactly the model the
        day loop would use and alarms land in the same store the day loop
        reads. Keyword arguments (``config=ServeConfig(...)``,
        ``breaker_clock=...``, ...) pass through to the service.
        """
        # Imported lazily: repro.serve imports this package's pipelines,
        # so a module-level import here would cycle.
        from ..serve import Env2VecService

        kwargs.setdefault("gamma", self.gamma)
        kwargs.setdefault("abs_threshold", self.abs_threshold)
        return Env2VecService(
            self.model_store,
            self.alarm_store,
            self._collector,
            **kwargs,
        )

    # -- internals --------------------------------------------------------
    def _monitor_day(self, executions: list[TestExecution]) -> list[PipelineRun | None]:
        """Score the day's executions in one batch; ``None`` for too-short ones.

        Each chain is calibrated once on its ingested, unmasked history.
        That is exact: ingestion happens after monitoring, and masking
        only ever adds today's environments, which no history holds yet.
        Calibration and scoring run the head half over branch rows: the
        stored ones, and one branch pass for the rest (today's
        executions, and history the serving body has not seen).
        """
        long_executions = [e for e in executions if e.n_timesteps > self.n_lags + 1]
        histories: dict[tuple, list[TestExecution]] = {}
        for execution in long_executions:
            chain_key = execution.environment.chain_key
            if chain_key not in histories:
                histories[chain_key] = [
                    previous
                    for previous in self._ingested.get(chain_key, [])
                    if previous.environment not in self._masked
                    and previous.n_timesteps > self.n_lags + 1
                ]
        rows = iter(
            self._rows.fill(
                self._model, [e for history in histories.values() for e in history] + long_executions
            )
        )
        error_models = {
            chain_key: self._predictor.history_error_model(
                self._model, history, [next(rows) for _ in history]
            )
            for chain_key, history in histories.items()
        }
        batch = PredictBatch(
            long_executions,
            [error_models[e.environment.chain_key] for e in long_executions],
        )
        runs = iter(
            self._predictor.execute(
                batch,
                model=self._model,
                model_version=self.model_store.latest_version,
                branch_rows=list(rows),
            )
        )
        return [
            next(runs) if e.n_timesteps > self.n_lags + 1 else None for e in executions
        ]

    def _collect_day(
        self, day: int, executions: list[TestExecution]
    ) -> tuple[list[TestExecution], list[Environment]]:
        """Route the day's executions through the lossy telemetry path.

        Each execution is scraped into the workload TSDB (under chaos
        corruption, behind the retry policy) and read back gap-imputed.
        Executions the path cannot deliver are dead-lettered; the day
        continues with whatever survived.
        """
        delivered: list[TestExecution] = []
        quarantined: list[Environment] = []

        def quarantine(execution: TestExecution, reason: str, detail: str) -> None:
            self.dead_letters.add(
                _env_key(execution.environment), reason, detail=detail, day=day
            )
            quarantined.append(execution.environment)
            _M_QUARANTINED.inc()

        for execution in executions:
            key = _env_key(execution.environment)
            if self.chaos is not None and self.chaos.outage(key):
                quarantine(execution, "collector_outage", "scrape window lost")
                continue
            try:
                record_id = self._collector.collect(execution)
                features, cpu = self._collector.read_back(record_id)
            except (RetryExhausted, TransientTSDBError) as exc:
                quarantine(execution, "tsdb_unavailable", str(exc))
                continue
            except ExecutionQuarantined as exc:
                quarantine(execution, exc.reason, exc.detail)
                continue
            except (SeriesNotFound, AmbiguousSeries) as exc:
                quarantine(execution, "series_missing", str(exc))
                continue
            # The campaign works with what the telemetry path delivered;
            # ground-truth fault labels ride along for mask decisions.
            delivered.append(
                TestExecution(
                    environment=execution.environment,
                    features=features,
                    cpu=cpu,
                    faults=list(execution.faults),
                )
            )
        return delivered, quarantined

    def _retrain(self, day: int, n_new: int, drift_detected: bool) -> tuple[int, bool]:
        """Daily retrain; returns (serving model version, diverged?).

        ``self._pool[-n_new:]`` are the day's executions. The day is warm
        unless a full fit is due (see the module docstring).
        """
        records = self._pool
        if self.chaos is not None and records and self.chaos.training_diverges(day):
            # Poison one execution's targets: the divergence guard must
            # abort the fit and the previous model must keep serving. The
            # victim must survive masking or the poison never reaches fit;
            # the latest unmasked execution is the day's whenever the day
            # is warm, so it reaches either kind of fit.
            victim = next(
                (
                    i
                    for i in range(len(records) - 1, -1, -1)
                    if records[i][0] not in self._masked
                ),
                None,
            )
            if victim is not None:
                poisoned = list(records)
                environment, features, cpu = poisoned[victim]
                poisoned[victim] = (environment, features, np.full_like(cpu, np.nan))
                records = poisoned
        full = (
            self._last_full_day is None
            or drift_detected
            or day - self._last_full_day >= _FULL_REFIT_DAYS
            or all(record[0] in self._masked for record in records[len(records) - n_new :])
        )
        try:
            if full:
                result = self._pipeline.train(records, masked_environments=self._masked)
            else:
                result = self._pipeline.fine_tune(
                    self._model, records, n_new, day, masked_environments=self._masked,
                    branch_rows=[self._rows.get(features, cpu) for _, features, cpu in records],
                )
        except TrainingDiverged:
            self._last_full_day = None
            return self.model_store.latest_version, True
        if full:
            self._last_full_day = day
            self._rows.clear()  # a new body and new scalers
        self._model = result.model
        # Compile once per retrain: tomorrow's monitoring (many predict
        # calls across chains) runs on the tape-free engine.
        self._model.compile()
        return result.version.version, False

    # -- campaign API ---------------------------------------------------
    def run_day(self, day: int, executions: list[TestExecution]) -> DayReport:
        """Monitor the day's executions, update masks, retrain, publish."""
        if not executions:
            raise ValueError("a campaign day needs at least one execution")
        flagged: list[Environment] = []
        quarantined: list[Environment] = []
        total_alarms = 0
        drift_detected = False
        training_diverged = False
        with _OBS.span("campaign.day"):
            if self._collector is not None:
                with _OBS.span("campaign.collect"):
                    executions, quarantined = self._collect_day(day, executions)
            if self._model is not None:
                with _OBS.span("campaign.monitor"):
                    runs = self._monitor_day(executions)
                for execution, run in zip(executions, runs):
                    n_alarms = 0 if run is None else run.report.n_alarms
                    total_alarms += n_alarms
                    if run is not None and not execution.has_performance_problem:
                        mae = float(np.abs(run.predictions - run.observations).mean())
                        decision = self.drift_monitor.observe(mae)
                        drift_detected = drift_detected or decision.drifted
                    if n_alarms and execution.has_performance_problem:
                        # Engineers confirm the alarms: a true positive — the
                        # execution is masked out of future training (step 2).
                        self._masked.add(execution.environment)
                        flagged.append(execution.environment)
                        _M_CONFIRMED.inc()
                    elif execution.has_performance_problem:
                        # A missed problem discovered independently (the paper's
                        # "false negative problems discovered independently by
                        # the testing engineers") is masked as well.
                        self._masked.add(execution.environment)

            for execution in executions:
                self._ingested.setdefault(execution.environment.chain_key, []).append(execution)
                self._pool.append((execution.environment, execution.features, execution.cpu))

            if self._pool:
                with _OBS.span("campaign.retrain"):
                    model_version, training_diverged = self._retrain(
                        day, len(executions), drift_detected
                    )
            else:
                # Every execution so far was quarantined; nothing to train
                # on yet. The campaign stays up and tries again tomorrow.
                model_version = self.model_store.latest_version

        _M_DAYS.inc()
        _M_EXECUTIONS.inc(len(executions))
        _M_ALARMS.inc(total_alarms)
        if drift_detected:
            _M_DRIFT.inc()
        _G_MASKED.set(len(self._masked))
        if self._exporter is not None:
            # One scrape per simulated day: self-metrics become series the
            # PromQL engine can rate() and quantile over.
            self._exporter.tick()
        report = DayReport(
            day=day,
            executions_run=len(executions),
            alarms_raised=total_alarms,
            flagged_environments=flagged,
            masked_environments=sorted(self._masked, key=lambda e: e.as_tuple()),
            model_version=model_version,
            drift_detected=drift_detected,
            training_diverged=training_diverged,
            quarantined_environments=quarantined,
        )
        self._report_dicts.append(_report_to_dict(report))
        if self.checkpoint_dir is not None:
            self._save_checkpoint(day)
        return report

    def run(self, dataset: TelecomDataset) -> list[DayReport]:
        """Replay a whole corpus: day d runs every chain's build #d.

        With ``checkpoint_dir`` set, a previous run's snapshots are
        restored first and only the remaining days execute — re-running a
        killed campaign is idempotent and converges on the same reports
        and final model as an uninterrupted run.
        """
        reports: list[DayReport] = []
        start_day = 0
        if self.checkpoint_dir is not None:
            state = load_latest_checkpoint(self.checkpoint_dir)
            if state is not None:
                reports = self._restore(state)
                start_day = state.day + 1
        max_builds = max(len(chain) for chain in dataset.chains)
        for day in range(start_day, max_builds):
            executions = [
                chain.executions[day] for chain in dataset.chains if day < len(chain)
            ]
            reports.append(self.run_day(day, executions))
        return reports

    # -- checkpointing -----------------------------------------------------
    def _save_checkpoint(self, day: int) -> Path:
        state = CampaignState(
            day=day,
            pool=self._pool,
            masked=sorted(self._masked, key=lambda e: e.as_tuple()),
            model_blob=self._model.to_bytes() if self._model is not None else None,
            drift_state=self.drift_monitor.state_dict(),
            last_full_day=self._last_full_day,
            exporter_now=self._exporter.last_scrape if self._exporter is not None else None,
            reports=list(self._report_dicts),
            dead_letters=[
                {"key": r.key, "reason": r.reason, "detail": r.detail, "day": r.day}
                for r in self.dead_letters.records()
            ],
        )
        return save_checkpoint(self.checkpoint_dir, state)

    def _restore(self, state: CampaignState) -> list[DayReport]:
        """Load a snapshot into this campaign; returns the restored reports."""
        self._pool = list(state.pool)
        self._masked = set(state.masked)
        self._rows.clear()  # rebuilt lazily from the restored arrays
        self._ingested = {}
        for environment, features, cpu in self._pool:
            # Fault labels are not checkpointed; restored executions only
            # feed error-model calibration, which never reads them.
            self._ingested.setdefault(environment.chain_key, []).append(
                TestExecution(environment=environment, features=features, cpu=cpu)
            )
        if state.model_blob is not None:
            self._model = Env2VecRegressor.from_bytes(state.model_blob)
            self._model.compile()
        self.drift_monitor.load_state(state.drift_state)
        self._last_full_day = state.last_full_day
        if self._exporter is not None and state.exporter_now is not None:
            # Continue the simulated scrape clock; the restored exporter
            # writes into a fresh TSDB, so monotonicity is preserved.
            self._exporter._now = state.exporter_now
            self._exporter.last_scrape = state.exporter_now
        self.dead_letters.restore(
            [
                DeadLetterRecord(
                    key=r["key"], reason=r["reason"], detail=r["detail"], day=r["day"]
                )
                for r in state.dead_letters
            ]
        )
        self._report_dicts = list(state.reports)
        _M_RESUMES.inc()
        return [_report_from_dict(data) for data in state.reports]

    @property
    def masked_environments(self) -> set[Environment]:
        return set(self._masked)

    @property
    def latest_model(self) -> Env2VecRegressor:
        if self._model is None:
            raise RuntimeError("no model trained yet; run at least one day")
        return self._model

    @property
    def observability_tsdb(self) -> TimeSeriesDB:
        """The campaign's self-metrics TSDB (one scrape per day).

        Query it with :mod:`repro.workflow.promql` at
        ``at=self.observability_now`` — e.g.
        ``rate(repro_campaign_alarms_total[2d])``.
        """
        if self._exporter is None:
            raise RuntimeError("self-monitoring is disabled (self_monitor=False)")
        return self._exporter.tsdb

    @property
    def observability_now(self) -> float:
        """The simulated timestamp of the most recent self-metrics scrape."""
        if self._exporter is None or self._exporter.last_scrape is None:
            raise RuntimeError("no self-metrics scraped yet; run at least one day")
        return self._exporter.last_scrape
