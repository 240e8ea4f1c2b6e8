"""Prediction pipeline (paper §3, workflow steps 3-5).

Step 5: fetch the latest model from the training pipeline's store.
Step 3: read the running testbed's data, construct the Table 2 dataframe
(CFs + EM + RU history + observed RU), infer RU with the model, and compare
against the observation.
Step 4: on significant deviations (gamma·sigma rule + 5% absolute filter),
push alarms — testbed, interval, peak deviation — into the alarm store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.anomaly import AnomalyReport, ContextualAnomalyDetector, GaussianErrorModel
from ..core.model import Env2VecRegressor
from ..data.chains import BuildChain, TestExecution
from ..data.environment import Environment
from ..data.frame import Frame
from ..data.windows import build_windows, build_windows_multi
from ..obs import get_observability
from .alarms import AlarmStore
from .model_store import CorruptModelError, ModelStore

__all__ = [
    "PredictionPipeline",
    "PredictBatch",
    "PipelineRun",
    "SkippedExecution",
    "build_prediction_frame",
]

_OBS = get_observability()
_H_RUN = _OBS.histogram(
    "repro_prediction_run_seconds",
    "End-to-end latency of one prediction-pipeline run (windowing, "
    "inference, detection, alarm pushes).",
)
_M_RUNS = _OBS.counter(
    "repro_prediction_runs_total", "Prediction-pipeline runs executed."
)
_M_WINDOWS = _OBS.counter(
    "repro_prediction_windows_total",
    "History windows (timesteps) scored by the prediction pipeline.",
)
_M_ALARMS = _OBS.counter(
    "repro_alarms_raised_total", "Alarms pushed to the alarm store by pipeline runs."
)
_M_CACHE_HITS = _OBS.counter(
    "repro_model_cache_hits_total",
    "Model fetches answered by the version-keyed cache.",
)
_M_CACHE_MISSES = _OBS.counter(
    "repro_model_cache_misses_total",
    "Model fetches that deserialized and compiled a published blob.",
)
_M_FALLBACKS = _OBS.counter(
    "repro_resilience_model_fallbacks_total",
    "Fetches served by the cached last-good model after a corrupt blob.",
)
_M_ROW_FAILURES = _OBS.counter(
    "repro_prediction_row_failures_total",
    "Executions that failed scoring and were isolated from their batchmates.",
)


def build_prediction_frame(
    execution: TestExecution, n_lags: int, feature_names: list[str] | None = None
) -> Frame:
    """The Table 2 dataframe: CFs, EM columns, RU-history lags, observed RU.

    Rows correspond to timesteps with a full history window (the first
    ``n_lags`` timesteps are dropped).
    """
    X, history, y = build_windows(execution.features, execution.cpu, n_lags)
    names = feature_names or [f"feature_{i:02d}" for i in range(X.shape[1])]
    if len(names) != X.shape[1]:
        raise ValueError(f"{len(names)} feature names for {X.shape[1]} feature columns")
    frame = Frame({name: X[:, i] for i, name in enumerate(names)})
    for field, value in execution.environment.as_dict().items():
        frame[field] = np.full(len(frame), value, dtype=object)
    for lag in range(1, n_lags + 1):
        # history columns are oldest-first; cpu_t_minus_1 is the last one.
        frame[f"cpu_t_minus_{lag}"] = history[:, n_lags - lag]
    frame["cpu_usage"] = y
    return frame


@dataclass(frozen=True)
class PredictBatch:
    """The one prediction request shape every entry point consumes.

    Campaign days, batch re-verdicts and the ``repro.serve`` request path
    all go through this type and :meth:`PredictionPipeline.execute`.
    ``error_models`` aligns one
    :class:`~repro.core.anomaly.GaussianErrorModel` (or ``None`` for the
    §4.3 self-calibrated mode) with each execution; ``None`` means
    self-calibrated throughout.
    """

    executions: tuple[TestExecution, ...]
    error_models: tuple | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "executions", tuple(self.executions))
        if self.error_models is not None:
            object.__setattr__(self, "error_models", tuple(self.error_models))
            if len(self.error_models) != len(self.executions):
                raise ValueError(
                    f"error_models must align with executions: got "
                    f"{len(self.error_models)} for {len(self.executions)}"
                )

    def __len__(self) -> int:
        return len(self.executions)

    def aligned_error_models(self) -> tuple:
        """One entry per execution, ``None``-filled when omitted."""
        if self.error_models is None:
            return (None,) * len(self.executions)
        return self.error_models


@dataclass(repr=False)
class PipelineRun:
    """Everything one pipeline execution produced."""

    report: AnomalyReport
    predictions: np.ndarray
    observations: np.ndarray
    model_version: int
    alarm_ids: list[int]
    terminated_early: bool

    def __repr__(self) -> str:
        # Deliberately compact: the default dataclass repr stringifies the
        # full prediction arrays, which asyncio's future/task reprs then
        # render per request — measurably dominating the serve hot path.
        return (
            f"PipelineRun(model_version={self.model_version}, "
            f"windows={len(self.observations)}, alarm_ids={self.alarm_ids}, "
            f"terminated_early={self.terminated_early})"
        )


@dataclass(frozen=True)
class SkippedExecution:
    """A typed skip-with-reason: the pipeline could not monitor this one.

    Returned (never raised) by the serve layer when the telemetry behind
    a ``record_id`` request is missing, ambiguous, quarantined or
    unreachable — monitoring one execution must not crash the service.
    """

    reason: str
    detail: str = ""

    @property
    def skipped(self) -> bool:
        return True


class PredictionPipeline:
    def __init__(
        self,
        store: ModelStore,
        alarms: AlarmStore,
        gamma: float = 2.0,
        abs_threshold: float = 5.0,
        termination_threshold: int | None = None,
    ):
        self.store = store
        self.alarms = alarms
        self.detector = ContextualAnomalyDetector(gamma=gamma, abs_threshold=abs_threshold)
        self.termination_threshold = termination_threshold
        self._model_cache: tuple[int, Env2VecRegressor] | None = None

    def latest_model(self) -> tuple[Env2VecRegressor, int]:
        """Latest model, deserialized and compiled once per published version.

        ``calibrate``/``execute``/``report`` and the single-loop serve
        service each fetch the model; without the version-keyed cache every
        call re-parsed the npz blob and rebuilt the network. The cached
        regressor carries its compiled inference engine, so repeated
        monitoring calls skip both deserialization and compile. The serve
        service also calls this from a publish hook, so a retrain compiles
        before the next request needs it.

        The cache doubles as the *last-good* model: when the newest
        published blob is corrupt (:class:`CorruptModelError`), monitoring
        keeps serving the cached version instead of going dark. Only a
        corrupt blob with no prior good model propagates the error, and
        :class:`LookupError` means nothing has been published yet.
        """
        # One read of the slot: a publish hook may replace it, and a model
        # must not pair with another version.
        cached = self._model_cache
        if cached is not None and cached[0] == self.store.latest_version:
            _M_CACHE_HITS.inc()
            return cached[1], cached[0]
        try:
            blob, version = self.store.fetch_latest()
            model = Env2VecRegressor.from_bytes(blob)
        except CorruptModelError:
            if cached is None:
                raise
            _M_FALLBACKS.inc()
            return cached[1], cached[0]
        _M_CACHE_MISSES.inc()
        model.compile()
        self._model_cache = (version.version, model)
        return model, version.version

    @property
    def cached_version(self) -> int:
        """Version of the model :meth:`latest_model` holds; 0 when none."""
        cached = self._model_cache
        return cached[0] if cached is not None else 0

    def calibrate(self, chain: BuildChain) -> GaussianErrorModel:
        """Fit the normal-error Gaussian over a chain's historical builds."""
        model, _ = self.latest_model()
        error_model = self.history_error_model(model, chain.history)
        if error_model is None:
            raise ValueError("chain has no historical executions to calibrate on")
        return error_model

    @staticmethod
    def history_error_model(
        model: Env2VecRegressor,
        executions: list[TestExecution],
        branch_rows: list[np.ndarray] | None = None,
    ) -> GaussianErrorModel | None:
        """Fit the normal-error Gaussian over ``executions``; pure.

        One coalesced forward over every execution's windows, bitwise
        equal to predicting them one at a time (every kernel is
        row-wise); errors concatenate in input order. ``None`` when there
        is nothing to calibrate on. Callers filter what counts as history
        (masked environments, executions too short to window).
        ``branch_rows``, when the caller kept them (:meth:`branch_rows`),
        align with ``executions`` and only the head half runs.
        """
        if not executions:
            return None
        predicted, observed = PredictionPipeline._predict_rows(model, executions, branch_rows)
        return GaussianErrorModel.fit(np.concatenate(predicted) - np.concatenate(observed))

    @staticmethod
    def branch_rows(model: Env2VecRegressor, executions: list[TestExecution]) -> list[np.ndarray]:
        """Each execution's frozen-branch rows ``[v_ts, v_fs]``, one per window.

        One :func:`build_windows_multi` gather and one pass of the
        compiled branch half (:meth:`Env2VecRegressor.branch_rows`) over
        the whole list, split back per execution in input order. The
        rows stay valid while ``model``'s encoder, FNN and scalers do,
        so a caller may keep them and score or calibrate through the
        head half alone.
        """
        X, history, _, series_ids = build_windows_multi(
            [(execution.features, execution.cpu) for execution in executions], model.n_lags
        )
        rows = model.branch_rows(X, history)
        bounds = np.cumsum(np.bincount(series_ids, minlength=len(executions))).tolist()
        return [rows[start:end] for start, end in zip([0, *bounds[:-1]], bounds)]

    def execute(
        self,
        batch: PredictBatch,
        *,
        model: Env2VecRegressor | None = None,
        model_version: int | None = None,
        branch_rows: list[np.ndarray] | None = None,
    ) -> list[PipelineRun]:
        """Monitor a :class:`PredictBatch` sharing one model version.

        The single prediction entry point: the model is fetched once,
        windows and forwards are coalesced into one batched predict
        (bitwise identical to per-execution predicts — every kernel is
        row-wise), and detection runs grouped. Side effects are applied
        by :meth:`fan_in`, serially in input order, so alarm ids, store
        contents, and every returned :class:`PipelineRun` are
        byte-identical to a per-execution loop — and independent of how
        callers slice a workload into batches, which is what lets the
        ``repro.serve`` micro-batcher coalesce concurrent requests freely.

        ``model``/``model_version`` inject an already-fetched model (a
        campaign's freshly trained model); by default the latest
        published version is fetched through the version-keyed cache.
        Executions must be long enough to window
        (``n_timesteps > n_lags + 1``). ``branch_rows`` are the
        executions' rows from :meth:`branch_rows` under ``model``, when
        the caller kept them; scoring then runs only the head half. Rows
        need the model they came from, so they need an injected ``model``.
        """
        executions = list(batch.executions)
        if not executions:
            return []
        if model is not None and model_version is None:
            raise ValueError("model_version must accompany an injected model")
        if branch_rows is not None and model is None:
            raise ValueError("branch_rows need the injected model that computed them")
        # One latency observation for the whole batch (a per-execution
        # observation would misrepresent the coalesced forwards).
        with _H_RUN.time(), _OBS.span("predict.execute"):
            if model is None:
                model, model_version = self.latest_model()
            model.ensure_compiled()
            scored = self.score_executions(
                model, executions, list(batch.aligned_error_models()), branch_rows
            )
            return self.fan_in(
                executions, scored, model_version=model_version, n_lags=model.n_lags
            )

    def score_executions(
        self,
        model: Env2VecRegressor,
        executions: list[TestExecution],
        error_models: list[GaussianErrorModel | None] | None = None,
        branch_rows: list[np.ndarray] | None = None,
    ) -> list[tuple[AnomalyReport, np.ndarray, np.ndarray]]:
        """Pure scoring: windows, one coalesced forward, grouped detection.

        No side effects — no alarm pushes, no metrics, no store reads —
        which is what lets the serve supervisor run it inside worker
        processes and apply :meth:`fan_in` back on the parent in dispatch
        order. Returns one ``(report, predictions, observations)`` triple
        per execution, in input order. The coalesced forward is bitwise
        identical to per-execution predicts because every compiled kernel
        is row-wise. With ``branch_rows`` (see :meth:`execute`) only the
        head half runs, over them.
        """
        predicted_rows, observed_rows = self._predict_rows(model, executions, branch_rows)
        reports = self.detector.detect_many(predicted_rows, observed_rows, error_models)
        return list(zip(reports, predicted_rows, observed_rows))

    @staticmethod
    def _predict_rows(
        model: Env2VecRegressor,
        executions: list[TestExecution],
        branch_rows: list[np.ndarray] | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Window every execution, run one coalesced forward, split back.

        One :func:`build_windows_multi` gather windows the whole batch.
        Each execution's environment is encoded once and its id row
        repeated over the execution's windows, so no environment is
        hashed per window. Returns per-execution ``(predictions,
        observations)`` lists, in input order; bitwise equal to predicting
        each execution alone. Observations are views of each execution's
        own ``cpu`` (float64 by construction), so a run that outlives its
        batch, such as the serve layer's last-good answer, keeps no
        batch-sized array alive beyond its predictions. Given
        ``branch_rows``, nothing is windowed: the head half runs over
        the rows.
        """
        n_lags = model.n_lags
        if branch_rows is None:
            X, history, _, series_ids = build_windows_multi(
                [(execution.features, execution.cpu) for execution in executions], n_lags
            )
            counts = np.bincount(series_ids, minlength=len(executions))
        else:
            counts = [len(rows) for rows in branch_rows]
        env_ids = np.repeat(
            model.vocabulary.encode([execution.environment for execution in executions]),
            counts,
            axis=0,
        )
        if branch_rows is None:
            predicted = model._predict_encoded(env_ids, X, history)
        else:
            predicted = model.head_predict(env_ids, np.concatenate(branch_rows))
        bounds = np.cumsum(counts).tolist()
        return (
            [predicted[start:end] for start, end in zip([0, *bounds[:-1]], bounds)],
            [execution.cpu[n_lags:] for execution in executions],
        )

    def score_with_isolation(
        self,
        model: Env2VecRegressor,
        executions: list[TestExecution],
        error_models: list[GaussianErrorModel | None] | None = None,
    ) -> list[tuple]:
        """Score a batch, isolating per-row failures from batchmates.

        The fast path is one coalesced :meth:`score_executions`; if
        anything in the batch raises, every row is rescored alone —
        bitwise identical to the coalesced pass, since every kernel is
        row-wise — so one malformed execution fails only itself. Returns
        one outcome per execution, in order: ``("ok", report,
        predictions, observations)`` or ``("err", message)``.
        """
        executions = list(executions)
        if error_models is None:
            error_models = [None] * len(executions)
        try:
            return [
                ("ok", report, pred, observed)
                for report, pred, observed in self.score_executions(
                    model, executions, error_models
                )
            ]
        except Exception:
            outcomes: list[tuple] = []
            for execution, error_model in zip(executions, error_models):
                try:
                    (triple,) = self.score_executions(model, [execution], [error_model])
                    outcomes.append(("ok", *triple))
                except Exception as error:
                    _M_ROW_FAILURES.inc()
                    outcomes.append(("err", f"{type(error).__name__}: {error}"))
            return outcomes

    def fan_in(
        self,
        executions: list[TestExecution],
        scored: list[tuple[AnomalyReport, np.ndarray, np.ndarray]],
        *,
        model_version: int,
        n_lags: int,
    ) -> list[PipelineRun]:
        """Apply a batch's side effects serially, in input order.

        Alarm pushes, termination checks, and run metrics happen here and
        only here, so alarm ids, store contents, and every returned
        :class:`PipelineRun` come out exactly as a sequential loop would
        produce them — regardless of which serve worker process scored
        which row, or in what order scoring finished. The batch's alarms
        are stored in one transaction at the end; each termination check
        counts its environment's alarms from earlier in the batch as
        pending, so it sees what it would after pushing one by one. The
        run counters move once per batch, by the batch's totals.
        """
        offset = n_lags
        threshold = self.termination_threshold
        pending: list[tuple] = []
        batch_counts: dict[Environment, int] = {}
        terminated: list[bool] = []
        for execution, (report, _, _) in zip(executions, scored):
            environment = execution.environment
            pending.extend(
                (environment, alarm.start + offset, alarm.end + offset, alarm.peak_deviation, report.gamma)
                for alarm in report.alarms
            )
            count = batch_counts[environment] = batch_counts.get(environment, 0) + len(report.alarms)
            terminated.append(
                threshold is not None
                and self.alarms.should_terminate(environment, threshold=threshold, pending=count)
            )
        alarm_ids = iter(self.alarms.push_many(pending))
        runs = [
            PipelineRun(
                report=report,
                predictions=pred,
                observations=observed,
                model_version=model_version,
                alarm_ids=[next(alarm_ids) for _ in report.alarms],
                terminated_early=stop,
            )
            for (report, pred, observed), stop in zip(scored, terminated)
        ]
        _M_RUNS.inc(len(runs))
        _M_WINDOWS.inc(sum(len(run.observations) for run in runs))
        _M_ALARMS.inc(len(pending))
        return runs

    def report(self, execution: TestExecution, run: PipelineRun, width: int = 72) -> str:
        """Render the engineer-facing report for a completed run (step 4)."""
        from .reporting import execution_report

        model, _ = self.latest_model()
        return execution_report(execution, run.report, n_lags=model.n_lags, width=width)
