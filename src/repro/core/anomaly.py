"""Contextual anomaly detection (paper §3.2 "Anomaly detection", §4.2.2).

Given a fitted characterization model, the detector:

1. fits a Gaussian N(mu_err, sigma_err) on the prediction errors over the
   *previous, non-problematic* builds of a build chain;
2. for the next build, flags timestep p when the error deviates from the
   mean by more than ``gamma * sigma_err`` **and** — the false-alarm filter
   of §4.2.2 — the absolute deviation |y'_p − y_p| exceeds 5 (CPU
   percentage points);
3. merges consecutive flagged timesteps into *alarms*, each reporting the
   interval of the deviation (workflow step 4).

For previously unseen environments (§4.3) there is no historical error
distribution; :meth:`ContextualAnomalyDetector.detect_self_calibrated`
applies gamma to the error distribution "computed for all timesteps in the
test execution" instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import get_observability

__all__ = [
    "GaussianErrorModel",
    "Alarm",
    "AnomalyReport",
    "ContextualAnomalyDetector",
    "merge_flags_into_alarms",
    "score_alarms",
    "AlarmScore",
]

#: §4.2.2 — alarms additionally require an absolute CPU deviation above 5%.
DEFAULT_ABS_THRESHOLD = 5.0

_OBS = get_observability()
_M_DETECTIONS = _OBS.counter(
    "repro_detector_detections_total", "Executions scored by the anomaly detector."
)
_M_DET_ALARMS = _OBS.counter(
    "repro_detector_alarms_total", "Alarms produced by the anomaly detector."
)
_M_FLAGS = _OBS.counter(
    "repro_detector_flagged_timesteps_total",
    "Timesteps flagged anomalous (after the absolute filter).",
)
_M_FILTERED = _OBS.counter(
    "repro_detector_filtered_timesteps_total",
    "Timesteps over the gamma*sigma rule but suppressed by the 5% absolute filter.",
)


@dataclass
class GaussianErrorModel:
    """The N(mu_err, sigma_err) model of normal prediction error."""

    mu: float
    sigma: float

    @classmethod
    def fit(cls, errors: np.ndarray) -> "GaussianErrorModel":
        errors = np.asarray(errors, dtype=np.float64)
        if errors.size < 2:
            raise ValueError("need at least 2 error samples to fit a Gaussian")
        if not np.isfinite(errors).all():
            raise ValueError("errors contain NaN or infinite values")
        # Sample std (Bessel-corrected): build chains have few prior builds,
        # and ddof=0 biases sigma low on small n, making the gamma*sigma
        # rule over-alarm. n >= 2 is enforced above, so ddof=1 is defined.
        sigma = float(errors.std(ddof=1))
        return cls(mu=float(errors.mean()), sigma=max(sigma, 1e-9))

    def zscore(self, errors: np.ndarray) -> np.ndarray:
        return (np.asarray(errors, dtype=np.float64) - self.mu) / self.sigma

    def is_anomalous(self, errors: np.ndarray, gamma: float) -> np.ndarray:
        """|error − mu| > gamma * sigma, per timestep."""
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return np.abs(self.zscore(errors)) > gamma


@dataclass(frozen=True)
class Alarm:
    """One reported performance problem: a contiguous flagged interval."""

    start: int
    end: int  # exclusive
    peak_deviation: float

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError("alarm needs 0 <= start < end")

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps_interval(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end


@dataclass
class AnomalyReport:
    """Detection output for one test execution."""

    flags: np.ndarray  # (timesteps,) bool
    alarms: list[Alarm]
    errors: np.ndarray  # per-timestep prediction error y' - y
    gamma: float

    @property
    def n_alarms(self) -> int:
        return len(self.alarms)


def merge_flags_into_alarms(flags: np.ndarray, deviations: np.ndarray) -> list[Alarm]:
    """Group consecutive flagged timesteps into alarms with peak deviation."""
    flags = np.asarray(flags, dtype=bool)
    deviations = np.asarray(deviations, dtype=np.float64)
    if flags.shape != deviations.shape:
        raise ValueError("flags and deviations must align")
    # A run starts where the flags rise and ends where they fall; padding
    # with False on both sides closes runs at either edge.
    edges = np.flatnonzero(np.diff(flags, prepend=False, append=False)).tolist()
    return [
        Alarm(start=start, end=end, peak_deviation=float(np.abs(deviations[start:end]).max()))
        for start, end in zip(edges[::2], edges[1::2])
    ]


class ContextualAnomalyDetector:
    """Implements the gamma·sigma rule plus the 5% absolute filter."""

    def __init__(self, gamma: float = 2.0, abs_threshold: float = DEFAULT_ABS_THRESHOLD):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if abs_threshold < 0:
            raise ValueError("abs_threshold must be non-negative")
        self.gamma = gamma
        self.abs_threshold = abs_threshold

    def fit_error_model(self, predicted: np.ndarray, observed: np.ndarray) -> GaussianErrorModel:
        """Fit the normal-build error distribution from historical builds."""
        predicted = np.asarray(predicted, dtype=np.float64)
        observed = np.asarray(observed, dtype=np.float64)
        if predicted.shape != observed.shape:
            raise ValueError("predicted and observed must align")
        return GaussianErrorModel.fit(predicted - observed)

    def detect(
        self,
        predicted: np.ndarray,
        observed: np.ndarray,
        error_model: GaussianErrorModel,
    ) -> AnomalyReport:
        """Flag anomalies in the current build against a fitted error model."""
        predicted = np.asarray(predicted, dtype=np.float64)
        observed = np.asarray(observed, dtype=np.float64)
        if predicted.shape != observed.shape:
            raise ValueError("predicted and observed must align")
        errors = predicted - observed
        flags = error_model.is_anomalous(errors, self.gamma)
        over_sigma = int(flags.sum())
        if self.abs_threshold > 0:
            flags &= np.abs(errors) > self.abs_threshold
        alarms = merge_flags_into_alarms(flags, errors)
        _M_DETECTIONS.inc()
        _M_DET_ALARMS.inc(len(alarms))
        _M_FLAGS.inc(int(flags.sum()))
        _M_FILTERED.inc(over_sigma - int(flags.sum()))
        return AnomalyReport(
            flags=flags,
            alarms=alarms,
            errors=errors,
            gamma=self.gamma,
        )

    def detect_many(
        self,
        predicted_rows: list[np.ndarray],
        observed_rows: list[np.ndarray],
        error_models: list[GaussianErrorModel | None] | None = None,
    ) -> list[AnomalyReport]:
        """Score many executions at once, bitwise equal to per-row detect.

        Rows are grouped by timestep count and each group is scored with
        one set of reductions over a stacked ``(rows, timesteps)`` array
        instead of ~10 tiny numpy calls per row; only rows with a flag
        are merged into alarms, and the counters move once per group.
        Every reduction runs
        along ``axis=1`` — each row independently — so flags, errors and
        alarms are bitwise identical to calling :meth:`detect` (or
        :meth:`detect_self_calibrated` for rows without an error model)
        row by row. A single-row call pays the same dispatch cost as
        :meth:`detect`; the win is for coalescing callers (the
        ``repro.serve`` micro-batcher, ``PredictionPipeline.execute``),
        which amortize it across the whole group. The common served batch,
        equal-length rows that all calibrate on themselves, is one group
        without any grouping work.
        """
        if len(predicted_rows) != len(observed_rows):
            raise ValueError("predicted_rows and observed_rows must align")
        lengths = [len(predicted) for predicted in predicted_rows]
        if lengths != [len(observed) for observed in observed_rows]:
            raise ValueError("predicted and observed must align")
        if error_models is not None and len(error_models) != len(predicted_rows):
            raise ValueError("error_models must align with the rows")
        if (
            lengths
            and lengths[0] >= 2
            and lengths.count(lengths[0]) == len(lengths)
            and (error_models is None or all(model is None for model in error_models))
        ):
            return self._detect_group(predicted_rows, observed_rows, None)
        if error_models is None:
            error_models = [None] * len(predicted_rows)

        groups: dict[int, list[int]] = {}
        per_row: list[int] = []
        for index, (length, model) in enumerate(zip(lengths, error_models)):
            if model is None or isinstance(model, GaussianErrorModel):
                groups.setdefault(length, []).append(index)
            else:
                per_row.append(index)

        reports: list[AnomalyReport | None] = [None] * len(predicted_rows)
        # Degenerate rows keep the exact per-row error behavior (a
        # self-calibrated fit on < 2 samples must raise), and a model
        # without a (mu, sigma) pair, such as a QuantileErrorModel, flags
        # through its own is_anomalous.
        for index in per_row + groups.pop(0, []) + groups.pop(1, []):
            predicted, observed = predicted_rows[index], observed_rows[index]
            model = error_models[index]
            if model is None:
                reports[index] = self.detect_self_calibrated(predicted, observed)
            else:
                reports[index] = self.detect(predicted, observed, model)
        for indices in groups.values():
            models = [error_models[index] for index in indices]
            group = self._detect_group(
                [predicted_rows[index] for index in indices],
                [observed_rows[index] for index in indices],
                None if all(model is None for model in models) else models,
            )
            for index, report in zip(indices, group):
                reports[index] = report
        return reports

    def _detect_group(
        self,
        predicted_rows: list[np.ndarray],
        observed_rows: list[np.ndarray],
        models: list[GaussianErrorModel | None] | None,
    ) -> list[AnomalyReport]:
        """:meth:`detect_many` over rows of one length (at least 2).

        ``models`` is ``None`` when every row calibrates on itself, else
        one Gaussian model or ``None`` per row.
        """
        n = len(predicted_rows)
        predicted = np.concatenate(predicted_rows, dtype=np.float64).reshape(n, -1)
        observed = np.concatenate(observed_rows, dtype=np.float64).reshape(n, -1)
        errors = predicted - observed
        if models is None:
            mu, sigma = _self_calibration(errors)
        else:
            mu = np.empty((n, 1))
            sigma = np.empty((n, 1))
            calibrate = [slot for slot, model in enumerate(models) if model is None]
            if calibrate:
                mu[calibrate], sigma[calibrate] = _self_calibration(errors[calibrate])
            given = [slot for slot, model in enumerate(models) if model is not None]
            mu[given, 0] = [models[slot].mu for slot in given]
            sigma[given, 0] = [models[slot].sigma for slot in given]
        flags = np.abs((errors - mu) / sigma) > self.gamma
        over_sigma = np.count_nonzero(flags)
        if self.abs_threshold > 0:
            flags &= np.abs(errors) > self.abs_threshold
        flagged = np.count_nonzero(flags)
        # Only rows with a flag can raise an alarm.
        alarms = {
            slot: merge_flags_into_alarms(flags[slot], errors[slot])
            for slot in np.flatnonzero(flags.any(axis=1)).tolist()
        } if flagged else {}
        _M_DETECTIONS.inc(n)
        _M_DET_ALARMS.inc(sum(map(len, alarms.values())))
        _M_FLAGS.inc(flagged)
        _M_FILTERED.inc(over_sigma - flagged)
        gamma = self.gamma
        return [
            AnomalyReport(flags=row_flags, alarms=alarms.get(slot, []), errors=row_errors, gamma=gamma)
            for slot, (row_flags, row_errors) in enumerate(zip(flags, errors))
        ]

    def detect_self_calibrated(self, predicted: np.ndarray, observed: np.ndarray) -> AnomalyReport:
        """§4.3 unseen-environment mode: calibrate on the execution itself.

        "As there is no previous prediction error distribution associated
        to a test execution in an unseen environment, we apply the
        user-defined gamma to the prediction error distribution computed
        for all timesteps in the test execution."
        """
        predicted = np.asarray(predicted, dtype=np.float64)
        observed = np.asarray(observed, dtype=np.float64)
        error_model = self.fit_error_model(predicted, observed)
        return self.detect(predicted, observed, error_model)


def _self_calibration(errors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's :meth:`GaussianErrorModel.fit` ``(mu, sigma)``, bitwise,
    as two ``(rows, 1)`` columns.

    ``mean`` and ``std(ddof=1)`` are computed as the reductions numpy
    runs for them, without their per-call argument handling.
    """
    if not np.isfinite(errors).all():
        raise ValueError("errors contain NaN or infinite values")
    steps = errors.shape[1]
    mu = np.add.reduce(errors, axis=1, keepdims=True) / steps
    centered = errors - mu
    np.multiply(centered, centered, out=centered)
    sigma = np.sqrt(np.add.reduce(centered, axis=1, keepdims=True) / (steps - 1))
    return mu, np.maximum(sigma, 1e-9, out=sigma)


@dataclass
class AlarmScore:
    """Alarm-quality metrics: the paper's A_T and A_F (§4.2.2).

    ``correct_alarms`` counts raised alarms that overlap ground truth (the
    engineer-labelled true positives); ``problems_detected`` counts
    distinct ground-truth problems hit by at least one alarm — the
    quantity behind "Env2Vec with γ=1 can detect the highest number of
    problems (25)".
    """

    n_alarms: int
    correct_alarms: int
    problems_detected: int = 0
    total_problems: int = 0

    @property
    def true_alarm_rate(self) -> float:
        """A_T = N_tp / (N_tp + N_fp); 0 when no alarms were raised."""
        return self.correct_alarms / self.n_alarms if self.n_alarms else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of alarm precision (A_T) and problem recall.

        Precision is the true-alarm rate; recall is the fraction of
        ground-truth problems hit by at least one alarm. Used to compare
        detection quality between clean and degraded (chaos) campaigns
        with a single number. 0 when either side has no support.
        """
        precision = self.true_alarm_rate
        recall = self.problems_detected / self.total_problems if self.total_problems else 0.0
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)

    def __add__(self, other: "AlarmScore") -> "AlarmScore":
        return AlarmScore(
            n_alarms=self.n_alarms + other.n_alarms,
            correct_alarms=self.correct_alarms + other.correct_alarms,
            problems_detected=self.problems_detected + other.problems_detected,
            total_problems=self.total_problems + other.total_problems,
        )


def score_alarms(
    alarms: list[Alarm],
    truth_mask: np.ndarray,
    problem_intervals: list[tuple[int, int]] | None = None,
) -> AlarmScore:
    """Count alarms that overlap any ground-truth anomalous timestep.

    An alarm is *correct* (a true positive) when its interval overlaps the
    ground-truth anomaly mask; otherwise it is a false positive. This
    mirrors the paper's per-alarm labelling by testing engineers. When
    ``problem_intervals`` is given, also count how many distinct problems
    were detected by at least one alarm.
    """
    truth_mask = np.asarray(truth_mask, dtype=bool)
    correct = sum(1 for alarm in alarms if truth_mask[alarm.start : alarm.end].any())
    detected = 0
    intervals = problem_intervals or []
    for start, end in intervals:
        if start >= end:
            raise ValueError(f"invalid problem interval ({start}, {end})")
        if any(alarm.overlaps_interval(start, end) for alarm in alarms):
            detected += 1
    return AlarmScore(
        n_alarms=len(alarms),
        correct_alarms=correct,
        problems_detected=detected,
        total_problems=len(intervals),
    )
