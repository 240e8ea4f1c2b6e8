"""Error-distribution calibration (the §3.2 caveat, made actionable).

The paper's anomaly detector "assumes that the prediction errors will
follow a Gaussian distribution, and while this may be adequate in many
cases, it is not necessarily always true. Thus, a more rigorous modelling
of the prediction error for a particular VNF may be required in such
cases." This module supplies that rigour:

- :func:`calibration_report` quantifies how Gaussian a chain's error
  distribution actually is (normality test, skew/kurtosis, and the
  *empirical* tail mass beyond each γ vs the Gaussian prediction);
- :class:`QuantileErrorModel` is the distribution-free alternative: flag a
  timestep when its error falls outside the historical errors' central
  ``1 - 2q`` quantile band — the analogue of γ·σ without the Gaussian
  assumption. It plugs into :class:`ContextualAnomalyDetector`'s
  ``detect`` and ``detect_many`` wherever a :class:`GaussianErrorModel`
  is accepted. The serve API takes only a :class:`GaussianErrorModel`:
  its worker wire ships the ``(mu, sigma)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .anomaly import GaussianErrorModel

__all__ = ["QuantileErrorModel", "CalibrationReport", "calibration_report", "gamma_to_quantile"]


def gamma_to_quantile(gamma: float) -> float:
    """The per-side tail mass a Gaussian puts beyond ±γσ (e.g. γ=2 → 2.28%)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return float(stats.norm.sf(gamma))


class QuantileErrorModel:
    """Distribution-free error model: thresholds from empirical quantiles.

    Duck-types :class:`GaussianErrorModel`'s detection interface
    (``is_anomalous(errors, gamma)``): γ is translated to the equivalent
    Gaussian tail mass, and the thresholds are the historical errors'
    empirical quantiles at that mass. On truly Gaussian errors the two
    models agree; on heavy-tailed errors this one stops over-flagging.
    """

    def __init__(self, errors: np.ndarray):
        errors = np.asarray(errors, dtype=np.float64)
        if errors.size < 10:
            raise ValueError("need at least 10 error samples for quantile calibration")
        if not np.isfinite(errors).all():
            raise ValueError("errors contain NaN or infinite values")
        self._sorted = np.sort(errors)
        self.mu = float(np.median(errors))

    @classmethod
    def fit(cls, errors: np.ndarray) -> "QuantileErrorModel":
        return cls(errors)

    def bounds(self, gamma: float) -> tuple[float, float]:
        """The (lower, upper) thresholds equivalent to ±γσ."""
        tail = gamma_to_quantile(gamma)
        lower = float(np.quantile(self._sorted, tail))
        upper = float(np.quantile(self._sorted, 1.0 - tail))
        return lower, upper

    def zscore(self, errors: np.ndarray) -> np.ndarray:
        """Robust z-score (median / MAD), for reporting parity."""
        mad = float(np.median(np.abs(self._sorted - self.mu))) or 1e-9
        return (np.asarray(errors, dtype=np.float64) - self.mu) / (1.4826 * mad)

    def is_anomalous(self, errors: np.ndarray, gamma: float) -> np.ndarray:
        lower, upper = self.bounds(gamma)
        errors = np.asarray(errors, dtype=np.float64)
        return (errors < lower) | (errors > upper)


@dataclass
class CalibrationReport:
    """How well the Gaussian assumption holds for one error sample."""

    n_samples: int
    mean: float
    std: float
    skewness: float
    excess_kurtosis: float
    normality_p_value: float
    # Per gamma: (empirical two-sided tail mass, Gaussian-predicted mass)
    tail_mass: dict[float, tuple[float, float]]

    @property
    def looks_gaussian(self) -> bool:
        """Normality not rejected at the paper's 0.05 significance."""
        return self.normality_p_value >= 0.05

    def table(self) -> str:
        lines = [
            f"Error calibration over {self.n_samples} samples: "
            f"mean={self.mean:+.3f} std={self.std:.3f} skew={self.skewness:+.2f} "
            f"excess kurtosis={self.excess_kurtosis:+.2f}",
            f"normality test p={self.normality_p_value:.4f} "
            f"({'Gaussian OK' if self.looks_gaussian else 'NOT Gaussian'})",
            f"{'γ':>4} {'empirical tail':>15} {'Gaussian tail':>14}",
        ]
        for gamma, (empirical, predicted) in sorted(self.tail_mass.items()):
            lines.append(f"{gamma:4.1f} {empirical:15.4f} {predicted:14.4f}")
        return "\n".join(lines)


def calibration_report(
    errors: np.ndarray, gammas: tuple[float, ...] = (1.0, 2.0, 3.0)
) -> CalibrationReport:
    """Assess the Gaussian-error assumption on a sample of prediction errors."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size < 20:
        raise ValueError("need at least 20 error samples for a calibration report")
    if not np.isfinite(errors).all():
        raise ValueError("errors contain NaN or infinite values")
    gaussian = GaussianErrorModel.fit(errors)
    # Normality: D'Agostino-Pearson (robust for n >= 20).
    _, p_value = stats.normaltest(errors)
    tail_mass = {}
    for gamma in gammas:
        flagged = gaussian.is_anomalous(errors, gamma)
        tail_mass[gamma] = (float(flagged.mean()), 2.0 * gamma_to_quantile(gamma))
    return CalibrationReport(
        n_samples=int(errors.size),
        mean=float(errors.mean()),
        std=float(errors.std()),
        skewness=float(stats.skew(errors)),
        excess_kurtosis=float(stats.kurtosis(errors)),
        normality_p_value=float(p_value),
        tail_mass=tail_mass,
    )
