"""End-to-end HTM anomaly detector (the HTM-AD baseline of §4.2.2).

Wires encoder → spatial pooler → temporal memory → anomaly likelihood into
a streaming detector over a single scalar metric. Crucially — and this is
the property the paper contrasts against — the detector sees **only** the
target resource time series; it has no access to contextual features or
environment metadata, which is why it underperforms on contextual
anomalies (Table 5: A_T = 0.381).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anomaly import AnomalyLikelihood
from .encoder import ScalarEncoder
from .spatial_pooler import SpatialPooler
from .temporal_memory import TemporalMemory

__all__ = ["HTMDetector", "HTMResult"]


@dataclass
class HTMResult:
    """Streaming outputs for one series: raw scores and likelihoods."""

    raw_scores: np.ndarray
    likelihoods: np.ndarray

    def alarms(self, threshold: float = 0.99) -> np.ndarray:
        """Boolean alarm mask: likelihood ~1, as the paper thresholds it."""
        return self.likelihoods >= threshold


class HTMDetector:
    """Streaming univariate anomaly detector."""

    def __init__(
        self,
        minimum: float,
        maximum: float,
        n_bits: int = 256,
        w: int = 17,
        n_columns: int = 160,
        cells_per_column: int = 6,
        sparsity: float = 0.06,
        likelihood_window: int = 100,
        short_window: int = 5,
        learning_period: int = 50,
        seed: int | None = 0,
    ):
        self.encoder = ScalarEncoder(minimum, maximum, n_bits=n_bits, w=w)
        self.pooler = SpatialPooler(
            input_size=n_bits, n_columns=n_columns, sparsity=sparsity, seed=seed
        )
        n_active = self.pooler.n_active
        self.memory = TemporalMemory(
            n_columns=n_columns,
            cells_per_column=cells_per_column,
            activation_threshold=max(1, int(n_active * 0.8)),
            learning_threshold=max(1, int(n_active * 0.5)),
            seed=seed,
        )
        self.likelihood = AnomalyLikelihood(
            window=likelihood_window, short_window=short_window, learning_period=learning_period
        )

    def step(self, value: float, learn: bool = True) -> tuple[float, float]:
        """Consume one value; returns (raw_anomaly, anomaly_likelihood)."""
        sdr = self.encoder.encode(value)
        columns = self.pooler.compute(sdr, learn=learn)
        raw = self.memory.compute(columns, learn=learn)
        return raw, self.likelihood.update(raw)

    def run(self, series: np.ndarray, learn: bool = True) -> HTMResult:
        """Process a whole series; returns per-timestep scores."""
        series = np.asarray(series, dtype=np.float64)
        raw_scores = np.empty(len(series))
        likelihoods = np.empty(len(series))
        for i, value in enumerate(series):
            raw_scores[i], likelihoods[i] = self.step(value, learn=learn)
        return HTMResult(raw_scores=raw_scores, likelihoods=likelihoods)
