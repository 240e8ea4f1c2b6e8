"""Anomaly likelihood post-processing (Ahmad et al. 2017, §3 of that paper).

Raw temporal-memory anomaly scores are noisy; HTM-AD converts them into an
*anomaly likelihood* by modelling the recent distribution of scores as a
Gaussian and computing the tail probability of the short-term average:

    likelihood = 1 - Q((shortMean - windowMean) / windowStd)

where Q is the Gaussian survival function. A likelihood near 1 means the
recent anomaly scores are extreme relative to the historical distribution.
The paper thresholds this at exactly 1.0 ("we only considered when the
anomaly score is equal to 1 to generate alarms"); in practice that
corresponds to a likelihood above ``1 - epsilon``.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy import stats

__all__ = ["AnomalyLikelihood"]


class AnomalyLikelihood:
    def __init__(self, window: int = 200, short_window: int = 10, learning_period: int = 50):
        if short_window < 1 or window < short_window:
            raise ValueError("need 1 <= short_window <= window")
        if learning_period < 0:
            raise ValueError("learning_period must be >= 0")
        self.window = window
        self.short_window = short_window
        self.learning_period = learning_period
        self._scores: deque[float] = deque(maxlen=window)
        self._seen = 0

    def update(self, raw_score: float) -> float:
        """Feed a raw anomaly score; returns the anomaly likelihood in [0, 1]."""
        if not 0.0 <= raw_score <= 1.0:
            raise ValueError("raw anomaly scores must be in [0, 1]")
        self._scores.append(float(raw_score))
        self._seen += 1
        if self._seen <= self.learning_period or len(self._scores) < self.short_window:
            return 0.5
        scores = np.asarray(self._scores)
        mean = scores.mean()
        std = scores.std()
        if std < 1e-6:
            std = 1e-6
        short_mean = scores[-self.short_window :].mean()
        # z-test on the short-window mean: under the null (no change) its
        # standard error is std / sqrt(short_window).
        z = (short_mean - mean) / (std / np.sqrt(self.short_window))
        return float(1.0 - stats.norm.sf(z))
