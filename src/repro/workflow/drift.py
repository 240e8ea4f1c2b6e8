"""Model-drift detection: know when the daily retrain is *needed*.

The paper retrains Env2Vec on a fixed daily schedule (§3 step 2). In a
production deployment the complementary question is whether the serving
model has *drifted* — new builds, config pushes, or infrastructure changes
can shift the error distribution between retrains, inflating false alarms.

:class:`PageHinkley` implements the Page-Hinkley sequential change
detector over the stream of absolute prediction errors on *clean*
executions: it accumulates the deviation of each observation from the
running mean (minus a tolerance ``delta``) and signals when the
accumulated drift exceeds ``threshold``. :class:`DriftMonitor` wraps it
per-deployment and recommends a retrain when drift fires; a
:class:`~repro.workflow.orchestrator.TestingCampaign` day on which it
fires refits in full instead of fine-tuning yesterday's model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PageHinkley", "DriftMonitor", "DriftDecision"]


class PageHinkley:
    """Page-Hinkley test for upward mean shifts in a value stream."""

    def __init__(self, delta: float = 0.05, threshold: float = 5.0, warmup: int = 30):
        if delta < 0:
            raise ValueError("delta must be non-negative")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        self.delta = delta
        self.threshold = threshold
        self.warmup = warmup
        self.reset()

    def reset(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._cumulative = 0.0
        self._minimum = 0.0

    @property
    def statistic(self) -> float:
        """Current drift statistic (0 when no upward shift accumulated)."""
        return self._cumulative - self._minimum

    def update(self, value: float) -> bool:
        """Feed one observation; returns True when drift is detected."""
        if not np.isfinite(value):
            raise ValueError("observations must be finite")
        self._count += 1
        self._mean += (value - self._mean) / self._count
        self._cumulative += value - self._mean - self.delta
        self._minimum = min(self._minimum, self._cumulative)
        if self._count <= self.warmup:
            return False
        return self.statistic > self.threshold

    def state_dict(self) -> dict:
        """The detector's mutable state, for campaign checkpoints."""
        return {
            "count": self._count,
            "mean": self._mean,
            "cumulative": self._cumulative,
            "minimum": self._minimum,
        }

    def load_state(self, state: dict) -> None:
        self._count = int(state["count"])
        self._mean = float(state["mean"])
        self._cumulative = float(state["cumulative"])
        self._minimum = float(state["minimum"])


@dataclass
class DriftDecision:
    """Outcome of feeding one clean execution's errors to the monitor."""

    drifted: bool
    statistic: float
    observations: int


@dataclass
class DriftMonitor:
    """Tracks serving-model error drift and recommends retraining.

    Feed it the mean absolute error of each *clean* (non-flagged) monitored
    execution in arrival order. When Page-Hinkley fires, the monitor
    recommends a retrain and resets so the next model generation starts
    from a clean slate.
    """

    delta: float = 0.05
    threshold: float = 5.0
    warmup: int = 10
    detector: PageHinkley = field(init=False)
    retrain_recommendations: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.detector = PageHinkley(
            delta=self.delta, threshold=self.threshold, warmup=self.warmup
        )
        self._observations = 0

    def observe(self, clean_execution_mae: float) -> DriftDecision:
        """Record one execution's characterization error."""
        if clean_execution_mae < 0:
            raise ValueError("MAE must be non-negative")
        self._observations += 1
        drifted = self.detector.update(clean_execution_mae)
        statistic = self.detector.statistic
        if drifted:
            self.retrain_recommendations += 1
            self.detector.reset()
            self._observations = 0
        return DriftDecision(
            drifted=drifted, statistic=statistic, observations=self._observations
        )

    def state_dict(self) -> dict:
        """Everything needed to resume drift tracking after a restart."""
        return {
            "detector": self.detector.state_dict(),
            "retrain_recommendations": self.retrain_recommendations,
            "observations": self._observations,
        }

    def load_state(self, state: dict) -> None:
        self.detector.load_state(state["detector"])
        self.retrain_recommendations = int(state["retrain_recommendations"])
        self._observations = int(state["observations"])
