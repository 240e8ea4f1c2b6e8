"""Statistical significance testing.

§4.1.2: "we use the paired t-test with a significance of 0.05 to draw
meaningful conclusions when comparing means." The implementation wraps
scipy's paired t-test with the 0.05 convention baked in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

__all__ = ["PairedTTestResult", "paired_t_test"]

PAPER_SIGNIFICANCE = 0.05


@dataclass(frozen=True)
class PairedTTestResult:
    statistic: float
    p_value: float
    significant: bool
    mean_difference: float

    def __str__(self) -> str:
        marker = "significant" if self.significant else "not significant"
        return (
            f"t={self.statistic:.3f}, p={self.p_value:.4f} ({marker} at "
            f"{PAPER_SIGNIFICANCE}), mean diff={self.mean_difference:+.4f}"
        )


def paired_t_test(scores_a, scores_b) -> PairedTTestResult:
    """Two-sided paired t-test between matched score samples, judged at
    the paper's :data:`PAPER_SIGNIFICANCE`.

    A significant result with a negative ``mean_difference`` means method A
    scored lower (better, for error metrics) than method B.
    """
    scores_a = np.asarray(scores_a, dtype=np.float64)
    scores_b = np.asarray(scores_b, dtype=np.float64)
    if scores_a.shape != scores_b.shape or scores_a.ndim != 1:
        raise ValueError("need two aligned 1-d score vectors")
    if len(scores_a) < 2:
        raise ValueError("need at least 2 paired samples")
    statistic, p_value = stats.ttest_rel(scores_a, scores_b)
    return PairedTTestResult(
        statistic=float(statistic),
        p_value=float(p_value),
        significant=bool(p_value < PAPER_SIGNIFICANCE),
        mean_difference=float(np.mean(scores_a - scores_b)),
    )
