"""L1-regularized linear regression via cyclic coordinate descent.

A sparse complement to :class:`repro.ml.ridge.Ridge`: the Figure 1 heatmap
shows per-chain linear models assigning *zero* weight to many contextual
features ("White cells have zero weight, which means that either the
metric was unavailable on that testbed, or that it was not deemed
important by the model"). Ridge never produces exact zeros; Lasso does, so
it reproduces the sparse-weights reading of Figure 1 directly and doubles
as a feature selector.

The solver is standard cyclic coordinate descent with soft-thresholding on
centered data (the intercept is not penalized).
"""

from __future__ import annotations

import numpy as np

from .base import Estimator, check_X, check_X_y

__all__ = ["Lasso"]


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


class Lasso(Estimator):
    """``min (1/2n) ||Xw + b - y||^2 + alpha ||w||_1``."""

    def __init__(self, alpha: float = 1.0, max_iter: int = 1000, tol: float = 1e-6):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    def fit(self, X, y) -> "Lasso":
        X, y = check_X_y(X, y)
        n, d = X.shape
        x_mean = X.mean(axis=0)
        y_mean = y.mean()
        Xc = X - x_mean
        yc = y - y_mean
        # Precompute column norms; constant columns stay at zero weight.
        col_sq = (Xc**2).sum(axis=0)
        w = np.zeros(d)
        residual = yc.copy()  # residual = yc - Xc @ w, maintained incrementally
        threshold = self.alpha * n
        for iteration in range(1, self.max_iter + 1):
            max_delta = 0.0
            for j in range(d):
                if col_sq[j] == 0.0:
                    continue
                column = Xc[:, j]
                rho = column @ residual + col_sq[j] * w[j]
                new_w = _soft_threshold(rho, threshold) / col_sq[j]
                delta = new_w - w[j]
                if delta != 0.0:
                    residual -= delta * column
                    w[j] = new_w
                    max_delta = max(max_delta, abs(delta))
            if max_delta < self.tol:
                break
        self.n_iter_ = iteration
        self.coef_ = w
        self.intercept_ = float(y_mean - x_mean @ w)
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_X(X)
        if X.shape[1] != self.coef_.shape[0]:
            raise ValueError(f"expected {self.coef_.shape[0]} features, got {X.shape[1]}")
        return X @ self.coef_ + self.intercept_

    def sparsity(self, threshold: float = 1e-12) -> float:
        """Fraction of exactly-zero coefficients."""
        self._require_fitted()
        return float(np.mean(np.abs(self.coef_) <= threshold))
