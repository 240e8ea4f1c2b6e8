"""Epsilon-insensitive support vector regression (SVR baseline, §4.1.3 / [21]).

scikit-learn's libsvm-backed SVR is unavailable offline, so the estimator is
implemented via the representer theorem: the regression function is
``f(x) = Σ_i beta_i K(x_i, x) + b`` and we minimize the kernelized primal

    (alpha / 2) * beta^T K beta  +  mean_i L_eps(f(x_i) - y_i)

where ``L_eps`` is a *smoothed* epsilon-insensitive loss (quadratically
rounded at the hinge corners so L-BFGS converges; the smoothing width is
much smaller than any epsilon in the paper's grid {0.1..1.0}). The
hyper-parameters match the paper: regularization ``alpha``
({0.001..1000}), ``kernel`` in {linear, poly, rbf}, and tolerance margin
``epsilon`` ({0.1, 0.2, ..., 1.0}).
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from .base import Estimator, check_X, check_X_y

__all__ = ["SVR", "PAPER_SVR_ALPHAS", "PAPER_SVR_KERNELS", "PAPER_SVR_EPSILONS"]

#: §4.1.3 hyper-parameter grids for the SVR baseline.
PAPER_SVR_ALPHAS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
PAPER_SVR_KERNELS = ("linear", "poly", "rbf")
PAPER_SVR_EPSILONS = tuple(round(0.1 * i, 1) for i in range(1, 11))

#: Degree of the ``"poly"`` kernel (scikit-learn's default).
POLY_DEGREE = 3


def _kernel_matrix(kernel: str, A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    if kernel == "linear":
        return A @ B.T
    if kernel == "poly":
        return (gamma * (A @ B.T) + 1.0) ** POLY_DEGREE
    if kernel == "rbf":
        sq = (
            np.sum(A**2, axis=1)[:, None]
            + np.sum(B**2, axis=1)[None, :]
            - 2.0 * A @ B.T
        )
        return np.exp(-gamma * np.maximum(sq, 0.0))
    raise ValueError(f"unknown kernel {kernel!r}; choose from {PAPER_SVR_KERNELS}")


def _smooth_eps_loss(residual: np.ndarray, epsilon: float, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed epsilon-insensitive loss and its derivative w.r.t. residual.

    Zero inside |r| <= eps; linear with slope ±1 outside eps + mu; a
    quadratic bridge of width mu in between keeps the gradient continuous.
    """
    excess = np.abs(residual) - epsilon
    sign = np.sign(residual)
    loss = np.zeros_like(residual)
    grad = np.zeros_like(residual)
    quad = (excess > 0) & (excess <= mu)
    lin = excess > mu
    loss[quad] = excess[quad] ** 2 / (2.0 * mu)
    grad[quad] = sign[quad] * excess[quad] / mu
    loss[lin] = excess[lin] - mu / 2.0
    grad[lin] = sign[lin]
    return loss, grad


class SVR(Estimator):
    """Kernel SVR trained with L-BFGS on the smoothed primal."""

    def __init__(
        self,
        alpha: float = 1.0,
        kernel: str = "rbf",
        epsilon: float = 0.1,
        gamma: float | str = "scale",
        max_iter: int = 200,
        smoothing: float = 1e-3,
    ):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if kernel not in PAPER_SVR_KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; choose from {PAPER_SVR_KERNELS}")
        self.alpha = alpha
        self.kernel = kernel
        self.epsilon = epsilon
        self.gamma = gamma
        self.max_iter = max_iter
        self.smoothing = smoothing
        self.beta_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self._X_train: np.ndarray | None = None

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            var = X.var()
            return 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        return float(self.gamma)

    def fit(self, X, y) -> "SVR":
        X, y = check_X_y(X, y)
        self._X_train = X
        self._gamma = self._resolve_gamma(X)
        K = _kernel_matrix(self.kernel, X, X, self._gamma)
        n = len(y)
        mu = self.smoothing

        def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
            beta, b = params[:n], params[n]
            f = K @ beta + b
            loss, dloss = _smooth_eps_loss(f - y, self.epsilon, mu)
            reg = 0.5 * self.alpha * beta @ K @ beta
            value = float(loss.mean() + reg)
            grad_beta = K @ (dloss / n) + self.alpha * (K @ beta)
            grad_b = float(dloss.mean())
            return value, np.concatenate([grad_beta, [grad_b]])

        start = np.zeros(n + 1)
        start[n] = y.mean()
        result = optimize.minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.beta_ = result.x[:n]
        self.intercept_ = float(result.x[n])
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_X(X)
        if X.shape[1] != self._X_train.shape[1]:
            raise ValueError(f"expected {self._X_train.shape[1]} features, got {X.shape[1]}")
        K = _kernel_matrix(self.kernel, X, self._X_train, self._gamma)
        return K @ self.beta_ + self.intercept_
