"""Principal component analysis via SVD.

Used by the Figure 6 reproduction: the concatenated environment embeddings
learned by Env2Vec are projected to 2-d with PCA to reveal clustering by
build type ("the dimensionality has been reduced to 2-dimensional space
using principal component analysis", §4.3).
"""

from __future__ import annotations

import numpy as np

__all__ = ["PCA"]


class PCA:
    """Exact PCA on centered data via singular value decomposition."""

    def __init__(self, n_components: int = 2):
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = n_components
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None
        self.explained_variance_ratio_: np.ndarray | None = None

    def fit(self, X) -> "PCA":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("PCA expects a 2-d matrix")
        n, d = X.shape
        if self.n_components > min(n, d):
            raise ValueError(f"n_components={self.n_components} exceeds min(n, d)={min(n, d)}")
        self.mean_ = X.mean(axis=0)
        centered = X - self.mean_
        _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
        variance = singular_values**2 / max(n - 1, 1)
        total = variance.sum()
        self.components_ = vt[: self.n_components]
        self.explained_variance_ = variance[: self.n_components]
        self.explained_variance_ratio_ = (
            self.explained_variance_ / total if total > 0 else np.zeros(self.n_components)
        )
        return self

    def transform(self, X) -> np.ndarray:
        if self.components_ is None:
            raise RuntimeError("PCA is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return (X - self.mean_) @ self.components_.T

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)
