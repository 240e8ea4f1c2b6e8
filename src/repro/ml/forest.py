"""Random forest regressor (``RFReg`` in §4.1.3).

Bagged CART trees with per-node feature subsampling; predictions are the
mean over trees. The paper searches ``max_depth`` over {3, 4, ..., 10} and
``n_estimators`` over {10, 50, 100, 1000}; those grids are exported as
constants for the benchmark harness.
"""

from __future__ import annotations

import numpy as np

from .base import Estimator, check_X, check_X_y
from .tree import DecisionTreeRegressor

__all__ = ["RandomForestRegressor", "PAPER_RF_MAX_DEPTHS", "PAPER_RF_N_ESTIMATORS"]

#: §4.1.3 hyper-parameter grids for RFReg.
PAPER_RF_MAX_DEPTHS = tuple(range(3, 11))
PAPER_RF_N_ESTIMATORS = (10, 50, 100, 1000)


class RandomForestRegressor(Estimator):
    """An ensemble of bootstrap-trained regression trees."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.trees_: list[DecisionTreeRegressor] = []

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y = check_X_y(X, y)
        rng = np.random.default_rng(self.random_state)
        n = len(y)
        self.trees_ = []
        for _ in range(self.n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
                tree.fit(X[idx], y[idx])
            else:
                tree.fit(X, y)
            self.trees_.append(tree)
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_X(X)
        total = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees_:
            total += tree.predict(X)
        return total / len(self.trees_)
