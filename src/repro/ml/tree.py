"""CART regression trees (the building block of ``RFReg``, §4.1.3).

The splitter minimizes the weighted sum of child variances (equivalently,
maximizes variance reduction), using a vectorized prefix-sum scan over each
feature's sorted values. Supports ``max_depth``, ``min_samples_split``,
``min_samples_leaf``, and per-node feature subsampling (used by the random
forest).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Estimator, check_X, check_X_y

__all__ = ["DecisionTreeRegressor", "TreeNode"]


@dataclass
class TreeNode:
    """One node of a fitted regression tree."""

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    n_samples: int = 0
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    feature_ids: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float] | None:
    """Return (feature, threshold, weighted_child_sse) of the best split.

    For each candidate feature, sort the target by feature value and scan
    all split positions with prefix sums: SSE of a segment is
    ``sum(y^2) - sum(y)^2 / n``, so the weighted child SSE at each split is
    computable in O(n) after the sort.
    """
    n = len(y)
    best: tuple[int, float, float] | None = None
    best_sse = np.inf
    for feature in feature_ids:
        values = X[:, feature]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        sorted_y = y[order]
        # Candidate split positions: between distinct consecutive values.
        csum = np.cumsum(sorted_y)
        csum_sq = np.cumsum(sorted_y**2)
        total = csum[-1]
        total_sq = csum_sq[-1]
        counts = np.arange(1, n)  # size of the left child at each position
        left_sse = csum_sq[:-1] - csum[:-1] ** 2 / counts
        right_counts = n - counts
        right_sum = total - csum[:-1]
        right_sse = (total_sq - csum_sq[:-1]) - right_sum**2 / right_counts
        sse = left_sse + right_sse
        valid = (
            (sorted_values[1:] > sorted_values[:-1])
            & (counts >= min_samples_leaf)
            & (right_counts >= min_samples_leaf)
        )
        if not valid.any():
            continue
        sse = np.where(valid, sse, np.inf)
        idx = int(np.argmin(sse))
        if sse[idx] < best_sse:
            best_sse = float(sse[idx])
            threshold = 0.5 * (sorted_values[idx] + sorted_values[idx + 1])
            best = (int(feature), threshold, best_sse)
    return best


class DecisionTreeRegressor(Estimator):
    """A CART regressor predicting leaf means.

    Parameters mirror the scikit-learn estimator the paper tunes:
    ``max_depth`` in {3..10} for RFReg's grid. ``max_features`` selects a
    random feature subset per node (``None`` = all, ``'sqrt'``, or an int),
    which injects the de-correlation random forests need.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root_: TreeNode | None = None
        self.n_features_: int = 0

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        self.n_features_ = X.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self.root_ = self._grow(X, y, depth=0)
        self._fitted = True
        return self

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if isinstance(self.max_features, int):
            if not 1 <= self.max_features <= self.n_features_:
                raise ValueError("max_features out of range")
            return self.max_features
        raise ValueError(f"invalid max_features {self.max_features!r}")

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> TreeNode:
        node = TreeNode(
            prediction=float(y.mean()),
            n_samples=len(y),
            impurity=float(y.var()),
        )
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or len(y) < self.min_samples_split
            or node.impurity == 0.0
        ):
            return node
        k = self._n_candidate_features()
        if k == self.n_features_:
            feature_ids = np.arange(self.n_features_)
        else:
            feature_ids = self._rng.choice(self.n_features_, size=k, replace=False)
        split = _best_split(X, y, feature_ids, self.min_samples_leaf)
        if split is None:
            return node
        feature, threshold, _ = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def predict(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_X(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features, got {X.shape[1]}")
        out = np.empty(len(X), dtype=np.float64)
        # Iterative routing: partition index sets down the tree.
        stack: list[tuple[TreeNode, np.ndarray]] = [(self.root_, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.prediction
                continue
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    def depth(self) -> int:
        """Depth of the fitted tree (0 for a stump/leaf-only tree)."""
        self._require_fitted()

        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)
