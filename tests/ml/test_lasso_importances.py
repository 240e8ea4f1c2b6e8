"""Lasso regression and tree/forest feature-importance tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeRegressor, Lasso, RandomForestRegressor, Ridge


def _sparse_data(n=300, d=10, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    second = min(3, d - 1)
    y = 3.0 * X[:, 0] - 2.0 * X[:, second] + noise * rng.standard_normal(n)
    return X, y


class TestLasso:
    def test_recovers_sparse_support(self):
        X, y = _sparse_data()
        model = Lasso(alpha=0.1).fit(X, y)
        np.testing.assert_array_equal(np.flatnonzero(np.abs(model.coef_) > 1e-12), [0, 3])
        assert model.sparsity() == pytest.approx(0.8)

    def test_coefficients_near_truth(self):
        X, y = _sparse_data(noise=0.01)
        model = Lasso(alpha=0.01).fit(X, y)
        assert model.coef_[0] == pytest.approx(3.0, abs=0.05)
        assert model.coef_[3] == pytest.approx(-2.0, abs=0.05)

    def test_alpha_zero_matches_ols(self):
        X, y = _sparse_data(d=4)  # informative features 0 and 3
        lasso = Lasso(alpha=0.0, max_iter=5000, tol=1e-10).fit(X, y)
        ols = Ridge(alpha=0.0).fit(X, y)
        np.testing.assert_allclose(lasso.coef_, ols.coef_, atol=1e-5)
        assert lasso.intercept_ == pytest.approx(ols.intercept_, abs=1e-5)

    def test_huge_alpha_zeroes_everything(self):
        X, y = _sparse_data()
        model = Lasso(alpha=1e6).fit(X, y)
        np.testing.assert_allclose(model.coef_, 0.0)
        assert model.intercept_ == pytest.approx(y.mean())

    def test_sparsity_monotone_in_alpha(self):
        X, y = _sparse_data()
        sparsities = [Lasso(alpha=a).fit(X, y).sparsity() for a in (0.001, 0.1, 1.0, 10.0)]
        assert sparsities == sorted(sparsities)

    def test_constant_column_gets_zero_weight(self):
        X, y = _sparse_data(d=4)
        X = np.hstack([X, np.ones((len(X), 1))])
        model = Lasso(alpha=0.05).fit(X, y)
        assert model.coef_[-1] == 0.0

    def test_predict_shape_and_quality(self):
        X, y = _sparse_data()
        model = Lasso(alpha=0.05).fit(X[:200], y[:200])
        predictions = model.predict(X[200:])
        assert predictions.shape == (100,)
        assert np.abs(predictions - y[200:]).mean() < y.std() * 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            Lasso(alpha=-1.0)
        with pytest.raises(ValueError):
            Lasso(max_iter=0)
        with pytest.raises(ValueError):
            Lasso(tol=0.0)
        model = Lasso(alpha=0.1).fit(*_sparse_data(d=4))
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 5)))
        with pytest.raises(RuntimeError):
            Lasso().predict(np.zeros((2, 2)))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_objective_not_worse_than_zero_solution(self, seed):
        """The fitted solution's objective never exceeds w = 0's."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        alpha = 0.5
        model = Lasso(alpha=alpha, max_iter=2000).fit(X, y)

        def objective(w, b):
            return 0.5 * np.mean((X @ w + b - y) ** 2) + alpha * np.abs(w).sum()

        assert objective(model.coef_, model.intercept_) <= objective(
            np.zeros(4), y.mean()
        ) + 1e-9


class TestFeatureImportances:
    def test_tree_identifies_informative_features(self):
        X, y = _sparse_data(noise=0.05)
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        importances = tree.feature_importances()
        assert importances.sum() == pytest.approx(1.0)
        assert set(np.argsort(importances)[-2:]) == {0, 3}

    def test_single_leaf_tree_all_zero(self):
        tree = DecisionTreeRegressor().fit(np.ones((20, 3)), np.full(20, 2.0))
        np.testing.assert_allclose(tree.feature_importances(), 0.0)

    def test_forest_importances_average_trees(self):
        X, y = _sparse_data()
        forest = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        importances = forest.feature_importances()
        assert importances.shape == (10,)
        assert importances.sum() == pytest.approx(1.0)
        stacked = np.stack([tree.feature_importances() for tree in forest.trees_])
        np.testing.assert_allclose(importances, stacked.mean(axis=0))

    def test_forest_finds_true_support(self):
        X, y = _sparse_data(noise=0.05)
        forest = RandomForestRegressor(n_estimators=30, random_state=1).fit(X, y)
        importances = forest.feature_importances()
        assert set(np.argsort(importances)[-2:]) == {0, 3}

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().feature_importances()
        with pytest.raises(RuntimeError):
            RandomForestRegressor().feature_importances()
