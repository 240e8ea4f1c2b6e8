"""Decision tree and random forest regressor tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeRegressor, RandomForestRegressor

RNG = np.random.default_rng(9)


def _step_data(n=200, seed=0):
    """Piecewise-constant target: trees should fit this exactly."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 2))
    y = np.where(X[:, 0] < 0.5, 1.0, np.where(X[:, 1] < 0.5, 2.0, 3.0))
    return X, y


class TestDecisionTree:
    def test_fits_piecewise_constant_exactly(self):
        X, y = _step_data()
        tree = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(tree.predict(X), y)

    def test_max_depth_limits_tree(self):
        X, y = _step_data()
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert tree.depth() <= 1

    def test_stump_predicts_two_means(self):
        X, y = _step_data()
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert len(np.unique(tree.predict(X))) <= 2

    def test_min_samples_leaf_respected(self):
        X, y = _step_data(50)
        tree = DecisionTreeRegressor(min_samples_leaf=10).fit(X, y)

        def leaf_sizes(node):
            if node.is_leaf:
                return [node.n_samples]
            return leaf_sizes(node.left) + leaf_sizes(node.right)

        assert min(leaf_sizes(tree.root_)) >= 10

    def test_min_samples_split(self):
        X, y = _step_data(50)
        tree = DecisionTreeRegressor(min_samples_split=100).fit(X, y)
        assert tree.root_.is_leaf
        np.testing.assert_allclose(tree.predict(X), y.mean())

    def test_constant_target_is_single_leaf(self):
        X = RNG.standard_normal((30, 3))
        tree = DecisionTreeRegressor().fit(X, np.full(30, 5.0))
        assert tree.root_.is_leaf
        np.testing.assert_allclose(tree.predict(X), 5.0)

    def test_constant_features_single_leaf(self):
        X = np.ones((30, 2))
        y = RNG.standard_normal(30)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.root_.is_leaf

    def test_better_than_mean_on_smooth_function(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, size=(300, 1))
        y = np.sin(X[:, 0])
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        mse = np.mean((tree.predict(X) - y) ** 2)
        assert mse < np.var(y) * 0.05

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    def test_wrong_feature_count_on_predict(self):
        X, y = _step_data()
        tree = DecisionTreeRegressor().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(X[:, :1])

    def test_max_features_subsampling(self):
        X, y = _step_data()
        tree = DecisionTreeRegressor(max_features=1, random_state=0).fit(X, y)
        assert np.isfinite(tree.predict(X)).all()
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features=5).fit(X, y)

    def test_deterministic_given_seed(self):
        X, y = _step_data()
        p1 = DecisionTreeRegressor(max_features=1, random_state=3).fit(X, y).predict(X)
        p2 = DecisionTreeRegressor(max_features=1, random_state=3).fit(X, y).predict(X)
        np.testing.assert_allclose(p1, p2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=10_000))
    def test_property_predictions_within_target_range(self, n, seed):
        """Leaf means can never leave [min(y), max(y)]."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 3))
        y = rng.standard_normal(n)
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        preds = tree.predict(rng.standard_normal((50, 3)))
        assert preds.min() >= y.min() - 1e-12
        assert preds.max() <= y.max() + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=10, max_value=50), st.integers(min_value=0, max_value=10_000))
    def test_property_deeper_never_worse_on_train(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        shallow = DecisionTreeRegressor(max_depth=1).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=8).fit(X, y)
        mse_shallow = np.mean((shallow.predict(X) - y) ** 2)
        mse_deep = np.mean((deep.predict(X) - y) ** 2)
        assert mse_deep <= mse_shallow + 1e-12


class TestRandomForest:
    def test_fits_step_function(self):
        X, y = _step_data()
        forest = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
        mse = np.mean((forest.predict(X) - y) ** 2)
        assert mse < 0.05

    def test_prediction_is_mean_of_trees(self):
        X, y = _step_data(80)
        forest = RandomForestRegressor(n_estimators=5, random_state=1).fit(X, y)
        stacked = np.stack([tree.predict(X) for tree in forest.trees_])
        np.testing.assert_allclose(forest.predict(X), stacked.mean(axis=0))

    def test_deterministic_given_seed(self):
        X, y = _step_data()
        f1 = RandomForestRegressor(n_estimators=10, random_state=7).fit(X, y).predict(X)
        f2 = RandomForestRegressor(n_estimators=10, random_state=7).fit(X, y).predict(X)
        np.testing.assert_allclose(f1, f2)

    def test_seed_changes_model(self):
        X, y = _step_data()
        f1 = RandomForestRegressor(n_estimators=5, random_state=1).fit(X, y).predict(X)
        f2 = RandomForestRegressor(n_estimators=5, random_state=2).fit(X, y).predict(X)
        assert not np.allclose(f1, f2)

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    def test_forest_smoother_than_single_tree(self):
        """Ensemble variance on noise should be below a single deep tree's."""
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (300, 2))
        y = X[:, 0] + 0.5 * rng.standard_normal(300)
        X_test = rng.uniform(-1, 1, (200, 2))
        y_test = X_test[:, 0]
        tree_mse = np.mean(
            (DecisionTreeRegressor(random_state=0).fit(X, y).predict(X_test) - y_test) ** 2
        )
        forest_mse = np.mean(
            (
                RandomForestRegressor(n_estimators=40, random_state=0).fit(X, y).predict(X_test)
                - y_test
            )
            ** 2
        )
        assert forest_mse < tree_mse
