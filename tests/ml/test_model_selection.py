"""Validation grid search and estimator cloning."""

import numpy as np
import pytest

from repro.ml import (
    ParameterGrid,
    Ridge,
    RidgeTS,
    ValidationGridSearch,
    clone,
)


class TestParameterGrid:
    def test_cartesian_product(self):
        grid = ParameterGrid({"a": [1, 2], "b": ["x", "y", "z"]})
        combos = list(grid)
        assert len(combos) == len(grid) == 6
        assert {"a": 1, "b": "x"} in combos

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid({})
        with pytest.raises(ValueError):
            ParameterGrid({"a": []})
        with pytest.raises(TypeError):
            ParameterGrid({"a": 5})


class TestValidationGridSearch:
    def _data(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((300, 5))
        y = X @ rng.standard_normal(5) + 0.1 * rng.standard_normal(300)
        return X[:200], y[:200], X[200:], y[200:]

    def test_selects_best_alpha(self):
        X_train, y_train, X_val, y_val = self._data()
        search = ValidationGridSearch(Ridge(), {"alpha": [0.001, 1.0, 1000.0]})
        search.fit(X_train, y_train, X_val, y_val)
        # Low-noise linear data: small alpha should win clearly over 1000.
        assert search.best_params_["alpha"] < 1000.0
        assert len(search.results_) == 3

    def test_best_estimator_is_fitted(self):
        X_train, y_train, X_val, y_val = self._data()
        search = ValidationGridSearch(Ridge(), {"alpha": [0.1, 10.0]})
        search.fit(X_train, y_train, X_val, y_val)
        preds = search.best_estimator_.predict(X_val)
        assert preds.shape == y_val.shape

    def test_fit_kwargs_passed_through(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 3))
        history = rng.standard_normal((200, 2))
        y = X[:, 0] + history[:, 0]
        search = ValidationGridSearch(RidgeTS(n_lags=2), {"alpha": [0.01, 100.0]})
        search.fit(
            X[:150],
            y[:150],
            X[150:],
            y[150:],
            fit_kwargs={"history": history[:150]},
            score_kwargs={"history": history[150:]},
        )
        assert search.best_params_["alpha"] == 0.01


class TestClone:
    def test_clone_copies_params_not_state(self):
        model = Ridge(alpha=3.0)
        model.fit(np.random.default_rng(0).standard_normal((10, 2)), np.arange(10.0))
        copy = clone(model)
        assert copy.alpha == 3.0
        assert copy.coef_ is None
