"""One contract, every estimator: params, cloning, fit/predict/score.

The grid search and the evaluation harness treat every ``repro.ml``
regressor interchangeably; this suite pins the shared surface so a new
estimator (or a signature drift like ``RidgeTS``'s ``history=``) cannot
silently break them.
"""

import numpy as np
import pytest

from repro.ml import (
    SVR,
    DecisionTreeRegressor,
    LinearRegression,
    RandomForestRegressor,
    Ridge,
    RidgeTS,
    clone,
)
from repro.ml.base import Estimator

RNG = np.random.default_rng(11)
X = RNG.normal(size=(60, 4))
Y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.01 * RNG.normal(size=60)
HISTORY = RNG.normal(size=(60, 2))

#: (factory, fit/predict keyword arguments) for every public estimator.
ESTIMATORS = [
    (lambda: Ridge(alpha=0.5), {}),
    (lambda: LinearRegression(), {}),
    (lambda: RidgeTS(alpha=0.5, n_lags=2), {"history": HISTORY}),
    (lambda: DecisionTreeRegressor(max_depth=4, random_state=0), {}),
    (lambda: RandomForestRegressor(n_estimators=5, max_depth=4, random_state=0), {}),
    (lambda: SVR(alpha=1.0, kernel="rbf", max_iter=20), {}),
]

IDS = [factory().__class__.__name__ for factory, _ in ESTIMATORS]


@pytest.fixture(params=ESTIMATORS, ids=IDS)
def estimator_and_kwargs(request):
    factory, kwargs = request.param
    return factory(), kwargs


class TestEstimatorContract:
    def test_is_an_estimator(self, estimator_and_kwargs):
        estimator, _ = estimator_and_kwargs
        assert isinstance(estimator, Estimator)

    def test_get_params_round_trips_through_constructor(self, estimator_and_kwargs):
        estimator, _ = estimator_and_kwargs
        params = estimator.get_params()
        rebuilt = type(estimator)(**params)
        assert rebuilt.get_params() == params

    def test_set_params_updates_and_rejects_unknown(self, estimator_and_kwargs):
        estimator, _ = estimator_and_kwargs
        params = estimator.get_params()
        assert estimator.set_params(**params) is estimator
        with pytest.raises(ValueError, match="unknown parameter"):
            estimator.set_params(definitely_not_a_param=1)

    def test_clone_is_fresh_and_identical(self, estimator_and_kwargs):
        estimator, kwargs = estimator_and_kwargs
        estimator.fit(X, Y, **kwargs)
        copy = clone(estimator)
        assert type(copy) is type(estimator)
        assert copy is not estimator
        assert copy.get_params() == estimator.get_params()
        assert not copy._fitted  # clone drops fitted state
        # The method form matches the module-level helper.
        assert estimator.clone().get_params() == copy.get_params()

    def test_unfitted_predict_raises(self, estimator_and_kwargs):
        estimator, kwargs = estimator_and_kwargs
        with pytest.raises(RuntimeError, match="not fitted"):
            estimator.predict(X, **kwargs)

    def test_fit_predict_score(self, estimator_and_kwargs):
        estimator, kwargs = estimator_and_kwargs
        assert estimator.fit(X, Y, **kwargs) is estimator
        predicted = estimator.predict(X, **kwargs)
        assert predicted.shape == (len(X),)
        assert np.isfinite(predicted).all()
        # Base-class score forwards predict kwargs, so one code path fits all.
        score = estimator.score(X, Y, **kwargs)
        assert score == pytest.approx(-float(np.mean((predicted - Y) ** 2)))
        assert score <= 0.0

    def test_score_is_inherited_not_overridden(self, estimator_and_kwargs):
        estimator, _ = estimator_and_kwargs
        assert type(estimator).score is Estimator.score
