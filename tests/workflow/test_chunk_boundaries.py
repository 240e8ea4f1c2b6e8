"""Coalesced scoring equals per-execution prediction across chunk boundaries.

The prediction pipeline encodes one environment per execution, repeats
its id row over the execution's windows, and runs the compiled forward in
1024-row chunks. None of that may move a byte: for batches whose window
total lands on either side of a chunk boundary, with known, ``<unk>``,
mix-and-match, repeated, alternating and equal-but-distinct environments,
``_predict_rows``, ``history_error_model`` and ``execute`` must equal
per-execution ``model.predict`` calls fed one environment per window.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Env2VecRegressor
from repro.core.anomaly import ContextualAnomalyDetector, GaussianErrorModel
from repro.data import Environment
from repro.data.windows import build_windows
from repro.workflow import AlarmStore, ModelStore, PredictBatch, PredictionPipeline
from tests.strategies import (
    CHUNK_BOUNDARY_TOTALS,
    DERANDOMIZED,
    environment_pool,
    execution_batches,
)

N_LAGS = 3
N_FEATURES = 3
KNOWN = [
    Environment("tb-a", "sut-a", "tc-a", "b1"),
    Environment("tb-b", "sut-b", "tc-b", "b2"),
    Environment("tb-c", "sut-a", "tc-b", "b3"),
]
POOL = environment_pool(KNOWN)
ERROR_MODEL = GaussianErrorModel(mu=0.5, sigma=4.0)


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    n = 300
    environments = [KNOWN[i % len(KNOWN)] for i in range(n)]
    X = rng.standard_normal((n, N_FEATURES))
    history = rng.uniform(20.0, 80.0, (n, N_LAGS))
    y = history[:, -1] + 3.0 * X[:, 0] + 4.0 * (np.arange(n) % len(KNOWN))
    regressor = Env2VecRegressor(n_lags=N_LAGS, max_epochs=2, batch_size=64, seed=0)
    return regressor.fit(environments, X, history, y)


def _per_execution(model, executions):
    """Reference: one public predict per execution, one environment per window."""
    predicted, observed = [], []
    for execution in executions:
        X, history, y = build_windows(execution.features, execution.cpu, N_LAGS)
        predicted.append(model.predict([execution.environment] * len(y), X, history))
        observed.append(y)
    return predicted, observed


def _draw(data, total):
    return data.draw(
        execution_batches(POOL, total=total, n_features=N_FEATURES, n_lags=N_LAGS)
    )


boundary_totals = pytest.mark.parametrize("total", CHUNK_BOUNDARY_TOTALS)


@boundary_totals
@DERANDOMIZED
@given(data=st.data())
def test_predict_rows_bitwise_equal_per_execution(model, total, data):
    executions = _draw(data, total)
    predicted, observed = PredictionPipeline._predict_rows(model, executions)
    expected_predicted, expected_observed = _per_execution(model, executions)
    assert [p.tobytes() for p in predicted] == [p.tobytes() for p in expected_predicted]
    assert [o.tobytes() for o in observed] == [o.tobytes() for o in expected_observed]


@boundary_totals
@DERANDOMIZED
@given(data=st.data())
def test_history_error_model_bitwise_equal_per_execution(model, total, data):
    executions = _draw(data, total)
    predicted, observed = _per_execution(model, executions)
    errors = np.concatenate(predicted) - np.concatenate(observed)
    if len(errors) < 2:
        with pytest.raises(ValueError, match="at least 2"):
            PredictionPipeline.history_error_model(model, executions)
        return
    expected = GaussianErrorModel.fit(errors)
    actual = PredictionPipeline.history_error_model(model, executions)
    assert (actual.mu, actual.sigma) == (expected.mu, expected.sigma)


@boundary_totals
@DERANDOMIZED
@given(data=st.data())
def test_execute_bitwise_equal_per_execution(model, total, data):
    executions = _draw(data, total)
    pipeline = PredictionPipeline(ModelStore(), AlarmStore())
    runs = pipeline.execute(
        PredictBatch(executions, [ERROR_MODEL] * len(executions)),
        model=model,
        model_version=1,
    )
    detector = ContextualAnomalyDetector()
    for run, predicted, observed in zip(runs, *_per_execution(model, executions)):
        assert run.predictions.tobytes() == predicted.tobytes()
        assert run.observations.tobytes() == observed.tobytes()
        expected = detector.detect(predicted, observed, ERROR_MODEL)
        assert run.report.errors.tobytes() == expected.errors.tobytes()
        assert run.report.flags.tobytes() == expected.flags.tobytes()
        assert run.report.alarms == expected.alarms
