"""Serialize -> deserialize -> predict round-trips and compiled-path parity.

The workflow publishes :meth:`Env2VecRegressor.to_bytes` blobs over the
model store and the prediction pipeline reconstructs them with
``from_bytes``; these tests pin down that the reconstruction predicts
*identically* — through the compiled engine, without any Trainer — for
every head and recurrent-unit variant.
"""

import numpy as np
import pytest

from repro.core import Env2VecRegressor
from repro.data import Environment

RNG = np.random.default_rng(31)

ENVS = [
    Environment("Testbed_01", "SUT_A", "Testcase_Load", "Build_S01"),
    Environment("Testbed_02", "SUT_B", "Testcase_Load", "Build_S02"),
    Environment("Testbed_01", "SUT_B", "Testcase_Endurance", "Build_D01"),
]


def _task(n=90, n_features=4, n_lags=3, seed=5):
    rng = np.random.default_rng(seed)
    environments = [ENVS[i % len(ENVS)] for i in range(n)]
    X = rng.standard_normal((n, n_features))
    history = rng.standard_normal((n, n_lags))
    y = X @ rng.standard_normal(n_features) + 0.3 * history.sum(axis=1)
    return environments, X, history, y


def _fit(**overrides) -> Env2VecRegressor:
    params = dict(
        n_lags=3, embedding_dim=4, fnn_hidden=8, gru_hidden=5,
        max_epochs=2, batch_size=32, seed=3,
    )
    params.update(overrides)
    environments, X, history, y = _task()
    return Env2VecRegressor(**params).fit(environments, X, history, y)


class TestSerializationRoundTrip:
    @pytest.mark.parametrize("head", ["hadamard", "bilinear", "mlp"])
    def test_heads_predict_identically_after_round_trip(self, head):
        regressor = _fit(head=head)
        environments, X, history, _ = _task()
        expected = regressor.predict(environments, X, history)
        restored = Env2VecRegressor.from_bytes(regressor.to_bytes())
        np.testing.assert_allclose(
            restored.predict(environments, X, history), expected, atol=1e-10
        )

    @pytest.mark.parametrize(
        "variant",
        [{"encoder": "attention"}, {"encoder": "lstm"}, {"encoder": "lstm_attention"}],
    )
    def test_architecture_variants_round_trip(self, variant):
        regressor = _fit(**variant)
        environments, X, history, _ = _task()
        expected = regressor.predict(environments, X, history)
        restored = Env2VecRegressor.from_bytes(regressor.to_bytes())
        np.testing.assert_allclose(
            restored.predict(environments, X, history), expected, atol=1e-10
        )

    def test_deserialized_model_predicts_without_trainer(self):
        restored = Env2VecRegressor.from_bytes(_fit().to_bytes())
        assert not hasattr(restored, "_trainer")
        environments, X, history, _ = _task(n=7)
        assert restored.predict(environments, X, history).shape == (7,)


class TestCompiledPredictPath:
    def test_compiled_matches_autograd_no_grad(self):
        regressor = _fit()
        environments, X, history, _ = _task()
        np.testing.assert_allclose(
            regressor.predict(environments, X, history, compiled=True),
            regressor.predict(environments, X, history, compiled=False),
            atol=1e-10,
        )

    def test_engine_parity_within_1e10(self):
        regressor = _fit()
        environments, X, history, _ = _task()
        engine = regressor.compile()
        batch = regressor._batch(environments, X, history)
        assert engine.assert_close(batch, atol=1e-10) <= 1e-10

    def test_engine_reused_until_invalidated(self):
        regressor = _fit()
        environments, X, history, y = _task(n=30)
        regressor.predict(environments, X, history)
        engine = regressor._engine
        assert engine is not None
        regressor.predict(environments, X, history)
        assert regressor._engine is engine  # cached across predict calls
        regressor.fine_tune(environments, X, history, y, epochs=1)
        assert regressor._engine is None  # weights moved: stale engine dropped
        np.testing.assert_allclose(
            regressor.predict(environments, X, history),
            regressor.predict(environments, X, history, compiled=False),
            atol=1e-10,
        )

    def test_streaming_prediction_matches_batch(self):
        """One row at a time, each environment's id row coming from the
        vocabulary's memo after its first call, equals one batched call."""
        regressor = _fit()
        environments, X, history, _ = _task(n=40)
        streamed = np.concatenate([
            regressor.predict(environments[i : i + 1], X[i : i + 1], history[i : i + 1])
            for i in range(len(X))
        ])
        assert len(regressor.vocabulary._memo) == len(ENVS)
        assert streamed.tobytes() == regressor.predict(environments, X, history).tobytes()


class TestFitDeterminism:
    def test_identical_fits_produce_identical_histories(self):
        histories = []
        for _ in range(2):
            histories.append(_fit(max_epochs=3).history_.train_loss)
        assert histories[0] == histories[1]

    def test_identical_fits_produce_identical_predictions(self):
        environments, X, history, _ = _task(n=12)
        predictions = [
            _fit().predict(environments, X, history) for _ in range(2)
        ]
        np.testing.assert_array_equal(predictions[0], predictions[1])
