"""Env2VecRegressor encoder selection through the Estimator contract.

Parametrized over every registered encoder: the choice must survive
``get_params``/``clone``, training, compiled prediction (≤1e-10 parity),
and ``to_bytes``/``from_bytes`` — plus loading pre-registry blobs.
"""

import numpy as np
import pytest

from repro.core.baselines import RFNNRegressor
from repro.core.model import Env2VecModel, Env2VecRegressor
from repro.data.environment import Environment
from repro.ml.base import Estimator
from repro.nn import available_encoders

N_LAGS = 3
FAST = dict(
    n_lags=N_LAGS,
    embedding_dim=3,
    fnn_hidden=6,
    gru_hidden=4,
    max_epochs=2,
    batch_size=32,
    seed=3,
)


def _environments(n: int) -> list[Environment]:
    envs = [
        Environment(
            testbed=f"Testbed_{i % 3:02d}",
            sut="SUT_A",
            testcase="Testcase_Load",
            build=f"Build_S{i % 2:02d}",
        )
        for i in range(3)
    ]
    return [envs[i % len(envs)] for i in range(n)]


def _training_data(n: int = 80, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4))
    history = rng.standard_normal((n, N_LAGS))
    y = X[:, 0] + 0.5 * history[:, -1] + rng.normal(0, 0.1, n)
    return _environments(n), X, history, y


class TestEstimatorContract:
    def test_is_estimator(self):
        assert issubclass(Env2VecRegressor, Estimator)
        assert issubclass(RFNNRegressor, Estimator)

    @pytest.mark.parametrize("name", available_encoders())
    def test_get_params_exposes_encoder(self, name):
        model = Env2VecRegressor(encoder=name, **FAST)
        params = model.get_params()
        assert params["encoder"] == name

    @pytest.mark.parametrize("name", available_encoders())
    def test_clone_preserves_encoder(self, name):
        clone = Env2VecRegressor(encoder=name, **FAST).clone()
        assert clone.encoder == name
        assert not clone._fitted

    def test_unknown_encoder_lists_registered(self):
        with pytest.raises(ValueError, match="registered encoders"):
            Env2VecRegressor(encoder="transformer", **FAST)
        with pytest.raises(ValueError, match="registered encoders"):
            RFNNRegressor(encoder="transformer")

    def test_removed_alias_keywords_rejected(self):
        for alias in ({"use_attention": True}, {"recurrent_unit": "lstm"}):
            with pytest.raises(TypeError):
                Env2VecRegressor(**alias, **FAST)

    def test_require_fitted(self):
        model = Env2VecRegressor(**FAST)
        with pytest.raises(RuntimeError, match="not fitted"):
            model._require_fitted()


@pytest.mark.parametrize("name", available_encoders())
class TestEveryEncoderTrains:
    def test_fit_predict_roundtrip(self, name):
        envs, X, history, y = _training_data()
        model = Env2VecRegressor(encoder=name, **FAST).fit(envs, X, history, y)
        assert model._fitted
        assert model.model.encoder_name == name

        compiled = model.predict(envs[:16], X[:16], history[:16])
        eager = model.predict(envs[:16], X[:16], history[:16], compiled=False)
        np.testing.assert_allclose(compiled, eager, atol=1e-10)

        restored = Env2VecRegressor.from_bytes(model.to_bytes())
        assert restored.encoder == name
        assert restored._fitted
        np.testing.assert_array_equal(
            restored.predict(envs[:16], X[:16], history[:16]), compiled
        )


@pytest.mark.parametrize("name", ["gru", "lstm", "bidirectional"])
def test_rfnn_regressor_encoder_choice(name):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((60, 4))
    history = rng.standard_normal((60, 2))
    y = X[:, 0] + history[:, -1]
    model = RFNNRegressor(
        n_lags=2, fnn_hidden=6, gru_hidden=4, dense_dim=5, max_epochs=2, encoder=name
    )
    assert model.clone().encoder == name
    model.fit(X, history, y)
    assert model._fitted
    assert model.model.encoder.name == name
    assert model.predict(X[:10], history[:10]).shape == (10,)


def test_env2vec_model_direct_encoder_param():
    from repro.core.embeddings import EnvironmentVocabulary

    vocab = EnvironmentVocabulary().fit(_environments(6))
    model = Env2VecModel(
        n_features=4,
        n_lags=N_LAGS,
        vocabulary=vocab,
        encoder="bidirectional",
        gru_hidden=4,
        rng=np.random.default_rng(0),
    )
    # combine sizes itself from output_dim (2 * hidden for bidirectional)
    assert model.combine.in_features == model.fnn.out_features + 8
