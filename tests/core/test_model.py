"""Env2Vec model and regressor tests, plus FNN/RFNN baselines."""

import numpy as np
import pytest

from repro.core import (
    Env2VecModel,
    Env2VecRegressor,
    EnvironmentVocabulary,
    FNNRegressor,
    RFNNRegressor,
)
from repro.data import Environment
from repro.nn import Tensor
from repro.obs import get_observability

RNG = np.random.default_rng(23)


def _envs(n=3):
    base = [
        Environment("Testbed_01", "SUT_A", "Testcase_Load", "Build_S01"),
        Environment("Testbed_02", "SUT_B", "Testcase_Load", "Build_S02"),
        Environment("Testbed_01", "SUT_B", "Testcase_Endurance", "Build_D01"),
    ]
    return base[:n]


def _vocab():
    return EnvironmentVocabulary().fit(_envs())


def _synthetic_task(n_per_env=120, n_features=5, n_lags=2, seed=0):
    """Per-environment linear responses + AR term; embeddings must separate envs."""
    rng = np.random.default_rng(seed)
    envs_catalog = _envs()
    env_weights = {env: rng.standard_normal(n_features) * 2 for env in envs_catalog}
    env_base = {env: rng.uniform(30, 60) for env in envs_catalog}
    rows_env, X, history, y = [], [], [], []
    for env in envs_catalog:
        features = rng.standard_normal((n_per_env, n_features))
        target = env_base[env] + features @ env_weights[env]
        series_hist = np.stack(
            [np.roll(target, lag) for lag in range(n_lags, 0, -1)], axis=1
        )[n_lags:]
        X.append(features[n_lags:])
        history.append(series_hist)
        y.append(target[n_lags:])
        rows_env.extend([env] * (n_per_env - n_lags))
    return rows_env, np.concatenate(X), np.concatenate(history), np.concatenate(y)


class TestEnv2VecModel:
    def test_forward_shapes(self):
        model = Env2VecModel(n_features=5, n_lags=2, vocabulary=_vocab(), rng=RNG)
        out = model(
            cf=RNG.standard_normal((7, 5)),
            history=RNG.standard_normal((7, 2)),
            env=np.zeros((7, 4), dtype=np.int64),
        )
        assert out.shape == (7,)

    @pytest.mark.parametrize("head", ["hadamard", "bilinear", "mlp"])
    def test_all_heads_forward_and_backward(self, head):
        model = Env2VecModel(n_features=4, n_lags=2, vocabulary=_vocab(), head=head, rng=RNG)
        out = model(
            cf=RNG.standard_normal((5, 4)),
            history=RNG.standard_normal((5, 2)),
            env=np.zeros((5, 4), dtype=np.int64),
        )
        (out * out).sum().backward()
        grads = [p.grad is not None for p in model.parameters()]
        assert all(grads)

    def test_hadamard_head_formula(self):
        # y' = sum(v_d ⊙ C) — verify against a manual recomputation.
        model = Env2VecModel(n_features=3, n_lags=1, vocabulary=_vocab(), dropout=0.0, rng=RNG)
        model.eval()
        cf = RNG.standard_normal((4, 3))
        history = RNG.standard_normal((4, 1))
        env = np.zeros((4, 4), dtype=np.int64)
        out = model(cf=cf, history=history, env=env).numpy()
        v_fs = model.fnn(Tensor(cf))
        v_ts = model.encoder(Tensor(history[:, :, None]))
        v_d = model.combine(Tensor.concat([v_ts, v_fs], axis=1)).numpy()
        c = model.embeddings(env).numpy()
        np.testing.assert_allclose(out, (v_d * c).sum(axis=1), atol=1e-12)

    def test_dense_layer_matches_embedding_dim(self):
        model = Env2VecModel(n_features=3, n_lags=1, vocabulary=_vocab(), embedding_dim=7, rng=RNG)
        assert model.combine.out_features == model.embeddings.output_dim == 28

    def test_different_envs_different_predictions(self):
        model = Env2VecModel(n_features=3, n_lags=1, vocabulary=_vocab(), dropout=0.0, rng=RNG)
        model.eval()
        cf = np.zeros((2, 3))
        history = np.zeros((2, 1))
        vocab = model.embeddings.vocabulary
        env_ids = vocab.encode(_envs(2))
        out = model(cf=cf, history=history, env=env_ids).numpy()
        assert out[0] != pytest.approx(out[1])

    def test_input_validation(self):
        model = Env2VecModel(n_features=3, n_lags=2, vocabulary=_vocab(), rng=RNG)
        with pytest.raises(ValueError):
            model(cf=np.zeros((2, 4)), history=np.zeros((2, 2)), env=np.zeros((2, 4), dtype=int))
        with pytest.raises(ValueError):
            model(cf=np.zeros((2, 3)), history=np.zeros((2, 3)), env=np.zeros((2, 4), dtype=int))
        with pytest.raises(ValueError):
            Env2VecModel(n_features=3, n_lags=0, vocabulary=_vocab())
        with pytest.raises(ValueError):
            Env2VecModel(n_features=3, n_lags=1, vocabulary=_vocab(), head="attention")


class TestEnv2VecRegressor:
    def test_learns_multi_environment_response(self):
        envs, X, history, y = _synthetic_task()
        split = int(len(y) * 0.8)
        model = Env2VecRegressor(n_lags=2, max_epochs=40, batch_size=64, dropout=0.0, seed=0)
        model.fit(
            envs[:split],
            X[:split],
            history[:split],
            y[:split],
            val=(envs[split:], X[split:], history[split:], y[split:]),
        )
        preds = model.predict(envs[split:], X[split:], history[split:])
        mae = np.abs(preds - y[split:]).mean()
        assert mae < y.std() * 0.5

    def test_beats_env_blind_pooled_model(self):
        """Env2Vec (embeddings) must beat RFNN_all (no embeddings) when
        environments have different responses — the §4.1.4 claim."""
        envs, X, history, y = _synthetic_task(n_per_env=150, seed=3)
        split = int(len(y) * 0.8)
        env2vec = Env2VecRegressor(n_lags=2, max_epochs=30, batch_size=64, dropout=0.0, seed=0)
        env2vec.fit(envs[:split], X[:split], history[:split], y[:split])
        rfnn_all = RFNNRegressor(n_lags=2, max_epochs=30, batch_size=64, dropout=0.0, seed=0)
        rfnn_all.fit(X[:split], history[:split], y[:split])
        mae_env2vec = np.abs(env2vec.predict(envs[split:], X[split:], history[split:]) - y[split:]).mean()
        mae_rfnn = np.abs(rfnn_all.predict(X[split:], history[split:]) - y[split:]).mean()
        assert mae_env2vec < mae_rfnn

    def test_predict_unseen_environment_runs(self):
        envs, X, history, y = _synthetic_task(n_per_env=60)
        model = Env2VecRegressor(n_lags=2, max_epochs=5, batch_size=64, seed=0)
        model.fit(envs, X, history, y)
        unseen = Environment("Testbed_02", "SUT_A", "Testcase_Endurance", "Build_S02")
        preds = model.predict([unseen] * 4, X[:4], history[:4])
        assert np.isfinite(preds).all()
        coverage = model.coverage(unseen)
        assert all(coverage.values())  # composed of known field values

    def test_coverage_reports_unknown_fields(self):
        envs, X, history, y = _synthetic_task(n_per_env=60)
        model = Env2VecRegressor(n_lags=2, max_epochs=2, seed=0)
        model.fit(envs, X, history, y)
        alien = Environment("Testbed_99", "SUT_A", "Testcase_Load", "Build_S01")
        assert model.coverage(alien)["testbed"] is False

    def test_embed_environments_shape(self):
        envs, X, history, y = _synthetic_task(n_per_env=60)
        model = Env2VecRegressor(n_lags=2, embedding_dim=10, max_epochs=2, seed=0)
        model.fit(envs, X, history, y)
        matrix = model.embed_environments(_envs())
        assert matrix.shape == (3, 40)

    def test_compile_is_timed_once_by_the_nn_compile_histogram(self):
        envs, X, history, y = _synthetic_task(n_per_env=60)
        model = Env2VecRegressor(n_lags=2, max_epochs=2, seed=0).fit(envs, X, history, y)
        registry = get_observability().registry
        compiles = registry.get("repro_nn_compile_seconds")
        before = compiles.count
        model.compile()
        assert compiles.count == before + 1
        timers = [name for name in registry.names() if "compile_seconds" in name]
        assert timers == ["repro_nn_compile_seconds"]

    def test_misaligned_inputs_rejected(self):
        envs, X, history, y = _synthetic_task(n_per_env=60)
        model = Env2VecRegressor(n_lags=2, max_epochs=2, seed=0)
        with pytest.raises(ValueError):
            model.fit(envs[:-1], X, history, y)
        with pytest.raises(ValueError):
            model.fit(envs, X, history[:, :1], y)

    def test_unfitted_raises(self):
        model = Env2VecRegressor()
        with pytest.raises(RuntimeError):
            model.predict(_envs(1), np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(RuntimeError):
            model.embed_environments(_envs())
        with pytest.raises(RuntimeError):
            model.coverage(_envs()[0])


class TestBaselines:
    def test_fnn_learns_nonlinear_response(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((600, 4))
        y = 40 + 3 * X[:, 0] ** 2 - 2 * X[:, 1]
        model = FNNRegressor(hidden=128, lr=0.03, max_epochs=200, seed=0)
        model.fit(X[:500], y[:500])
        mae = np.abs(model.predict(X[500:]) - y[500:]).mean()
        # A linear model cannot get below ~2.7 MAE on this quadratic target;
        # the FNN must do far better.
        assert mae < 1.0

    def test_rfnn_uses_history(self):
        rng = np.random.default_rng(1)
        n = 600
        X = rng.standard_normal((n, 3))
        prev = rng.uniform(30, 70, (n, 2))
        y = 0.7 * prev[:, -1] + 5 * X[:, 0]
        model = RFNNRegressor(n_lags=2, max_epochs=40, dropout=0.0, seed=0)
        model.fit(X[:500], prev[:500], y[:500])
        mae = np.abs(model.predict(X[500:], prev[500:]) - y[500:]).mean()
        assert mae < y.std() * 0.4

    def test_rfnn_rejects_wrong_lag_count(self):
        model = RFNNRegressor(n_lags=3)
        with pytest.raises(ValueError):
            model.fit(np.zeros((10, 2)), np.zeros((10, 2)), np.zeros(10))

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            FNNRegressor().predict(np.zeros((2, 2)))
        with pytest.raises(RuntimeError):
            RFNNRegressor().predict(np.zeros((2, 2)), np.zeros((2, 2)))
