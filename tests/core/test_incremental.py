"""Incremental retraining: vocabulary extension + fine_tune (§4.3)."""

import numpy as np
import pytest

from repro.core import Env2VecRegressor, EnvironmentEmbeddings, EnvironmentVocabulary
from repro.data import Environment
from repro.ml import LabelEncoder

RNG = np.random.default_rng(51)


def _env(testbed="T1", sut="S1", testcase="C1", build="B1"):
    return Environment(testbed, sut, testcase, build)


class TestLabelEncoderExtend:
    def test_existing_ids_stable(self):
        encoder = LabelEncoder().fit(["a", "b", "c"])
        before = encoder.transform(["a", "b", "c"]).tolist()
        added = encoder.extend(["d", "b", "e"])
        assert added == ["d", "e"]
        assert encoder.transform(["a", "b", "c"]).tolist() == before

    def test_new_values_get_next_ids(self):
        encoder = LabelEncoder().fit(["a", "b"])
        encoder.extend(["z"])
        assert encoder.transform(["z"])[0] == 2
        assert encoder.unknown_id == 3

    def test_extend_idempotent(self):
        encoder = LabelEncoder().fit(["a"])
        encoder.extend(["b"])
        assert encoder.extend(["b"]) == []

    def test_extend_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LabelEncoder().extend(["a"])


class TestVocabularyExtend:
    def test_extend_reports_per_field_additions(self):
        vocab = EnvironmentVocabulary().fit([_env()])
        added = vocab.extend([_env(testbed="T2", build="B2")])
        assert added["testbed"] == ["T2"]
        assert added["build"] == ["B2"]
        assert added["sut"] == []
        assert vocab.is_known(_env(testbed="T2", build="B2")) == {
            "testbed": True,
            "sut": True,
            "testcase": True,
            "build": True,
        }

    def test_old_encodings_unchanged(self):
        envs = [_env(), _env(sut="S2")]
        vocab = EnvironmentVocabulary().fit(envs)
        before = vocab.encode(envs)
        vocab.extend([_env(sut="S3", testcase="C9")])
        np.testing.assert_array_equal(vocab.encode(envs), before)


class TestGrowTables:
    def test_rows_inserted_before_unknown(self):
        vocab = EnvironmentVocabulary().fit([_env()])
        emb = EnvironmentEmbeddings(vocab, embedding_dim=4, rng=RNG)
        old_known = emb.tables["build"].weight.numpy()[0].copy()
        old_unk = emb.tables["build"].weight.numpy()[-1].copy()
        added = vocab.extend([_env(build="B2"), _env(build="B3")])
        emb.grow_tables(added)
        table = emb.tables["build"].weight.numpy()
        assert table.shape == (4, 4)  # B1, B2, B3, <unk>
        np.testing.assert_allclose(table[0], old_known)  # existing row kept
        np.testing.assert_allclose(table[-1], old_unk)  # unk stays last
        # New rows start near the unk embedding.
        assert np.linalg.norm(table[1] - old_unk) < 0.1
        assert np.linalg.norm(table[2] - old_unk) < 0.1

    def test_lookup_consistent_after_growth(self):
        vocab = EnvironmentVocabulary().fit([_env()])
        emb = EnvironmentEmbeddings(vocab, embedding_dim=3, rng=RNG)
        before = emb.embed_environments([_env()])
        emb.grow_tables(vocab.extend([_env(build="B2")]))
        after = emb.embed_environments([_env()])
        np.testing.assert_allclose(before, after)

    def test_noop_when_nothing_added(self):
        vocab = EnvironmentVocabulary().fit([_env()])
        emb = EnvironmentEmbeddings(vocab, embedding_dim=3, rng=RNG)
        shape = emb.tables["build"].weight.shape
        emb.grow_tables({field: [] for field in vocab.fields})
        assert emb.tables["build"].weight.shape == shape


class TestFineTune:
    def _task(self, env, n, base, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 4))
        history = rng.standard_normal((n, 2))
        y = base + 3.0 * X[:, 0] + history[:, -1]
        return [env] * n, X, history, y

    def test_adapts_to_new_environment(self):
        env_a = _env(build="B1")
        env_b = _env(build="B2")  # appears only after the initial fit
        envs_a, X_a, h_a, y_a = self._task(env_a, 400, base=40.0, seed=0)
        model = Env2VecRegressor(n_lags=2, max_epochs=30, batch_size=64, dropout=0.0, seed=0)
        model.fit(envs_a, X_a, h_a, y_a)

        envs_b, X_b, h_b, y_b = self._task(env_b, 300, base=60.0, seed=1)
        before = np.abs(model.predict(envs_b[:50], X_b[:50], h_b[:50]) - y_b[:50]).mean()
        model.fine_tune(envs_b[50:], X_b[50:], h_b[50:], y_b[50:], epochs=20)
        after = np.abs(model.predict(envs_b[:50], X_b[:50], h_b[:50]) - y_b[:50]).mean()
        assert after < before
        # The new build is now a known value with its own embedding row.
        assert model.coverage(env_b)["build"] is True

    def test_does_not_destroy_old_environment(self):
        env_a = _env(build="B1")
        env_b = _env(build="B2")
        envs_a, X_a, h_a, y_a = self._task(env_a, 400, base=40.0, seed=0)
        model = Env2VecRegressor(n_lags=2, max_epochs=30, batch_size=64, dropout=0.0, seed=0)
        model.fit(envs_a, X_a, h_a, y_a)
        baseline = np.abs(model.predict(envs_a[:50], X_a[:50], h_a[:50]) - y_a[:50]).mean()

        envs_b, X_b, h_b, y_b = self._task(env_b, 200, base=45.0, seed=1)
        model.fine_tune(envs_b, X_b, h_b, y_b, epochs=5)
        drifted = np.abs(model.predict(envs_a[:50], X_a[:50], h_a[:50]) - y_a[:50]).mean()
        # Mild drift is allowed; catastrophic forgetting is not.
        assert drifted < baseline + 0.5 * y_a.std()

    def _fitted(self):
        envs, X, h, y = self._task(_env(build="B1"), 200, base=40.0, seed=0)
        # Dropout and <unk>-dropout on, so every random stream is exercised.
        model = Env2VecRegressor(n_lags=2, max_epochs=3, batch_size=64, seed=0)
        return model.fit(envs, X, h, y)

    def test_deserialized_copy_fine_tunes_to_the_same_bytes(self):
        # The fitted original's dropout streams have advanced through fit;
        # the copy's are fresh. fine_tune reseeds both from ``seed + 1``.
        original = self._fitted()
        copy = Env2VecRegressor.from_bytes(original.to_bytes())
        copy.set_params(lr=original.lr, batch_size=original.batch_size, seed=original.seed)
        envs, X, h, y = self._task(_env(build="B2"), 150, base=45.0, seed=1)
        for model in (original, copy):
            model.fine_tune(envs, X, h, y, epochs=2, adapt_embeddings_only=False)
        assert copy.to_bytes() == original.to_bytes()
        assert copy.history_.train_loss == original.history_.train_loss

    def test_fine_tune_draws_from_its_seed(self):
        envs, X, h, y = self._task(_env(build="B2"), 150, base=45.0, seed=1)
        blobs = []
        for seed in (3, 3, 4):
            model = self._fitted().set_params(seed=seed)
            model.fine_tune(envs, X, h, y, epochs=1, adapt_embeddings_only=False)
            blobs.append(model.to_bytes())
        assert blobs[0] == blobs[1] != blobs[2]

    def test_validation(self):
        model = Env2VecRegressor()
        with pytest.raises(RuntimeError):
            model.fine_tune([], np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
        env = _env()
        envs, X, h, y = self._task(env, 50, base=40.0, seed=0)
        model = Env2VecRegressor(n_lags=2, max_epochs=2, seed=0)
        model.fit(envs, X, h, y)
        with pytest.raises(ValueError):
            model.fine_tune(envs, X, h, y, epochs=0)
        with pytest.raises(ValueError):
            model.fine_tune(envs[:-1], X, h, y)


class TestAttentionVariant:
    def test_attention_model_trains_and_roundtrips(self):
        env = _env()
        rng = np.random.default_rng(0)
        envs = [env] * 300
        X = rng.standard_normal((300, 3))
        history = rng.standard_normal((300, 4))
        # Target depends on the OLDEST lag: attention should help find it.
        y = 50.0 + 2.0 * history[:, 0] + X[:, 1]
        model = Env2VecRegressor(
            n_lags=4, encoder="attention", max_epochs=25, batch_size=64, dropout=0.0, seed=0
        )
        model.fit(envs, X, history, y)
        predictions = model.predict(envs[:20], X[:20], history[:20])
        assert np.abs(predictions - y[:20]).mean() < y.std()
        # Serialization keeps the attention parameters.
        restored = Env2VecRegressor.from_bytes(model.to_bytes())
        np.testing.assert_allclose(
            restored.predict(envs[:20], X[:20], history[:20]), predictions, atol=1e-10
        )
        assert restored.model.encoder_name == "attention"
