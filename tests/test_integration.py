"""Golden-path integration tests spanning the whole library."""

import dataclasses

import numpy as np
import pytest

from repro.core import ContextualAnomalyDetector, Env2VecRegressor, GaussianErrorModel
from repro.data import TelecomConfig, generate_telecom
from repro.data.windows import build_windows, build_windows_multi
from repro.eval import mae


@pytest.fixture(scope="module")
def corpus():
    return generate_telecom(
        TelecomConfig(
            n_chains=12,
            n_testbeds=5,
            builds_per_chain=(3, 4),
            timesteps_per_build=(60, 80),
            n_focus=3,
            include_rare_testbed=False,
            fault_magnitude=(14.0, 25.0),
            seed=33,
        )
    )


@pytest.fixture(scope="module")
def trained_model(corpus):
    series, envs_per_series = [], []
    for chain in corpus.chains:
        for execution in chain.history:
            series.append((execution.features, execution.cpu))
            envs_per_series.append(execution.environment)
    X, history, y, ids = build_windows_multi(series, 3)
    environments = [envs_per_series[i] for i in ids]
    model = Env2VecRegressor(n_lags=3, max_epochs=25, batch_size=256, dropout=0.0, seed=0)
    model.fit(environments, X, history, y)
    return model


class TestGoldenPath:
    """The README quickstart flow, asserted end to end."""

    def test_characterization_quality(self, corpus, trained_model):
        errors = []
        for chain in corpus.chains:
            execution = chain.history[0]
            X, history, y = build_windows(execution.features, execution.cpu, 3)
            predictions = trained_model.predict([execution.environment] * len(y), X, history)
            errors.append(mae(y, predictions))
        all_cpu = np.concatenate([e.cpu for c in corpus.chains for e in c.history])
        assert np.mean(errors) < all_cpu.std() * 0.5

    def test_detection_on_every_problem_chain(self, corpus, trained_model):
        detector = ContextualAnomalyDetector(gamma=2.0)
        for chain in corpus.focus_chains:
            errors = []
            for execution in chain.history:
                X, history, y = build_windows(execution.features, execution.cpu, 3)
                predicted = trained_model.predict([execution.environment] * len(y), X, history)
                errors.append(predicted - y)
            error_model = GaussianErrorModel.fit(np.concatenate(errors))
            X, history, y = build_windows(chain.current.features, chain.current.cpu, 3)
            predicted = trained_model.predict([chain.current.environment] * len(y), X, history)
            report = detector.detect(predicted, y, error_model)
            truth = chain.current.anomaly_mask()[3:]
            # At least one alarm lands inside a real problem interval.
            assert any(truth[a.start : a.end].any() for a in report.alarms)

    def test_model_roundtrip_through_store(self, corpus, trained_model, tmp_path):
        from repro.workflow import ModelStore

        store = ModelStore(tmp_path / "models")
        store.publish(trained_model.to_bytes(), {"source": "integration"})
        blob, version = store.fetch_latest()
        restored = Env2VecRegressor.from_bytes(blob)
        execution = corpus.chains[0].history[0]
        X, history, y = build_windows(execution.features, execution.cpu, 3)
        envs = [execution.environment] * len(y)
        np.testing.assert_allclose(
            restored.predict(envs, X, history),
            trained_model.predict(envs, X, history),
            atol=1e-10,
        )
        assert version.metadata == {"source": "integration"}

    def test_embeddings_reflect_em_overlap(self, corpus, trained_model):
        environments = corpus.environments(include_current=False)
        matrix = trained_model.embed_environments(environments)
        rng = np.random.default_rng(0)
        similar, dissimilar = [], []
        for _ in range(400):
            i, j = rng.integers(0, len(environments), 2)
            if i == j:
                continue
            distance = float(np.linalg.norm(matrix[i] - matrix[j]))
            overlap = environments[i].overlap(environments[j])
            (similar if overlap >= 2 else dissimilar).append(distance)
        assert np.mean(similar) < np.mean(dissimilar)

    def test_incremental_adaptation_end_to_end(self, corpus, trained_model):
        """A brand-new build version appears; fine-tuning adapts to it."""
        chain = corpus.chains[0]
        new_env = dataclasses.replace(chain.current.environment, build="Build_Z99")
        execution = chain.current
        X, history, y = build_windows(execution.features, execution.cpu, 3)
        before = trained_model.coverage(new_env)["build"]
        assert before is False
        trained_model.fine_tune([new_env] * len(y), X, history, y, epochs=3)
        assert trained_model.coverage(new_env)["build"] is True
        predictions = trained_model.predict([new_env] * 10, X[:10], history[:10])
        assert np.isfinite(predictions).all()
