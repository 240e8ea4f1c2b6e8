"""Failure injection: every public API must fail loudly on corrupt input.

Systematically feeds malformed data — NaNs, shape mismatches, truncated
blobs, out-of-order timestamps, empty collections — to the public surface
and asserts clear, typed errors rather than silent corruption.
"""

import zipfile

import numpy as np
import pytest

from repro.core import (
    ContextualAnomalyDetector,
    Env2VecRegressor,
    EnvironmentVocabulary,
    GaussianErrorModel,
)
from repro.data import Environment, Frame, TelecomConfig, build_windows, generate_telecom
from repro.ml import PCA, Ridge, StandardScaler
from repro.nn import Adam, Dense, Tensor, Trainer
from repro.workflow import AlarmStore, ModelStore, TimeSeriesDB


def _env():
    return Environment("T1", "S1", "C1", "B1")


class TestNaNPropagation:
    def test_ridge_rejects_nan_features(self):
        X = np.ones((10, 2))
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            Ridge().fit(X, np.ones(10))

    def test_ridge_rejects_inf_target(self):
        y = np.ones(10)
        y[0] = np.inf
        with pytest.raises(ValueError, match="NaN|infinite"):
            Ridge().fit(np.ones((10, 2)), y)

    def test_error_model_rejects_nan(self):
        with pytest.raises(ValueError):
            GaussianErrorModel.fit(np.array([1.0, np.nan, 2.0]))


class TestShapeCorruption:
    def test_windows_reject_ragged_inputs(self):
        with pytest.raises(ValueError):
            build_windows(np.zeros((10, 3)), np.zeros(9), 2)

    def test_detector_rejects_misaligned_series(self):
        detector = ContextualAnomalyDetector()
        with pytest.raises(ValueError):
            detector.detect(np.zeros(5), np.zeros(6), GaussianErrorModel(0, 1))

    def test_frame_rejects_ragged_columns(self):
        frame = Frame({"a": [1.0, 2.0]})
        with pytest.raises(ValueError):
            frame["b"] = [1.0, 2.0, 3.0]

    def test_dense_rejects_wrong_input_width(self):
        layer = Dense(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((4, 5))))  # matmul shape mismatch

    def test_scaler_rejects_wrong_width(self):
        scaler = StandardScaler().fit(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            scaler.transform(np.zeros((2, 4)))

    def test_pca_rejects_1d(self):
        with pytest.raises(ValueError):
            PCA().fit(np.zeros(10))


class TestBlobCorruption:
    def test_truncated_model_blob_fails_loudly(self):
        rng = np.random.default_rng(0)
        envs = [_env()] * 60
        X = rng.standard_normal((60, 3))
        history = rng.standard_normal((60, 2))
        model = Env2VecRegressor(n_lags=2, max_epochs=2, seed=0)
        model.fit(envs, X, history, X[:, 0])
        blob = model.to_bytes()
        with pytest.raises((ValueError, zipfile.BadZipFile)):
            Env2VecRegressor.from_bytes(blob[: len(blob) // 2])

    def test_garbage_blob_fails_loudly(self):
        with pytest.raises((ValueError, zipfile.BadZipFile)):
            Env2VecRegressor.from_bytes(b"definitely not an npz archive")

    def test_model_store_rejects_empty_blob(self):
        with pytest.raises(ValueError):
            ModelStore().publish(b"")


class TestTemporalCorruption:
    def test_tsdb_rejects_time_travel(self):
        db = TimeSeriesDB()
        db.write("cpu", {"env": "a"}, 100.0, 1.0)
        with pytest.raises(ValueError, match="increasing"):
            db.write("cpu", {"env": "a"}, 50.0, 2.0)

    def test_alarm_store_rejects_inverted_interval(self):
        with AlarmStore() as store:
            with pytest.raises(ValueError):
                store.push(_env(), 10, 5, 1.0, 2.0)


class TestEmptyCollections:
    def test_vocabulary_empty_fit(self):
        with pytest.raises(ValueError):
            EnvironmentVocabulary().fit([])

    def test_trainer_empty_inputs(self):
        class Identity(Dense):
            pass

        model = Identity(2, 1, rng=np.random.default_rng(0))

        class Wrap(Dense):
            def forward(self, x):
                return super().forward(Tensor(x)).reshape(-1)

        wrapped = Wrap(2, 1, rng=np.random.default_rng(0))
        trainer = Trainer(wrapped, Adam(wrapped.parameters()))
        with pytest.raises(ValueError):
            trainer.fit({}, np.zeros(0))

    def test_generate_telecom_invalid_config(self):
        with pytest.raises(ValueError):
            generate_telecom(TelecomConfig(n_chains=0))


class TestFaultedCorpusIsStillSane:
    """Even with aggressive fault injection, the corpus stays in-range."""

    def test_extreme_fault_magnitudes_clipped(self):
        dataset = generate_telecom(
            TelecomConfig(
                n_chains=6,
                n_testbeds=3,
                builds_per_chain=(2, 3),
                timesteps_per_build=(40, 50),
                n_focus=4,
                include_rare_testbed=False,
                fault_magnitude=(60.0, 90.0),  # absurdly large
                impactful_per_focus=(4, 6),
                seed=5,
            )
        )
        for chain in dataset.chains:
            for execution in chain.executions:
                assert execution.cpu.min() >= 0.0
                assert execution.cpu.max() <= 100.0
                assert np.isfinite(execution.features).all()

    def test_detection_survives_extreme_faults(self):
        dataset = generate_telecom(
            TelecomConfig(
                n_chains=6,
                n_testbeds=3,
                builds_per_chain=(3, 3),
                timesteps_per_build=(50, 60),
                n_focus=2,
                include_rare_testbed=False,
                fault_magnitude=(60.0, 90.0),
                seed=5,
            )
        )
        from repro.eval import train_env2vec_telecom
        from repro.eval.telecom_experiments import _predict_execution

        model = train_env2vec_telecom(dataset, fast=True, max_epochs=8)
        chain = dataset.focus_chains[0]
        predicted, observed = _predict_execution(model, chain.current, 3)
        detector = ContextualAnomalyDetector(gamma=2.0)
        report = detector.detect_self_calibrated(predicted, observed)
        assert np.isfinite(report.errors).all()


class TestCorruptModelStoreBlobs:
    """The store must refuse to serve tampered or truncated blobs."""

    @staticmethod
    def _published_store(path=None):
        store = ModelStore(path=path)
        version = store.publish(b"x" * 256, metadata={"kind": "good"})
        return store, version

    def test_bit_flip_detected(self):
        from repro.workflow import CorruptModelError

        store, version = self._published_store()
        blob = bytearray(store._blobs[version.version])
        blob[17] ^= 0xFF
        store._blobs[version.version] = bytes(blob)
        with pytest.raises(CorruptModelError, match="SHA-256"):
            store.fetch_latest()

    def test_truncation_detected(self):
        from repro.workflow import CorruptModelError

        store, version = self._published_store()
        store._blobs[version.version] = store._blobs[version.version][:-32]
        with pytest.raises(CorruptModelError, match="truncated"):
            store.fetch(version.version)

    def test_on_disk_corruption_detected_on_reload(self, tmp_path):
        from repro.workflow import CorruptModelError

        store, version = self._published_store(path=tmp_path)
        blob_file = tmp_path / f"model-{version.version:06d}.npz"
        raw = bytearray(blob_file.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        blob_file.write_bytes(bytes(raw))
        reloaded = ModelStore(path=tmp_path)
        with pytest.raises(CorruptModelError):
            reloaded.fetch_latest()

    def test_intact_versions_still_served(self):
        from repro.workflow import CorruptModelError

        store, v1 = self._published_store()
        v2 = store.publish(b"y" * 128)
        store._blobs[v2.version] = b"z" * 128  # corrupt only the latest
        blob, record = store.fetch(v1.version)
        assert blob == b"x" * 256 and record.version == v1.version
        with pytest.raises(CorruptModelError):
            store.fetch_latest()


class TestLastGoodModelFallback:
    """A corrupt publish must not take monitoring dark (satellite: the
    prediction pipeline keeps serving its cached last-good model)."""

    @staticmethod
    def _fitted_blob(seed):
        rng = np.random.default_rng(seed)
        envs = [_env()] * 60
        X = rng.standard_normal((60, 3))
        history = rng.standard_normal((60, 2))
        model = Env2VecRegressor(n_lags=2, max_epochs=2, seed=seed)
        model.fit(envs, X, history, X[:, 0])
        return model.to_bytes()

    def test_cached_model_keeps_serving_after_corrupt_publish(self):
        from repro.data import TestExecution
        from repro.workflow import PredictBatch, PredictionPipeline

        store = ModelStore()
        v1 = store.publish(self._fitted_blob(0))
        with AlarmStore() as alarms:
            pipeline = PredictionPipeline(store, alarms, gamma=3.0)
            rng = np.random.default_rng(3)
            execution = TestExecution(
                environment=_env(),
                features=rng.standard_normal((40, 3)),
                cpu=50.0 + rng.standard_normal(40),
            )
            (first,) = pipeline.execute(PredictBatch((execution,)))
            assert first.model_version == v1.version

            v2 = store.publish(self._fitted_blob(1))
            store._blobs[v2.version] = store._blobs[v2.version][:-64]  # torn write
            (fallback,) = pipeline.execute(PredictBatch((execution,)))
            assert fallback.model_version == v1.version  # last-good served

    def test_corrupt_blob_with_no_cache_propagates(self):
        from repro.data import TestExecution
        from repro.workflow import CorruptModelError, PredictBatch, PredictionPipeline

        store = ModelStore()
        version = store.publish(self._fitted_blob(0))
        store._blobs[version.version] = store._blobs[version.version][:-64]
        with AlarmStore() as alarms:
            pipeline = PredictionPipeline(store, alarms)
            rng = np.random.default_rng(3)
            execution = TestExecution(
                environment=_env(),
                features=rng.standard_normal((40, 3)),
                cpu=np.full(40, 50.0),
            )
            with pytest.raises(CorruptModelError):
                pipeline.execute(PredictBatch((execution,)))


class TestTrainingDivergence:
    """The Trainer's NaN/Inf loss guard (satellite: TrainingDiverged)."""

    @staticmethod
    def _model():
        class Wrap(Dense):
            def forward(self, x):
                return super().forward(Tensor(x)).reshape(-1)

        return Wrap(2, 1, rng=np.random.default_rng(0))

    def test_nan_targets_raise_training_diverged_naming_epoch(self):
        from repro.nn import TrainingDiverged

        model = self._model()
        trainer = Trainer(model, Adam(model.parameters()), max_epochs=5)
        x = np.random.default_rng(0).standard_normal((32, 2))
        with pytest.raises(TrainingDiverged, match="epoch 0") as excinfo:
            trainer.fit({"x": x}, np.full(32, np.nan))
        assert excinfo.value.epoch == 0

    def test_nan_validation_loss_raises_training_diverged(self):
        from repro.nn import TrainingDiverged

        model = self._model()
        trainer = Trainer(model, Adam(model.parameters()), max_epochs=5)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 2))
        y = x[:, 0]
        with pytest.raises(TrainingDiverged) as excinfo:
            trainer.fit({"x": x}, y, {"x": x}, np.full(32, np.inf))
        assert excinfo.value.epoch >= 0
        assert "validation loss" in str(excinfo.value)

    def test_training_diverged_is_a_runtime_error(self):
        from repro.nn import TrainingDiverged

        assert issubclass(TrainingDiverged, RuntimeError)
