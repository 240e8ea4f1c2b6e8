"""PredictBatch: the one request type :meth:`PredictionPipeline.execute` takes."""

import numpy as np
import pytest

from repro.core import GaussianErrorModel, QuantileErrorModel
from repro.data import TelecomConfig, generate_telecom
from repro.workflow import (
    AlarmStore,
    ModelStore,
    PredictBatch,
    PredictionPipeline,
    TrainingPipeline,
)


@pytest.fixture(scope="module")
def trained():
    dataset = generate_telecom(
        TelecomConfig(
            n_chains=6,
            n_testbeds=3,
            builds_per_chain=(3, 4),
            timesteps_per_build=(60, 80),
            n_focus=2,
            include_rare_testbed=False,
            seed=11,
        )
    )
    store = ModelStore()
    TrainingPipeline(
        store,
        n_lags=3,
        model_params={"max_epochs": 5, "batch_size": 256, "dropout": 0.0},
        seed=0,
    ).train(dataset.history_training_series())
    return store, [chain.current for chain in dataset.chains]


class TestPredictBatch:
    def test_alignment_validated(self, trained):
        _, executions = trained
        with pytest.raises(ValueError, match="error_models"):
            PredictBatch(tuple(executions), (None,))

    def test_aligned_error_models_fill(self, trained):
        _, executions = trained
        batch = PredictBatch(tuple(executions))
        assert batch.aligned_error_models() == (None,) * len(executions)
        assert len(batch) == len(executions)

    def test_executions_coerced_to_tuple(self, trained):
        _, executions = trained
        batch = PredictBatch(executions)
        assert isinstance(batch.executions, tuple)

    def test_quantile_error_model_scores_like_detect(self, trained):
        store, executions = trained
        pipeline = PredictionPipeline(store, AlarmStore())
        quantile = QuantileErrorModel.fit(np.random.default_rng(0).normal(0.0, 1.5, 400))
        models = (quantile, GaussianErrorModel(mu=0.0, sigma=1.5)) + (None,) * (
            len(executions) - 2
        )
        runs = pipeline.execute(PredictBatch(tuple(executions), models))
        for run, model in zip(runs, models):
            if model is None:
                expected = pipeline.detector.detect_self_calibrated(
                    run.predictions, run.observations
                )
            else:
                expected = pipeline.detector.detect(run.predictions, run.observations, model)
            assert run.report.flags.tobytes() == expected.flags.tobytes()
            assert run.report.alarms == expected.alarms
