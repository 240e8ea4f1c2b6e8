"""PredictBatch: the one request type :meth:`PredictionPipeline.execute` takes."""

import pytest

from repro.data import TelecomConfig, generate_telecom
from repro.workflow import ModelStore, PredictBatch, TrainingPipeline


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
