"""End-to-end workflow tests: collector -> training -> prediction -> alarms."""

import numpy as np
import pytest

from repro.data import (
    FEATURE_NAMES,
    TelecomConfig,
    generate_telecom,
)
from repro.workflow import (
    AlarmStore,
    EMRegistry,
    MetricCollector,
    ModelStore,
    PredictBatch,
    PredictionPipeline,
    SeriesNotFound,
    ServiceDiscovery,
    TimeSeriesDB,
    TrainingPipeline,
    build_prediction_frame,
)


def _run_one(pipeline, execution, error_model=None):
    return pipeline.execute(PredictBatch((execution,), (error_model,)))[0]


@pytest.fixture(scope="module")
def dataset():
    return generate_telecom(
        TelecomConfig(
            n_chains=10,
            n_testbeds=4,
            builds_per_chain=(3, 4),
            timesteps_per_build=(60, 80),
            n_focus=2,
            include_rare_testbed=False,
            fault_magnitude=(15.0, 25.0),
            seed=11,
        )
    )


@pytest.fixture(scope="module")
def trained(dataset):
    """One training-pipeline run shared across the module's tests."""
    store = ModelStore()
    pipeline = TrainingPipeline(
        store,
        n_lags=3,
        model_params={"max_epochs": 15, "batch_size": 256, "dropout": 0.0},
        seed=0,
    )
    result = pipeline.train(dataset.history_training_series())
    return store, result


class TestMetricCollector:
    def test_collect_and_read_back(self, dataset):
        db = TimeSeriesDB()
        registry = EMRegistry()
        collector = MetricCollector(db, registry, feature_names=FEATURE_NAMES)
        execution = dataset.chains[0].current
        record_id = collector.collect(execution)
        assert registry.lookup(record_id) == execution.environment
        features, cpu = collector.read_back(record_id)
        np.testing.assert_allclose(features, execution.features)
        np.testing.assert_allclose(cpu, execution.cpu)

    def test_read_back_of_uncollected_record_raises_series_not_found(self, dataset):
        db = TimeSeriesDB()
        ingested = MetricCollector(db, EMRegistry(), feature_names=FEATURE_NAMES)
        record_id = ingested.collect(dataset.chains[0].current)
        other = MetricCollector(db, EMRegistry(), feature_names=FEATURE_NAMES)
        # Neither a record id nobody wrote nor series another collector
        # wrote into the same TSDB can be read back without its grid.
        for unknown in ("em-999999", record_id):
            with pytest.raises(SeriesNotFound):
                other.read_back(unknown)

    def test_series_labelled_with_em_record(self, dataset):
        db = TimeSeriesDB()
        collector = MetricCollector(db, EMRegistry(), feature_names=FEATURE_NAMES)
        record_id = collector.collect(dataset.chains[0].current)
        series = db.query_one("cpu_usage", {"env": record_id})
        assert series.labels == {"env": record_id}
        # 15-minute sampling (paper §4.2.1).
        timestamps, _ = series.as_arrays()
        assert timestamps[1] - timestamps[0] == 900.0

    def test_registers_discovery_target(self, dataset, tmp_path):
        db = TimeSeriesDB()
        discovery = ServiceDiscovery(tmp_path / "sd.json")
        collector = MetricCollector(
            db, EMRegistry(), discovery=discovery, feature_names=FEATURE_NAMES
        )
        record_id = collector.collect(dataset.chains[0].current)
        targets = discovery.targets()
        assert len(targets) == 1
        assert targets[0]["labels"]["env"] == record_id

    def test_feature_name_mismatch_rejected(self, dataset):
        collector = MetricCollector(TimeSeriesDB(), EMRegistry(), feature_names=["just_one"])
        with pytest.raises(ValueError):
            collector.collect(dataset.chains[0].current)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            MetricCollector(TimeSeriesDB(), EMRegistry(), interval=0)


class TestTrainingPipeline:
    def test_publishes_model(self, dataset, trained):
        store, result = trained
        assert store.latest_version == result.version.version == 1
        assert result.n_examples > 0
        assert result.epochs_run > 0
        # Paper §6: serialized artifact under 10 MB.
        blob, _ = store.fetch_latest()
        assert len(blob) < 10 * 1024 * 1024

    def test_masking_excludes_environments(self, dataset):
        store = ModelStore()
        pipeline = TrainingPipeline(
            store, n_lags=3, model_params={"max_epochs": 2, "batch_size": 256}
        )
        records = dataset.history_training_series()
        masked = {records[0][0]}
        result = pipeline.train(records, masked_environments=masked)
        assert result.n_masked_executions == sum(1 for env, _, _ in records if env in masked)

    def test_all_masked_rejected(self, dataset):
        pipeline = TrainingPipeline(ModelStore(), n_lags=3)
        records = dataset.history_training_series()
        with pytest.raises(ValueError):
            pipeline.train(records, masked_environments={env for env, _, _ in records})

    def _warm(self, dataset, trained, seed, day, masked=()):
        """One warm run over the history pool, its last 5 executions new."""
        _, result = trained
        store = ModelStore()
        pipeline = TrainingPipeline(
            store, n_lags=3, model_params={"max_epochs": 2, "batch_size": 256}, seed=seed
        )
        base = result.model.to_bytes()
        records = dataset.history_training_series()
        warm = pipeline.fine_tune(result.model, records, 5, day, masked_environments=set(masked))
        assert result.model.to_bytes() == base  # the base model is not touched
        return warm, store.fetch_latest()[0], records

    def test_warm_run_trains_new_records_plus_equal_replay(self, dataset, trained):
        warm, _, records = self._warm(dataset, trained, seed=0, day=1, masked=[])
        assert warm.version.version == 1
        assert warm.epochs_run == 1  # max(1, max_epochs // 2)
        new_windows = sum(len(cpu) - 3 for _, _, cpu in records[-5:])
        assert new_windows < warm.n_examples < new_windows * 3

    def test_warm_run_draws_from_seed_and_day(self, dataset, trained):
        blob = self._warm(dataset, trained, seed=0, day=1)[1]
        assert self._warm(dataset, trained, seed=0, day=1)[1] == blob
        assert self._warm(dataset, trained, seed=0, day=2)[1] != blob
        assert self._warm(dataset, trained, seed=1, day=1)[1] != blob

    def test_warm_run_needs_new_unmasked_records(self, dataset, trained):
        records = dataset.history_training_series()
        with pytest.raises(ValueError):
            self._warm(dataset, trained, seed=0, day=1, masked=[env for env, _, _ in records[-5:]])

    def test_roundtrip_model_predicts_like_original(self, dataset, trained):
        from repro.core import Env2VecRegressor
        from repro.data.windows import build_windows

        store, result = trained
        blob, _ = store.fetch_latest()
        restored = Env2VecRegressor.from_bytes(blob)
        execution = dataset.chains[0].history[0]
        X, history, y = build_windows(execution.features, execution.cpu, 3)
        envs = [execution.environment] * len(y)
        np.testing.assert_allclose(
            restored.predict(envs, X, history),
            result.model.predict(envs, X, history),
            atol=1e-10,
        )


class TestPredictionPipeline:
    def test_detects_injected_fault_and_pushes_alarms(self, dataset, trained):
        store, _ = trained
        alarms = AlarmStore()
        pipeline = PredictionPipeline(store, alarms, gamma=2.0)
        chain = dataset.focus_chains[0]
        error_model = pipeline.calibrate(chain)
        run = _run_one(pipeline, chain.current, error_model)
        assert run.model_version == 1
        assert run.report.n_alarms >= 1
        assert alarms.count() == run.report.n_alarms
        # At least one alarm overlaps a ground-truth fault interval
        # (alarm steps are offset by n_lags back to source timesteps).
        truth = chain.current.anomaly_mask()
        records = alarms.fetch()
        assert any(truth[r.start_step : r.end_step].any() for r in records)

    def test_clean_build_raises_no_or_few_alarms(self, dataset, trained):
        store, _ = trained
        focus = set(dataset.focus_indices)
        clean_chain = next(
            dataset.chains[i] for i in range(dataset.n_chains) if i not in focus
        )
        alarms = AlarmStore()
        pipeline = PredictionPipeline(store, alarms, gamma=3.0)
        error_model = pipeline.calibrate(clean_chain)
        run = _run_one(pipeline, clean_chain.current, error_model)
        assert run.report.n_alarms <= 2

    def test_self_calibrated_mode_runs(self, dataset, trained):
        store, _ = trained
        pipeline = PredictionPipeline(store, AlarmStore(), gamma=2.0)
        run = _run_one(pipeline, dataset.focus_chains[0].current)  # no error model
        assert run.predictions.shape == run.observations.shape

    def test_early_termination_hook(self, dataset, trained):
        store, _ = trained
        alarms = AlarmStore()
        pipeline = PredictionPipeline(
            store, alarms, gamma=1.0, termination_threshold=1
        )
        chain = dataset.focus_chains[0]
        error_model = pipeline.calibrate(chain)
        run = _run_one(pipeline, chain.current, error_model)
        if run.report.n_alarms >= 1:
            assert run.terminated_early

    def test_batch_bitwise_matches_single_runs(self, dataset, trained):
        """One coalesced execute == one single-execution execute per row."""
        store, _ = trained
        executions = [chain.current for chain in dataset.chains[:6]]

        solo_alarms = AlarmStore()
        solo = PredictionPipeline(store, solo_alarms, gamma=2.0)
        solo_runs = [_run_one(solo, execution) for execution in executions]

        batch_alarms = AlarmStore()
        batched = PredictionPipeline(store, batch_alarms, gamma=2.0)
        batch_runs = batched.execute(PredictBatch(executions))

        assert len(batch_runs) == len(solo_runs)
        for left, right in zip(batch_runs, solo_runs):
            assert left.predictions.tobytes() == right.predictions.tobytes()
            assert left.observations.tobytes() == right.observations.tobytes()
            assert left.report.alarms == right.report.alarms
            assert left.model_version == right.model_version
            assert left.alarm_ids == right.alarm_ids
        assert batch_alarms.count() == solo_alarms.count()

    def test_calibrate_requires_history(self, dataset, trained):
        from repro.data import BuildChain

        store, _ = trained
        pipeline = PredictionPipeline(store, AlarmStore())
        single = BuildChain([dataset.chains[0].executions[0]])
        with pytest.raises(ValueError):
            pipeline.calibrate(single)


class TestPredictionFrame:
    def test_table2_layout(self, dataset):
        execution = dataset.chains[0].current
        frame = build_prediction_frame(execution, n_lags=2, feature_names=FEATURE_NAMES)
        # CFs + 4 EM columns + 2 history lags + observed RU.
        assert frame.shape == (execution.n_timesteps - 2, len(FEATURE_NAMES) + 4 + 2 + 1)
        assert "cpu_t_minus_1" in frame and "cpu_t_minus_2" in frame
        assert frame["build"][0] == execution.environment.build
        # Lag columns really are lagged copies of the RU series.
        np.testing.assert_allclose(frame["cpu_t_minus_1"][1:], frame["cpu_usage"][:-1])

    def test_feature_name_mismatch(self, dataset):
        with pytest.raises(ValueError):
            build_prediction_frame(dataset.chains[0].current, n_lags=2, feature_names=["x"])
