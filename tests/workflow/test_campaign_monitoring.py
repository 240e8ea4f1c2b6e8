"""One campaign day scored through PredictionPipeline equals the per-execution loop.

The campaign calibrates each chain once and scores the whole day in one
coalesced ``execute``. The reference below is the straightforward loop it
replaced: per execution, window and predict it, recalibrate the chain's
error model from scratch on its unmasked, long-enough history, detect, and
push alarms. The day covers a partly masked history, a fully masked one
(self-calibrated detection), a too-short execution today, and a too-short
execution in a chain's history.
"""

import numpy as np
import pytest

from repro.core.anomaly import ContextualAnomalyDetector, GaussianErrorModel
from repro.data import TelecomConfig, TestExecution, generate_telecom
from repro.data.windows import build_windows
from repro.workflow import TestingCampaign

N_LAGS = 3
TEST_DAY = 3


def _reference_day(model, detector, ingested, masked, executions, n_lags):
    """Per-execution monitoring: predict, recalibrate, detect, push."""
    masked = set(masked)

    def predict(execution):
        X, history, y = build_windows(execution.features, execution.cpu, n_lags)
        return model.predict([execution.environment] * len(y), X, history), y

    def error_model(chain_key):
        previous = [e for e in ingested.get(chain_key, []) if e.environment not in masked]
        errors = []
        for execution in previous:
            if execution.n_timesteps <= n_lags + 1:
                continue
            predicted, observed = predict(execution)
            errors.append(predicted - observed)
        return GaussianErrorModel.fit(np.concatenate(errors)) if errors else None

    alarms, error_models, maes = [], [], []
    for execution in executions:
        if execution.n_timesteps <= n_lags + 1:
            continue
        predicted, observed = predict(execution)
        fitted = error_model(execution.environment.chain_key)
        error_models.append(fitted)
        if fitted is None:
            report = detector.detect_self_calibrated(predicted, observed)
        else:
            report = detector.detect(predicted, observed, fitted)
        alarms.extend(
            (execution.environment, a.start + n_lags, a.end + n_lags, a.peak_deviation)
            for a in report.alarms
        )
        if not execution.has_performance_problem:
            maes.append(float(np.abs(predicted - observed).mean()))
        if execution.has_performance_problem:
            masked.add(execution.environment)
    return alarms, error_models, maes


def _short(execution):
    steps = N_LAGS + 1
    return TestExecution(
        environment=execution.environment,
        features=execution.features[:steps],
        cpu=execution.cpu[:steps],
    )


@pytest.fixture(scope="module")
def day():
    dataset = generate_telecom(
        TelecomConfig(
            n_chains=6,
            n_testbeds=3,
            builds_per_chain=(TEST_DAY + 1, TEST_DAY + 1),
            timesteps_per_build=(40, 50),
            n_focus=2,
            include_rare_testbed=False,
            seed=7,
        )
    )
    campaign = TestingCampaign(
        model_params={"max_epochs": 3, "batch_size": 256},
        n_lags=N_LAGS,
        seed=1,
        self_monitor=False,
    )
    for d in range(TEST_DAY):
        campaign.run_day(d, [chain.executions[d] for chain in dataset.chains])

    chains = dataset.chains
    # Partly masked history, fully masked history, and a too-short
    # execution slipped into a third chain's history.
    campaign._masked.add(chains[0].executions[1].environment)
    campaign._masked.update(e.environment for e in chains[1].executions[:TEST_DAY])
    campaign._ingested[chains[2].key].append(_short(chains[2].executions[0]))
    executions = [chain.executions[TEST_DAY] for chain in chains]
    executions[3] = _short(executions[3])

    model = campaign.latest_model
    detector = ContextualAnomalyDetector(
        gamma=campaign.gamma, abs_threshold=campaign.abs_threshold
    )
    reference = _reference_day(
        model, detector, campaign._ingested, campaign._masked, executions, N_LAGS
    )

    batches, maes = [], []
    execute, observe = campaign._predictor.execute, campaign.drift_monitor.observe

    def recording_execute(batch, **kwargs):
        batches.append(batch)
        return execute(batch, **kwargs)

    def recording_observe(mae):
        maes.append(mae)
        return observe(mae)

    campaign._predictor.execute = recording_execute
    campaign.drift_monitor.observe = recording_observe
    n_before = campaign.alarm_store.count()
    report = campaign.run_day(TEST_DAY, executions)
    pushed = [
        (r.environment, r.start_step, r.end_step, r.peak_deviation)
        for r in campaign.alarm_store.fetch()
        if r.alarm_id > n_before
    ]
    return {
        "reference": reference,
        "pushed": pushed,
        "batches": batches,
        "maes": maes,
        "report": report,
        "executions": executions,
    }


def test_one_coalesced_execute_per_day(day):
    (batch,) = day["batches"]
    long_ones = [e for e in day["executions"] if e.n_timesteps > N_LAGS + 1]
    assert list(batch.executions) == long_ones
    assert len(long_ones) == len(day["executions"]) - 1  # the short one is skipped


def test_alarms_pushed_match_bitwise(day):
    alarms, _, _ = day["reference"]
    assert alarms, "the day should raise alarms to compare"
    assert day["pushed"] == alarms
    assert day["report"].alarms_raised == len(alarms)


def test_error_models_match_bitwise(day):
    _, reference, _ = day["reference"]
    (batch,) = day["batches"]
    actual = list(batch.error_models)
    assert [m is None for m in actual] == [m is None for m in reference]
    assert None in actual  # the fully masked chain falls back to self-calibration
    for left, right in zip(actual, reference):
        if left is not None:
            assert (left.mu, left.sigma) == (right.mu, right.sigma)


def test_drift_maes_match_bitwise(day):
    _, _, reference = day["reference"]
    assert reference
    assert day["maes"] == reference
