"""Multi-day campaign orchestration tests."""

import numpy as np
import pytest

from repro.core import Alarm, AlarmScore, Env2VecRegressor, score_alarms
from repro.data import TelecomConfig, generate_telecom
from repro.data.windows import build_windows
from repro.obs import get_observability
from repro.resilience import ChaosProfile
from repro.workflow import DriftMonitor, TestingCampaign, orchestrator

_OBS = get_observability()


@pytest.fixture(scope="module")
def dataset():
    return generate_telecom(
        TelecomConfig(
            n_chains=8,
            n_testbeds=4,
            builds_per_chain=(3, 4),
            timesteps_per_build=(50, 60),
            n_focus=2,
            include_rare_testbed=False,
            fault_magnitude=(14.0, 25.0),
            seed=4,
        )
    )


@pytest.fixture(scope="module")
def finished_campaign(dataset):
    campaign = TestingCampaign(model_params={"max_epochs": 12, "batch_size": 256})
    reports = campaign.run(dataset)
    return campaign, reports


class TestCampaignLifecycle:
    def test_one_model_version_per_day(self, dataset, finished_campaign):
        _, reports = finished_campaign
        max_builds = max(len(chain) for chain in dataset.chains)
        assert len(reports) == max_builds
        assert [r.model_version for r in reports] == list(range(1, max_builds + 1))

    def test_day_zero_raises_no_alarms(self, finished_campaign):
        # No model exists before the first training, so day 0 only ingests.
        _, reports = finished_campaign
        assert reports[0].alarms_raised == 0
        assert not reports[0].flagged_environments

    def test_executions_per_day_match_chain_lengths(self, dataset, finished_campaign):
        _, reports = finished_campaign
        for day, report in enumerate(reports):
            expected = sum(1 for chain in dataset.chains if day < len(chain))
            assert report.executions_run == expected

    def test_problem_builds_get_masked(self, dataset, finished_campaign):
        campaign, _ = finished_campaign
        problem_envs = {
            execution.environment
            for chain in dataset.chains
            for execution in chain.executions
            if execution.has_performance_problem
        }
        # Every ground-truth problem execution ends up masked (flagged by
        # alarms or discovered independently, per workflow step 2).
        assert problem_envs <= campaign.masked_environments

    def test_clean_builds_mostly_unmasked(self, dataset, finished_campaign):
        campaign, _ = finished_campaign
        clean = [
            execution.environment
            for chain in dataset.chains
            for execution in chain.executions
            if not execution.has_performance_problem
        ]
        masked_clean = sum(1 for env in clean if env in campaign.masked_environments)
        assert masked_clean == 0

    def test_alarm_store_populated(self, finished_campaign):
        campaign, reports = finished_campaign
        assert campaign.alarm_store.count() == sum(r.alarms_raised for r in reports)

    def test_latest_model_usable(self, dataset, finished_campaign):
        campaign, _ = finished_campaign
        from repro.data.windows import build_windows

        execution = dataset.chains[0].current
        X, history, y = build_windows(execution.features, execution.cpu, campaign.n_lags)
        predictions = campaign.latest_model.predict(
            [execution.environment] * len(y), X, history
        )
        assert np.isfinite(predictions).all()


class TestCampaignValidation:
    def test_empty_day_rejected(self):
        campaign = TestingCampaign(model_params={"max_epochs": 1})
        with pytest.raises(ValueError):
            campaign.run_day(0, [])

    def test_latest_model_before_training_raises(self):
        with pytest.raises(RuntimeError):
            TestingCampaign().latest_model


# -- warm retraining ------------------------------------------------------

#: Warm-vs-full bounds, from 24 campaign pairs (corpus seeds 1-4 x campaign
#: seeds 0-5, max_epochs=12; benchmarks/bench_warm_quality.py, EXPERIMENTS.md
#: "Warm campaign retraining"). With head-side warm days, warm minus full
#: timestep-alarm F1 spreads -0.109..+0.116, mean +0.021: one pair (corpus 4,
#: campaign 1) is below -0.10, and this test's pair (corpus 4, campaign 0)
#: reads -0.095. The full fits alone spread 0.151..0.345 over campaign seeds
#: on this corpus. Warm over full clean-execution MAE spreads 0.934..1.085.
F1_DROP_BOUND = 0.10
MAE_RATIO_BOUND = 1.15


def _days(dataset):
    n_days = max(len(chain) for chain in dataset.chains)
    return [[c.executions[day] for c in dataset.chains if day < len(c)] for day in range(n_days)]


def _run_days(campaign, days):
    """Run ``days`` one by one; also the kind of fit each day published."""
    runs = _OBS.counter("repro_training_runs_total", labels=("kind",))
    reports, kinds = [], []
    for day, executions in enumerate(days):
        before = {kind: runs.labels(kind=kind).value for kind in ("full", "warm")}
        reports.append(campaign.run_day(day, executions))
        ran = [kind for kind in before if runs.labels(kind=kind).value > before[kind]]
        assert len(ran) <= 1
        kinds.append(ran[0] if ran else None)
    return reports, kinds


def _alarm_f1(campaign, dataset) -> float:
    """Timestep-labelled alarm F1 over every execution of the corpus."""
    total = AlarmScore(n_alarms=0, correct_alarms=0)
    for chain in dataset.chains:
        for execution in chain.executions:
            alarms = [
                Alarm(start=r.start_step, end=r.end_step, peak_deviation=r.peak_deviation)
                for r in campaign.alarm_store.fetch(environment=execution.environment)
            ]
            n = execution.n_timesteps
            intervals = [(f.start, min(f.end, n)) for f in execution.impactful_faults]
            total = total + score_alarms(alarms, execution.anomaly_mask(), intervals)
    return total.f1


def _clean_mae(campaign, dataset) -> float:
    """Mean MAE on clean monitored executions, each under the model that monitored it."""
    errors = []
    for day, executions in enumerate(_days(dataset)):
        if not day:
            continue
        model = Env2VecRegressor.from_bytes(campaign.model_store.fetch(day)[0])
        for execution in executions:
            if execution.has_performance_problem:
                continue
            X, history, y = build_windows(execution.features, execution.cpu, campaign.n_lags)
            predictions = model.predict([execution.environment] * len(y), X, history)
            errors.append(np.abs(predictions - y).mean())
    return float(np.mean(errors))


@pytest.fixture(scope="module")
def full_campaign(dataset):
    """The same campaign with every day a full fit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orchestrator, "_FULL_REFIT_DAYS", 1)
        campaign = TestingCampaign(model_params={"max_epochs": 12, "batch_size": 256})
        reports = campaign.run(dataset)
    return campaign, reports


class TestWarmRetraining:
    def test_warm_days_detect_like_full_fits(self, dataset, finished_campaign, full_campaign):
        warm, warm_reports = finished_campaign
        full, full_reports = full_campaign
        assert warm.masked_environments == full.masked_environments
        for reports in (warm_reports, full_reports):
            flagged = {env for report in reports for env in report.flagged_environments}
            problems = {
                execution.environment
                for executions in _days(dataset)[1:]
                for execution in executions
                if execution.has_performance_problem
            }
            assert problems and problems <= flagged
        assert _alarm_f1(warm, dataset) >= _alarm_f1(full, dataset) - F1_DROP_BOUND
        assert _clean_mae(warm, dataset) <= MAE_RATIO_BOUND * _clean_mae(full, dataset)

    def test_training_runs_counted_by_kind_per_day(self, dataset):
        _, kinds = _run_days(
            TestingCampaign(model_params={"max_epochs": 2, "batch_size": 256}), _days(dataset)
        )
        assert kinds == ["full", "warm", "warm", "warm"]

    def test_cadence_schedules_full_fits(self, dataset, monkeypatch):
        monkeypatch.setattr(orchestrator, "_FULL_REFIT_DAYS", 2)
        _, kinds = _run_days(
            TestingCampaign(model_params={"max_epochs": 2, "batch_size": 256}), _days(dataset)
        )
        assert kinds == ["full", "warm", "full", "warm"]

    def test_drift_forces_a_full_fit_that_day(self, dataset):
        # A hair-trigger detector fires on some days and not on others.
        campaign = TestingCampaign(
            model_params={"max_epochs": 2, "batch_size": 256},
            drift_monitor=DriftMonitor(delta=0.0, threshold=0.5, warmup=1),
        )
        reports, kinds = _run_days(campaign, _days(dataset))
        drifted = [report.drift_detected for report in reports[1:]]
        assert any(drifted) and not all(drifted)
        assert kinds[1:] == ["full" if d else "warm" for d in drifted]

    def test_day_without_new_clean_executions_refits_in_full(self, dataset):
        # Every execution of the day is a problem, so all are masked and
        # a warm fit would have no new data.
        days = _days(dataset)
        problems = [e for day in days[1:] for e in day if e.has_performance_problem]
        assert problems
        campaign = TestingCampaign(model_params={"max_epochs": 2, "batch_size": 256})
        _, kinds = _run_days(campaign, [days[0], problems])
        assert kinds == ["full", "full"]

    def test_warm_fit_leaves_the_serving_model_untouched(self, dataset):
        campaign = TestingCampaign(model_params={"max_epochs": 2, "batch_size": 256})
        days = _days(dataset)
        campaign.run_day(0, days[0])
        serving = campaign.latest_model
        blob = serving.to_bytes()
        campaign.run_day(1, days[1])
        assert campaign.latest_model is not serving
        assert serving.to_bytes() == blob


def _diverging_on(days: list[bool]) -> ChaosProfile:
    """A profile that poisons training on exactly the given days."""
    for seed in range(1000):
        profile = ChaosProfile(seed=seed, training_divergence_rate=0.5)
        pattern = [
            profile.rng("diverge", day).random() < profile.training_divergence_rate
            for day in range(len(days))
        ]
        if pattern == days:
            return profile
    raise AssertionError("no seed below 1000 gives that pattern")


@pytest.mark.chaos
class TestWarmDivergence:
    @pytest.fixture(scope="class")
    def diverged(self, dataset):
        # Day 1 is warm and diverges; the profile injects nothing else,
        # and the drift monitor never fires, so only the divergence can
        # make day 2 a full fit.
        campaign = TestingCampaign(
            model_params={"max_epochs": 2, "batch_size": 256},
            chaos=_diverging_on([False, True, False, False]),
            drift_monitor=DriftMonitor(threshold=1e9),
        )
        days = _days(dataset)
        campaign.run_day(0, days[0])
        serving = campaign.latest_model
        state = (serving.to_bytes(), campaign.model_store.latest_version)
        reports, kinds = [], []
        runs = _OBS.counter("repro_training_runs_total", labels=("kind",))
        for day in (1, 2):
            before = {kind: runs.labels(kind=kind).value for kind in ("full", "warm")}
            reports.append(campaign.run_day(day, days[day]))
            kinds.append([k for k in before if runs.labels(kind=k).value > before[k]])
            if day == 1:
                after = (campaign.latest_model.to_bytes(), campaign.model_store.latest_version)
                kept = campaign.latest_model is serving
        return reports, kinds, state, after, kept

    def test_poison_reaches_the_warm_fit(self, diverged):
        reports, kinds, *_ = diverged
        assert reports[0].training_diverged
        assert kinds[0] == []  # the warm fit aborted and published nothing

    def test_diverged_warm_fit_keeps_the_serving_model(self, diverged):
        reports, _, state, after, kept = diverged
        assert kept and after == state
        assert reports[0].model_version == state[1]

    def test_day_after_divergence_refits_in_full(self, diverged):
        reports, kinds, state, *_ = diverged
        assert not reports[1].training_diverged
        assert kinds[1] == ["full"]
        assert reports[1].model_version == state[1] + 1
