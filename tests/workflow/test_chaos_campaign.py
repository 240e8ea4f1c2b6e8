"""Lossy-testbed acceptance test: a full campaign under chaos injection.

Runs the telecom corpus twice — once clean, once under a seeded
:class:`~repro.resilience.ChaosProfile` — and asserts the robustness bar:
the chaotic run completes every day with zero unhandled exceptions, every
un-processable execution is accounted for in the dead-letter store, the
detection quality stays within a documented bound of the clean run, and
the whole incident trail is queryable through the in-repo PromQL engine.

The profile is seeded, so the injected faults (and therefore every number
asserted here) are exactly reproducible; see EXPERIMENTS.md for the
methodology and measured degradation.
"""

import pytest

from repro.core import Alarm, AlarmScore, score_alarms
from repro.data import TelecomConfig, generate_telecom
from repro.obs import get_observability
from repro.resilience import ChaosProfile
from repro.workflow import TestingCampaign, promql_query

_OBS = get_observability()

pytestmark = pytest.mark.chaos

MODEL_PARAMS = {"max_epochs": 10, "batch_size": 256}

#: gamma tuned on the clean corpus: all 4 seeded problems detected with one
#: false alarm (clean F1 = 0.86, EXPERIMENTS.md), which makes the
#: degradation measurement meaningful rather than noise-dominated.
GAMMA = 4.0

#: Documented quality bound (EXPERIMENTS.md): under ~10% sample loss, two
#: collector outages and a divergent retrain, campaign-level F1 may drop
#: by at most this much versus the clean run on the same corpus.
F1_DEGRADATION_BOUND = 0.35

#: Seed 8 deterministically yields >=2 collector outages on this corpus
#: and a divergent retrain on day 1 (probed; the profile RNG is keyed by
#: (seed, kind, record/day), so these counts cannot drift).
CHAOS = ChaosProfile(
    seed=8,
    drop_rate=0.10,
    duplicate_rate=0.02,
    reorder_rate=0.02,
    nan_rate=0.02,
    tsdb_failure_rate=0.03,
    outage_rate=0.12,
    training_divergence_rate=0.4,
)


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
def clean(dataset):
    _OBS.reset()
    campaign = TestingCampaign(model_params=dict(MODEL_PARAMS), gamma=GAMMA)
    reports = campaign.run(dataset)
    return campaign, reports


@pytest.fixture(scope="module")
def chaotic(dataset, clean):
    # Reset after the clean run so every counter asserted below reflects
    # the chaotic campaign alone (cached metric handles stay valid).
    _OBS.reset()
    campaign = TestingCampaign(model_params=dict(MODEL_PARAMS), gamma=GAMMA, chaos=CHAOS)
    reports = campaign.run(dataset)
    return campaign, reports


def _campaign_f1(campaign, dataset) -> tuple[float, AlarmScore]:
    """Score every scheduled execution's alarms against ground truth.

    Quarantined executions raise no alarms, so their problems count as
    missed — infrastructure loss shows up as recall loss, by design.
    """
    total = AlarmScore(n_alarms=0, correct_alarms=0)
    for chain in dataset.chains:
        for execution in chain.executions:
            records = campaign.alarm_store.fetch(environment=execution.environment)
            alarms = [
                Alarm(start=r.start_step, end=r.end_step, peak_deviation=r.peak_deviation)
                for r in records
            ]
            n = execution.n_timesteps
            intervals = [(f.start, min(f.end, n)) for f in execution.impactful_faults]
            total = total + score_alarms(alarms, execution.anomaly_mask(), intervals)
    return total.f1, total


def _counter(name, **labels):
    metric = _OBS.counter(name, labels=tuple(labels) if labels else ())
    return (metric.labels(**labels) if labels else metric).value


class TestChaoticCampaignSurvives:
    def test_every_day_completes(self, dataset, chaotic):
        _, reports = chaotic
        assert len(reports) == max(len(chain) for chain in dataset.chains)

    def test_scheduled_equals_delivered_plus_quarantined(self, dataset, chaotic):
        _, reports = chaotic
        for day, report in enumerate(reports):
            scheduled = sum(1 for chain in dataset.chains if day < len(chain))
            assert report.executions_run + len(report.quarantined_environments) == scheduled

    def test_injected_chaos_meets_the_acceptance_floor(self, dataset, chaotic):
        _, reports = chaotic
        total_samples = sum(
            execution.n_timesteps for chain in dataset.chains for execution in chain.executions
        )
        dropped = _counter("repro_chaos_injected_total", kind="drop")
        assert dropped / total_samples >= 0.05  # >=5% of samples lost
        assert _counter("repro_chaos_injected_total", kind="outage") >= 2
        assert _counter("repro_chaos_injected_total", kind="tsdb_failure") >= 1
        assert sum(r.training_diverged for r in reports) >= 1

    def test_divergent_retrain_keeps_previous_model_serving(self, chaotic):
        _, reports = chaotic
        for report in reports:
            if report.training_diverged:
                previous = next(
                    (r.model_version for r in reports if r.day == report.day - 1), 0
                )
                assert report.model_version == previous
        # the campaign recovers: later days publish new versions again
        assert reports[-1].model_version > 0

    def test_quarantined_executions_all_dead_lettered(self, chaotic):
        campaign, reports = chaotic
        quarantined = [
            env for report in reports for env in report.quarantined_environments
        ]
        assert quarantined, "this profile must quarantine at least the outages"
        for env in quarantined:
            key = "/".join(env.as_tuple())
            assert key in campaign.dead_letters
        assert len(campaign.dead_letters) == len(set(
            "/".join(env.as_tuple()) for env in quarantined
        ))
        known = {
            "collector_outage", "tsdb_unavailable", "gap_too_long",
            "too_many_gaps", "all_samples_missing", "series_missing",
        }
        assert {record.reason for record in campaign.dead_letters.records()} <= known
        assert len(campaign.dead_letters.records(reason="collector_outage")) >= 2

    def test_detection_quality_within_documented_bound(self, dataset, clean, chaotic):
        clean_campaign, _ = clean
        chaos_campaign, _ = chaotic
        clean_f1, clean_score = _campaign_f1(clean_campaign, dataset)
        chaos_f1, chaos_score = _campaign_f1(chaos_campaign, dataset)
        assert clean_score.total_problems > 0
        assert clean_f1 > 0.5, "clean campaign must detect problems well"
        assert chaos_f1 >= clean_f1 - F1_DEGRADATION_BOUND, (
            f"chaos degraded F1 from {clean_f1:.3f} to {chaos_f1:.3f}, "
            f"more than the documented bound of {F1_DEGRADATION_BOUND}"
        )

    def test_resilience_metrics_queryable_via_promql(self, chaotic):
        campaign, _ = chaotic
        tsdb, at = campaign.observability_tsdb, campaign.observability_now

        (drops,) = promql_query(tsdb, 'repro_chaos_injected_total{kind="drop"}', at=at)
        assert drops.value >= 1

        samples = promql_query(tsdb, "repro_resilience_dead_letters_total", at=at)
        assert sum(s.value for s in samples) == len(campaign.dead_letters)

        (quarantined,) = promql_query(
            tsdb, "repro_resilience_quarantined_executions_total", at=at
        )
        assert quarantined.value == len(campaign.dead_letters)

        window = "2d"
        (rate,) = promql_query(
            tsdb, f"rate(repro_campaign_executions_total[{window}])", at=at
        )
        assert rate.value > 0

        repairs = promql_query(tsdb, "repro_resilience_scrape_repairs_total", at=at)
        assert {s.labels["repair"] for s in repairs} >= {"resort", "dedupe", "nan_drop"}
        imputed = promql_query(tsdb, "repro_resilience_imputed_samples_total", at=at)
        assert imputed and imputed[0].value > 0
