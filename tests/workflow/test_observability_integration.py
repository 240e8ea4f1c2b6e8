"""End-to-end dogfood loop: a campaign's self-metrics through its own TSDB.

Runs a short :class:`TestingCampaign` and asserts the observability
acceptance bar: the daily scrapes land ≥10 distinct ``repro_*`` metrics in
the campaign-owned TSDB, and both a ``rate()`` and a
``histogram_quantile()`` query succeed through the in-repo PromQL engine.
"""

import numpy as np
import pytest

from repro.data import TelecomConfig, generate_telecom
from repro.obs import get_observability, render_prometheus
from repro.workflow import TestingCampaign, observability_summary, promql_query

_OBS = get_observability()


@pytest.fixture(scope="module")
def campaign():
    _OBS.reset()
    dataset = generate_telecom(
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
    campaign = TestingCampaign(model_params={"max_epochs": 6, "batch_size": 256})
    campaign.run(dataset)
    return campaign


class TestCampaignSelfMetrics:
    def test_scrapes_cover_at_least_ten_distinct_metrics(self, campaign):
        tsdb = campaign.observability_tsdb
        metrics = [name for name in tsdb.metrics() if name.startswith("repro_")]
        assert len(metrics) >= 10, metrics
        # One scrape per day, all timestamps on the daily cadence.
        series = tsdb.query_one("repro_campaign_days_total")
        assert len(series) >= 3
        assert series.values == sorted(series.values)  # counters only go up

    def test_rate_query_succeeds(self, campaign):
        samples = promql_query(
            campaign.observability_tsdb,
            "rate(repro_campaign_executions_total[2d])",
            at=campaign.observability_now,
        )
        assert len(samples) == 1
        assert samples[0].value > 0.0

    def test_histogram_quantile_query_succeeds(self, campaign):
        samples = promql_query(
            campaign.observability_tsdb,
            "histogram_quantile(0.9, repro_nn_predict_batch_seconds_bucket)",
            at=campaign.observability_now,
        )
        assert len(samples) == 1
        assert 0.0 < samples[0].value < 10.0

    def test_span_quantiles_by_name(self, campaign):
        samples = promql_query(
            campaign.observability_tsdb,
            'histogram_quantile(0.5, repro_span_duration_seconds_bucket{span="campaign.day"})',
            at=campaign.observability_now,
        )
        assert len(samples) == 1
        assert samples[0].labels == {"span": "campaign.day"}

    def test_campaign_counters_match_reality(self, campaign):
        tsdb = campaign.observability_tsdb
        at = campaign.observability_now
        (days,) = promql_query(tsdb, "repro_campaign_days_total", at=at)
        assert days.value == len(tsdb.query_one("repro_campaign_days_total"))
        (masked,) = promql_query(tsdb, "repro_campaign_masked_executions", at=at)
        assert masked.value == len(campaign.masked_environments)

    def test_recent_span_tree_records_the_day_pipeline(self, campaign):
        root = _OBS.recent_spans[-1]
        assert root.name == "campaign.day"
        names = {span.name for _, span in root.walk()}
        assert {"campaign.retrain", "train.fit"} <= names

    def test_observability_summary_renders(self, campaign):
        text = observability_summary(campaign)
        assert "SELF-METRICS" in text
        assert "rate(repro_campaign_executions_total[2d])" in text
        assert "histogram_quantile" in text
        assert "campaign.day" in text
        assert "error:" not in text
        assert "(no data)" not in text

    def test_disabling_self_monitor_raises_on_access(self):
        campaign = TestingCampaign(self_monitor=False)
        with pytest.raises(RuntimeError, match="self-monitoring is disabled"):
            campaign.observability_tsdb

    def test_prometheus_exposition_of_live_registry(self, campaign):
        text = render_prometheus(_OBS.registry)
        assert "# TYPE repro_campaign_days_total counter" in text
        assert "# TYPE repro_span_duration_seconds histogram" in text

    def test_exposition_counts_are_coherent(self, campaign):
        # The registry's current counter equals the TSDB's last scrape value.
        tsdb = campaign.observability_tsdb
        live = _OBS.registry.get("repro_campaign_days_total").value
        scraped = tsdb.query_one("repro_campaign_days_total").values[-1]
        assert live == scraped

    def test_predictions_counter_tracks_monitoring_volume(self, campaign):
        counter = _OBS.registry.get("repro_predictions_total")
        assert counter.value > 0
        assert counter.value == float(int(counter.value))

    def test_scrape_timestamps_are_daily(self, campaign):
        series = campaign.observability_tsdb.query_one("repro_campaign_days_total")
        gaps = np.diff(series.timestamps)
        assert (gaps == 86400.0).all()
