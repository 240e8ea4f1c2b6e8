"""Hold-out contribution analysis tests (§6)."""

import pytest

from repro.data import TelecomConfig, TelecomDataset, generate_telecom
from repro.eval import DEFAULT_CF_GROUPS, cf_group_holdout, em_field_holdout


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
            seed=2,
        )
    )


@pytest.fixture(scope="module")
def cf_result(dataset):
    return cf_group_holdout(dataset, fast=True)


class TestCFGroupHoldout:
    def test_reports_every_group(self, cf_result):
        assert set(cf_result.holdout_mae) == set(DEFAULT_CF_GROUPS)
        assert cf_result.baseline_mae > 0
        for group in DEFAULT_CF_GROUPS:
            assert cf_result.holdout_mae[group] > 0

    def test_ranking_sorted_by_delta(self, cf_result):
        deltas = [delta for _, delta in cf_result.ranking()]
        assert deltas == sorted(deltas, reverse=True)

    def test_table_text(self, cf_result):
        text = cf_result.table("CF holdout")
        assert "baseline" in text and "workload" in text

    def test_unknown_feature_rejected(self, dataset):
        # A corpus whose feature columns the default groups do not name.
        renamed = TelecomDataset(
            chains=dataset.chains,
            feature_names=[f"f{i}" for i in range(len(dataset.feature_names))],
            config=dataset.config,
        )
        with pytest.raises(ValueError, match="unknown features"):
            cf_group_holdout(renamed)


class TestEMFieldHoldout:
    def test_reports_every_field(self, dataset):
        result = em_field_holdout(dataset, fields=("testbed", "build"), fast=True)
        assert set(result.holdout_mae) == {"testbed", "build"}

    def test_delta_computation(self, dataset):
        result = em_field_holdout(dataset, fields=("testbed",), fast=True)
        assert result.delta("testbed") == pytest.approx(
            result.holdout_mae["testbed"] - result.baseline_mae
        )

    def test_unknown_field_rejected(self, dataset):
        with pytest.raises(ValueError, match="unknown EM fields"):
            em_field_holdout(dataset, fields=("hypervisor",))
