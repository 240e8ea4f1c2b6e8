"""Corpus-statistics tests."""

import numpy as np
import pytest

from repro.data import (
    BuildChain,
    Environment,
    TelecomConfig,
    TelecomDataset,
    corpus_stats,
    generate_telecom,
)
from repro.data import TestExecution as Execution


@pytest.fixture(scope="module")
def dataset():
    return generate_telecom(
        TelecomConfig(
            n_chains=12,
            n_testbeds=5,
            builds_per_chain=(3, 4),
            timesteps_per_build=(50, 60),
            n_focus=3,
            include_rare_testbed=True,
            seed=2,
        )
    )


class TestCorpusStats:
    def test_totals(self, dataset):
        stats = corpus_stats(dataset)
        expected_executions = sum(len(chain.history) for chain in dataset.chains)
        assert stats.n_executions == expected_executions
        assert stats.n_chains == dataset.n_chains
        assert stats.n_timesteps == sum(
            execution.n_timesteps for chain in dataset.chains for execution in chain.history
        )

    def test_training_only_excludes_currents(self, dataset):
        training = corpus_stats(dataset)
        assert training.n_executions < sum(len(chain) for chain in dataset.chains)
        # All injected problems live in current builds.
        assert dataset.focus_indices
        assert training.n_problem_executions == 0

    def test_rare_testbed_is_thinnest(self, dataset):
        stats = corpus_stats(dataset)
        thinnest_value, thinnest_count = stats.fields["testbed"].thinnest(1)[0]
        assert thinnest_value == "Testbed_rare"
        assert thinnest_count == dataset.config.rare_history_timesteps

    def test_execution_counts_sum(self, dataset):
        stats = corpus_stats(dataset)
        for field_coverage in stats.fields.values():
            assert sum(field_coverage.executions.values()) == stats.n_executions
            assert sum(field_coverage.timesteps.values()) == stats.n_timesteps

    def test_balance_bounds(self, dataset):
        stats = corpus_stats(dataset)
        for field_coverage in stats.fields.values():
            assert 0.0 <= field_coverage.balance() <= 1.0

    def test_perfectly_balanced_field(self):
        rng = np.random.default_rng(0)

        def execution(testbed, build):
            return Execution(
                environment=Environment(testbed, "SUT_A", "Testcase_Load", build),
                features=rng.standard_normal((50, 2)),
                cpu=np.full(50, 40.0),
            )

        chains = [
            BuildChain([execution("T1", "Build_S01"), execution("T1", "Build_S02")]),
            BuildChain([execution("T2", "Build_S01"), execution("T2", "Build_S02")]),
        ]
        dataset = TelecomDataset(chains=chains, feature_names=["a", "b"], config=TelecomConfig())
        stats = corpus_stats(dataset)
        assert stats.fields["testbed"].balance() == pytest.approx(1.0)
        # Single-value field is trivially balanced.
        assert stats.fields["sut"].balance() == 1.0

    def test_table_text(self, dataset):
        text = corpus_stats(dataset).table()
        assert "testbed" in text and "balance" in text

    def test_empty_corpus_rejected(self):
        rng = np.random.default_rng(0)
        single = Execution(
            environment=Environment("T1", "S1", "C1", "B1"),
            features=rng.standard_normal((10, 2)),
            cpu=np.full(10, 40.0),
        )
        dataset = TelecomDataset(
            chains=[BuildChain([single])], feature_names=["a", "b"], config=TelecomConfig()
        )
        # One-execution chains have no history -> empty training pool.
        with pytest.raises(ValueError):
            corpus_stats(dataset)
