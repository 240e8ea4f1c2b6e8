"""Encoder-vs-topology experiment driver tests (tiny corpora, fast fits)."""

import pytest

from repro.data import ChainedTelecomConfig, TelecomConfig, generate_chained_telecom, generate_telecom
from repro.eval import (
    ENCODER_ZOO,
    TopologyComparisonResult,
    TopologyRow,
    run_encoder_topology_table,
)

SMALL = dict(
    n_chains=8,
    n_testbeds=4,
    n_focus=3,
    builds_per_chain=(2, 3),
    timesteps_per_build=(60, 70),
    include_rare_testbed=False,
    seed=2,
)
FAST_FIT = dict(max_epochs=2, batch_size=64, gru_hidden=4, fnn_hidden=8, embedding_dim=3)


@pytest.fixture(scope="module")
def result():
    independent = generate_telecom(TelecomConfig(**SMALL))
    chained = generate_chained_telecom(ChainedTelecomConfig(**SMALL))
    return run_encoder_topology_table(
        independent=independent,
        chained=chained,
        encoders=("gru", "lstm"),
        gamma=2.0,
        fast=True,
        seed=0,
        **FAST_FIT,
    )


def test_grid_covers_every_encoder_topology_pair(result):
    assert {(row.encoder, row.topology) for row in result.rows} == {
        ("gru", "independent"),
        ("gru", "chained"),
        ("lstm", "independent"),
        ("lstm", "chained"),
    }


def test_rows_carry_valid_scores(result):
    for row in result.rows:
        assert isinstance(row, TopologyRow)
        assert 0.0 <= row.f1 <= 1.0
        assert 0.0 <= row.precision <= 1.0
        assert 0.0 <= row.recall <= 1.0
        assert row.total_problems > 0
        assert 0 <= row.problems_detected <= row.total_problems


def test_row_lookup(result):
    row = result.row("gru", "chained")
    assert row.encoder == "gru" and row.topology == "chained"
    with pytest.raises(KeyError):
        result.row("gru", "ring")


def test_table_is_markdown_grid(result):
    table = result.table()
    lines = table.splitlines()
    assert lines[0].startswith("| encoder |")
    assert len(lines) == 2 + 2  # header + separator + one row per encoder
    for encoder in ("gru", "lstm"):
        assert any(f"| {encoder} |" in line for line in lines)


def test_zoo_names_are_registered():
    from repro.nn import available_encoders

    assert set(ENCODER_ZOO) <= set(available_encoders())


def test_result_is_deterministic(result):
    independent = generate_telecom(TelecomConfig(**SMALL))
    chained = generate_chained_telecom(ChainedTelecomConfig(**SMALL))
    again = run_encoder_topology_table(
        independent=independent,
        chained=chained,
        encoders=("gru", "lstm"),
        gamma=2.0,
        fast=True,
        seed=0,
        **FAST_FIT,
    )
    assert isinstance(again, TopologyComparisonResult)
    for row_a, row_b in zip(again.rows, result.rows):
        assert row_a == row_b
