"""Ablation — GRU vs LSTM for the RU-history branch.

The paper picked GRUs for the recurrent branch (§3.1) without comparing to
LSTM. This ablation swaps the unit and verifies the choice is not
load-bearing: both land in the same accuracy band on the telecom corpus,
with the GRU the smaller model — supporting the paper's pragmatic pick.
"""

import numpy as np

from conftest import emit
from repro.data import TelecomConfig, generate_telecom
from repro.data.windows import build_windows
from repro.eval import mae, train_env2vec_telecom


def _evaluate():
    dataset = generate_telecom(
        TelecomConfig(n_chains=40, n_testbeds=10, n_focus=4, seed=13)
    )
    scores, params = {}, {}
    for unit in ("gru", "lstm"):
        model = train_env2vec_telecom(dataset, fast=True, encoder=unit, seed=0)
        chain_maes = []
        for chain in dataset.chains:
            X, history, y = build_windows(chain.current.features, chain.current.cpu, 3)
            predictions = model.predict([chain.current.environment] * len(y), X, history)
            chain_maes.append(mae(y, predictions))
        scores[unit] = float(np.mean(chain_maes))
        params[unit] = model.model.num_parameters()
    return scores, params


def test_ablation_recurrent_unit(benchmark):
    scores, params = benchmark.pedantic(_evaluate, rounds=1, iterations=1)
    emit(
        "ablation_recurrent",
        "\n".join(
            [
                "Ablation — recurrent unit for the RU-history branch",
                f"  gru  (paper): MAE={scores['gru']:.3f}  parameters={params['gru']:,}",
                f"  lstm        : MAE={scores['lstm']:.3f}  parameters={params['lstm']:,}",
            ]
        ),
    )
    # Same accuracy band; GRU needs fewer parameters (3 vs 4 gate blocks).
    assert scores["lstm"] <= scores["gru"] * 1.2
    assert scores["gru"] <= scores["lstm"] * 1.2
    assert params["gru"] < params["lstm"]
