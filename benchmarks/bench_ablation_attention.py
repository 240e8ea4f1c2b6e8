"""Ablation — the §6 attention extension over the RU-history GRU.

The paper proposes attention as future work "to learn relationships
between metric values from previous timesteps". This benchmark trains
Env2Vec with and without additive attention over the GRU's hidden-state
sequence and compares current-build MAE — the attention variant must stay
in the same accuracy band (it is an extension, not a regression) while
exposing interpretable per-timestep weights.
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
    scores = {}
    models = {}
    for encoder in ("gru", "attention"):
        model = train_env2vec_telecom(dataset, n_lags=5, fast=True, encoder=encoder, seed=0)
        chain_maes = []
        for chain in dataset.chains:
            X, history, y = build_windows(chain.current.features, chain.current.cpu, 5)
            predictions = model.predict([chain.current.environment] * len(y), X, history)
            chain_maes.append(mae(y, predictions))
        scores[encoder] = float(np.mean(chain_maes))
        models[encoder] = model
    return dataset, scores, models


def test_ablation_attention(benchmark):
    dataset, scores, models = benchmark.pedantic(_evaluate, rounds=1, iterations=1)

    # Inspect the learned attention profile over the 5-lag window.
    attention_model = models["attention"]
    chain = dataset.chains[0]
    X, history, y = build_windows(chain.current.features, chain.current.cpu, 5)
    attention_model.predict([chain.current.environment] * len(y), X, history, compiled=False)
    weights = attention_model.model.encoder.attention.last_weights.mean(axis=0)

    emit(
        "ablation_attention",
        "\n".join(
            [
                "Ablation — additive attention over RU history (§6 extension)",
                f"  last-state GRU (paper) : MAE={scores['gru']:.3f}",
                f"  + attention            : MAE={scores['attention']:.3f}",
                "  mean attention weight per lag (oldest -> newest): "
                + " ".join(f"{w:.2f}" for w in weights),
            ]
        ),
    )

    # The extension stays within the baseline's accuracy band.
    assert scores["attention"] <= scores["gru"] * 1.15
    # Attention weights are a valid distribution over the window.
    assert weights.shape == (5,)
    assert np.isclose(weights.sum(), 1.0, atol=1e-9)
