"""Hold-out contribution analysis for CF groups and EM fields (§6).

The paper suggests "starting with the complete Env2Vec model and using a
'hold out' strategy to remove a set of CFs or EM to investigate how the
performance changes" as a way to understand input contributions and reduce
model complexity. This module implements exactly that:

- :func:`cf_group_holdout` retrains Env2Vec with a named group of
  contextual-feature columns removed and reports the MAE change on the
  current builds;
- :func:`em_field_holdout` retrains with one EM embedding field dropped
  (e.g. no testbed embedding) and reports the same.

A positive delta (MAE increase) means the held-out inputs carried useful
signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.model import Env2VecRegressor
from ..data.environment import EM_FIELDS
from ..data.telecom import TelecomDataset
from ..data.windows import build_windows
from .metrics import mae
from .telecom_experiments import DEFAULT_N_LAGS, window_history_pool

__all__ = ["HoldoutResult", "cf_group_holdout", "em_field_holdout", "DEFAULT_CF_GROUPS"]

#: A natural grouping of the telecom corpus' contextual features.
DEFAULT_CF_GROUPS: dict[str, list[str]] = {
    "workload": ["client_ue", "burst_period", "demand_mbps", "active_sessions"],
    "traffic_counters": ["packet_cnt_mod0", "packet_cnt_mod1", "net_tx", "net_rx"],
    "quality": ["success_ratio_mod0", "success_ratio_mod1", "response_code_50x", "jitter_ms"],
}


@dataclass
class HoldoutResult:
    """Baseline vs held-out current-build MAE."""

    baseline_mae: float
    holdout_mae: dict[str, float]

    def delta(self, name: str) -> float:
        """MAE change caused by removing the named group/field."""
        return self.holdout_mae[name] - self.baseline_mae

    def ranking(self) -> list[tuple[str, float]]:
        """Held-out names ordered by importance (largest MAE increase first)."""
        return sorted(
            ((name, self.delta(name)) for name in self.holdout_mae),
            key=lambda item: item[1],
            reverse=True,
        )

    def table(self, title: str) -> str:
        lines = [title, f"  baseline MAE: {self.baseline_mae:.3f}"]
        for name, delta in self.ranking():
            lines.append(
                f"  without {name:<18} MAE={self.holdout_mae[name]:.3f} (Δ{delta:+.3f})"
            )
        return "\n".join(lines)


def _current_build_mae(
    model: Env2VecRegressor,
    dataset: TelecomDataset,
    n_lags: int,
    keep_columns: np.ndarray | None = None,
) -> float:
    scores = []
    for chain in dataset.chains:
        if any(len(e.cpu) <= n_lags for e in chain.executions):
            continue
        features = chain.current.features
        if keep_columns is not None:
            features = features[:, keep_columns]
        X, history, y = build_windows(features, chain.current.cpu, n_lags)
        predictions = model.predict([chain.current.environment] * len(y), X, history)
        scores.append(mae(y, predictions))
    return float(np.mean(scores))


def _train(
    dataset: TelecomDataset,
    n_lags: int,
    fast: bool,
    seed: int,
    keep_columns: np.ndarray | None = None,
    em_fields: tuple[str, ...] = EM_FIELDS,
) -> Env2VecRegressor:
    environments, X, history, y = window_history_pool(
        dataset.history_training_series(), n_lags
    )
    if keep_columns is not None:
        X = X[:, keep_columns]
    model = Env2VecRegressor(
        n_lags=n_lags,
        em_fields=em_fields,
        max_epochs=30 if fast else 120,
        lr=0.004 if fast else 0.002,
        patience=8 if fast else 15,
        batch_size=256,
        dropout=0.05,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y))
    n_val = max(1, len(y) // 10)
    val_idx, train_idx = order[:n_val], order[n_val:]
    model.fit(
        [environments[i] for i in train_idx],
        X[train_idx],
        history[train_idx],
        y[train_idx],
        val=([environments[i] for i in val_idx], X[val_idx], history[val_idx], y[val_idx]),
    )
    return model


def cf_group_holdout(
    dataset: TelecomDataset,
    n_lags: int = DEFAULT_N_LAGS,
    fast: bool = True,
    seed: int = 0,
) -> HoldoutResult:
    """Retrain with each of :data:`DEFAULT_CF_GROUPS` removed; report
    current-build MAE deltas."""
    names = dataset.feature_names
    for group, columns in DEFAULT_CF_GROUPS.items():
        unknown = set(columns) - set(names)
        if unknown:
            raise ValueError(f"group {group!r} references unknown features {sorted(unknown)}")

    baseline = _train(dataset, n_lags, fast, seed)
    baseline_mae = _current_build_mae(baseline, dataset, n_lags)

    holdout_mae = {}
    for group, columns in DEFAULT_CF_GROUPS.items():
        keep = np.array([i for i, name in enumerate(names) if name not in columns])
        model = _train(dataset, n_lags, fast, seed, keep_columns=keep)
        holdout_mae[group] = _current_build_mae(model, dataset, n_lags, keep_columns=keep)
    return HoldoutResult(baseline_mae=baseline_mae, holdout_mae=holdout_mae)


def em_field_holdout(
    dataset: TelecomDataset,
    fields: tuple[str, ...] = EM_FIELDS,
    n_lags: int = DEFAULT_N_LAGS,
    fast: bool = True,
    seed: int = 0,
) -> HoldoutResult:
    """Retrain with each EM embedding field dropped; report MAE deltas."""
    unknown = set(fields) - set(EM_FIELDS)
    if unknown:
        raise ValueError(f"unknown EM fields {sorted(unknown)}")
    baseline = _train(dataset, n_lags, fast, seed)
    baseline_mae = _current_build_mae(baseline, dataset, n_lags)

    holdout_mae = {}
    for field in fields:
        remaining = tuple(f for f in EM_FIELDS if f != field)
        model = _train(dataset, n_lags, fast, seed, em_fields=remaining)
        holdout_mae[field] = _current_build_mae(model, dataset, n_lags)
    return HoldoutResult(baseline_mae=baseline_mae, holdout_mae=holdout_mae)
