"""Sliding-window construction for the RU-history input.

Env2Vec conditions the prediction of ``y_p`` on the ``n`` previous
resource-utilization values ``{y_{p-n}, ..., y_{p-1}}`` (paper §1, §3.1 —
"GRUs for incorporating resource history"). These helpers turn a time
series into aligned (features, history window, target) training examples;
the first ``n`` timesteps of each series are dropped because they lack a
full history.
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_windows", "build_windows_multi"]


def _checked(
    features: np.ndarray, target: np.ndarray, n_lags: int
) -> tuple[np.ndarray, np.ndarray]:
    """One series as float64 arrays, or the ``ValueError`` naming its flaw."""
    features = np.asarray(features, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if n_lags < 1:
        raise ValueError("n_lags must be >= 1")
    if features.ndim != 2:
        raise ValueError(f"features must be 2-d; got shape {features.shape}")
    if target.ndim != 1:
        raise ValueError(f"target must be 1-d; got shape {target.shape}")
    if len(features) != len(target):
        raise ValueError(f"features and target disagree on length: {len(features)} vs {len(target)}")
    if len(target) <= n_lags:
        raise ValueError(f"series of length {len(target)} too short for n_lags={n_lags}")
    return features, target


def build_windows(
    features: np.ndarray, target: np.ndarray, n_lags: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Align one series into supervised examples.

    Returns ``(X, history, y)`` where, for output row i (source timestep
    ``p = i + n_lags``):

    - ``X[i]`` are the contextual features at timestep p,
    - ``history[i] = [y_{p-n}, ..., y_{p-1}]`` (oldest first, the order the
      GRU consumes), and
    - ``y[i] = y_p``.
    """
    features, target = _checked(features, target, n_lags)
    n_out = len(target) - n_lags
    # Row i gathers exactly target[i : i + n_lags]: one vectorized copy
    # with the same bytes as stacking the per-row slices it replaces.
    history = target[np.arange(n_out)[:, None] + np.arange(n_lags)]
    return features[n_lags:], history, target[n_lags:]


def build_windows_multi(
    series: list[tuple[np.ndarray, np.ndarray]], n_lags: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Window many independent series and concatenate the results.

    Windows never straddle series boundaries — each test execution is its
    own sequence (§5: "a non-continuous set of time series for each test
    execution"). Returns ``(X, history, y, series_ids)`` where
    ``series_ids[i]`` is the index of the source series for example i.

    The bytes equal concatenating :func:`build_windows` per series, and
    the first invalid series raises its ``ValueError``. The targets are
    concatenated and every history row is one gather from them: series
    ``s`` starts ``s * n_lags`` source steps after its first output row,
    so output row r reads from ``r + series_ids[r] * n_lags``.
    """
    if not series:
        raise ValueError("need at least one series")
    checked = [_checked(features, target, n_lags) for features, target in series]
    targets = np.concatenate([target for _, target in checked])
    n_out = np.array([len(target) for _, target in checked]) - n_lags
    series_ids = np.repeat(np.arange(len(checked), dtype=np.int64), n_out)
    source = np.arange(len(series_ids)) + series_ids * n_lags
    return (
        np.concatenate([features[n_lags:] for features, _ in checked], axis=0),
        targets[source[:, None] + np.arange(n_lags)],
        targets[source + n_lags],
        series_ids,
    )
