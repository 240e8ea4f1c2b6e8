"""Hyper-parameter search on a validation set.

The paper (§4.1.1) uses a fixed train/validation/test split per dataset and
tunes every method's hyper-parameters on the validation set, so the tool
here is :class:`ValidationGridSearch` — exhaustive search scored on an
explicit validation set (not cross-validation) over a
:class:`ParameterGrid`. The experiments slice their fixed splits
themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .base import Estimator, clone

__all__ = ["ParameterGrid", "ValidationGridSearch"]


class ParameterGrid:
    """Iterate over the cartesian product of a parameter grid dict."""

    def __init__(self, grid: Mapping[str, Sequence]):
        if not grid:
            raise ValueError("parameter grid must not be empty")
        for key, values in grid.items():
            if not isinstance(values, (list, tuple)):
                raise TypeError(f"grid values for {key!r} must be a list/tuple")
            if len(values) == 0:
                raise ValueError(f"grid values for {key!r} must not be empty")
        self.grid = dict(grid)

    def __iter__(self) -> Iterator[dict]:
        keys = sorted(self.grid)
        for combo in itertools.product(*(self.grid[key] for key in keys)):
            yield dict(zip(keys, combo))

    def __len__(self) -> int:
        length = 1
        for values in self.grid.values():
            length *= len(values)
        return length


@dataclass
class ValidationGridSearch:
    """Exhaustive grid search scored on a held-out validation set.

    Each candidate clones ``estimator``, sets the candidate parameters, fits
    on the training data, and scores on the validation data via the
    estimator's ``score`` (negative MSE — higher is better).
    """

    estimator: Estimator
    grid: Mapping[str, Sequence]
    best_params_: dict | None = field(default=None, init=False)
    best_score_: float = field(default=-np.inf, init=False)
    best_estimator_: Estimator | None = field(default=None, init=False)
    results_: list[tuple[dict, float]] = field(default_factory=list, init=False)

    def fit(
        self,
        X_train,
        y_train,
        X_val,
        y_val,
        fit_kwargs: Mapping | None = None,
        score_kwargs: Mapping | None = None,
    ) -> "ValidationGridSearch":
        """Search the grid. ``fit_kwargs``/``score_kwargs`` pass extra data
        (e.g. the RU-history matrix RidgeTS needs) to fit and score."""
        fit_kwargs = dict(fit_kwargs or {})
        score_kwargs = dict(score_kwargs or {})
        self.results_ = []
        self.best_score_ = -np.inf
        for params in ParameterGrid(self.grid):
            candidate = clone(self.estimator).set_params(**params)
            candidate.fit(X_train, y_train, **fit_kwargs)
            score = candidate.score(X_val, y_val, **score_kwargs)
            self.results_.append((params, score))
            if score > self.best_score_:
                self.best_score_ = score
                self.best_params_ = params
                self.best_estimator_ = candidate
        return self
