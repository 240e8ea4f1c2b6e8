"""Model training pipeline (paper §3, workflow step 2).

"The model is updated daily using all the new data generated where no
performance problem was flagged. Executions with true positive alarms are
masked out from the training data, along with any false negative problems
discovered independently by the testing engineers. ... After training
completion, the model is available via HTTP."

:class:`TrainingPipeline` gathers historical executions, masks flagged
environments, windows the series, trains a single
:class:`~repro.core.model.Env2VecRegressor`, and publishes the serialized
artifact to a :class:`~repro.workflow.model_store.ModelStore`. A run is
either a full fit of a fresh regressor on the whole pool
(:meth:`TrainingPipeline.train`) or a warm one (paper §4.3, "retraining
Env2Vec incrementally with the new data"): an in-memory copy of the
serving model fine-tuned on the newest executions plus a seeded replay
sample of the older ones (:meth:`TrainingPipeline.fine_tune`), which
trains only the head side (combine layer, embedding tables, head) over
the frozen encoder and FNN, reusing their rows where the caller kept
them. Both publish through the same spans and metrics,
labelled by kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.model import Env2VecRegressor
from ..data.environment import Environment
from ..data.windows import build_windows_multi
from ..nn.training import TrainingDiverged
from ..obs import get_observability
from .model_store import ModelStore, ModelVersion

__all__ = ["TrainingPipeline", "TrainingResult"]

#: share of a full fit's windows held out (seeded) for early stopping.
VAL_FRACTION = 0.1

_OBS = get_observability()
_H_RUN = _OBS.histogram(
    "repro_training_run_seconds",
    "Wall-clock latency of one daily training run (window build, fit, publish).",
    buckets=(0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0),
)
_M_RUNS = _OBS.counter(
    "repro_training_runs_total",
    "Training-pipeline runs published, by kind (full fit or warm fine-tune).",
    labels=("kind",),
)
_M_EPOCHS = _OBS.counter(
    "repro_training_epochs_total", "Training epochs run across all training runs."
)
_M_WINDOWS = _OBS.counter(
    "repro_training_windows_total", "History windows built for training (pre-split)."
)
_G_MASKED = _OBS.gauge(
    "repro_training_masked_executions",
    "Executions masked out of the most recent training pool.",
)
_M_DIVERGED = _OBS.counter(
    "repro_resilience_training_diverged_total",
    "Training runs aborted on a non-finite loss (no model published).",
)

TrainingRecord = tuple[Environment, np.ndarray, np.ndarray]


@dataclass
class TrainingResult:
    """Outcome of one (daily) training run."""

    model: Env2VecRegressor
    version: ModelVersion
    n_examples: int
    n_masked_executions: int
    epochs_run: int
    final_train_loss: float


class TrainingPipeline:
    """Daily training runs, published to ``store``: full fits of a fresh
    regressor (:meth:`train`) and warm head-side fine-tunes of the
    serving model's copy (:meth:`fine_tune`)."""

    def __init__(
        self,
        store: ModelStore,
        n_lags: int = 3,
        model_params: dict | None = None,
        seed: int = 0,
    ):
        self.store = store
        self.n_lags = n_lags
        self.model_params = dict(model_params or {})
        self.seed = seed

    def train(
        self,
        records: list[TrainingRecord],
        masked_environments: set[Environment] | None = None,
    ) -> TrainingResult:
        """Train on all non-masked executions and publish the model.

        ``masked_environments`` are the executions with true-positive
        alarms (and engineer-reported problems) excluded per step 2.
        This is the full fit: a fresh seeded regressor, standardized
        anew and early-stopped on a seeded validation split.
        """
        masked = masked_environments or set()
        usable = [record for record in records if record[0] not in masked]

        def fit(environments, X, history, y, val):
            model = Env2VecRegressor(n_lags=self.n_lags, seed=self.seed, **self.model_params)
            return model.fit(environments, X, history, y, val=val)

        return self._run("full", usable, len(records) - len(usable), fit, VAL_FRACTION)

    def fine_tune(
        self,
        base: Env2VecRegressor,
        records: list[TrainingRecord],
        n_new: int,
        day: int,
        masked_environments: set[Environment] | None = None,
        branch_rows: list[np.ndarray | None] | None = None,
    ) -> TrainingResult:
        """Warm run: fine-tune a copy of the ``base`` model and publish it.

        ``records[-n_new:]`` are the day's executions, the rest the older
        pool. The copy trains on the day's unmasked executions plus an
        equal-size sample of the older unmasked ones (all of them when
        fewer), for half the full fit's epochs at the full fit's learning
        rate. The encoder and FNN stay frozen; the combine layer, the
        embedding tables and the head train (``fine_tune`` with
        ``adapt_embeddings_only=False``). Scaling stays as the base model
        was fitted. The replay sample and every random draw of the
        fine-tune derive from ``(seed, day)``, so a resumed campaign
        repeats the day bit for bit.

        ``branch_rows`` aligns with ``records``: a record's frozen-branch
        rows under ``base`` when the caller kept them
        (:meth:`PredictionPipeline.branch_rows`), else None. The rows of
        the records without them are computed from their own windows in
        one pass.
        """
        masked = masked_environments or set()
        split = len(records) - n_new
        old = [i for i in range(split) if records[i][0] not in masked]
        new = [i for i in range(split, len(records)) if records[i][0] not in masked]
        if not new:
            raise ValueError("no new training data left after masking")
        rng = np.random.default_rng((self.seed, day))
        seed = int(rng.integers(2**32))
        replay = np.sort(rng.choice(len(old), size=min(len(new), len(old)), replace=False))
        chosen = [old[i] for i in replay] + new
        usable = [records[i] for i in chosen]
        kept = [None] * len(chosen) if branch_rows is None else [branch_rows[i] for i in chosen]

        def fit(environments, X, history, y, val):
            # A copy, so the serving model is never mutated. It carries
            # the architecture and weights only; the training parameters
            # are the pipeline's. No validation split (val is None): the
            # fine-tune runs its fixed epoch budget.
            model = base.copy()
            model.set_params(**self.model_params, seed=seed)
            return model.fine_tune(
                environments, X, history, y,
                epochs=max(1, model.max_epochs // 2),
                lr=model.lr,
                adapt_embeddings_only=False,
                branch_rows=self._branch_rows(base, usable, kept, X, history),
            )

        return self._run("warm", usable, len(records) - len(old) - len(new), fit, 0.0)

    def _branch_rows(self, base, usable, kept, X, history) -> np.ndarray:
        """Every window's branch rows: the ``kept`` ones where given, the
        rest from ``usable``'s windows ``X``/``history`` by ``base``."""
        counts = [len(cpu) - self.n_lags for _, _, cpu in usable]
        bounds = np.cumsum([0, *counts]).tolist()
        missing = [k for k, rows in enumerate(kept) if rows is None]
        if missing:
            windows = np.concatenate([np.arange(bounds[k], bounds[k + 1]) for k in missing])
            computed = base.branch_rows(X[windows], history[windows])
            kept = list(kept)
            start = 0
            for k in missing:
                kept[k], start = computed[start : start + counts[k]], start + counts[k]
        return np.concatenate(kept)

    def _run(
        self, kind: str, usable: list[TrainingRecord], n_masked: int, fit, val_fraction: float
    ) -> TrainingResult:
        """Window ``usable``, train with ``fit``, publish; one span each.

        ``fit(environments, X, history, y, val)`` returns the trained
        model. With ``val_fraction`` > 0 a seeded share of the windows is
        held out as ``val``; the split rebinds the window arrays, so the
        unsplit ones are freed before training starts.
        """
        with _H_RUN.time():
            if not usable:
                raise ValueError("no training data left after masking")
            with _OBS.span("train.build_windows"):
                series = [(features, cpu) for _, features, cpu in usable]
                X, history, y, series_ids = build_windows_multi(series, self.n_lags)
                environments = [usable[i][0] for i in series_ids]
            n_windows = len(y)

            val = None
            if val_fraction > 0 and n_windows >= 20:
                rng = np.random.default_rng(self.seed)
                order = rng.permutation(n_windows)
                n_val = max(1, int(n_windows * val_fraction))
                val_idx, train_idx = order[:n_val], order[n_val:]
                val = (
                    [environments[i] for i in val_idx],
                    X[val_idx],
                    history[val_idx],
                    y[val_idx],
                )
                environments = [environments[i] for i in train_idx]
                X, history, y = X[train_idx], history[train_idx], y[train_idx]

            with _OBS.span("train.fit"):
                try:
                    model = fit(environments, X, history, y, val)
                except TrainingDiverged:
                    # The aborted model is never published; the store keeps
                    # serving the previous version. Count it and let the
                    # orchestrator decide how the day degrades.
                    _M_DIVERGED.inc()
                    raise
            with _OBS.span("train.publish"):
                blob = model.to_bytes()
                version = self.store.publish(
                    blob,
                    metadata={
                        "n_examples": int(len(y)),
                        "n_lags": self.n_lags,
                        "masked_executions": n_masked,
                    },
                )
            _M_RUNS.labels(kind=kind).inc()
            _M_EPOCHS.inc(model.history_.epochs_run)
            _M_WINDOWS.inc(n_windows)
            _G_MASKED.set(n_masked)
        return TrainingResult(
            model=model,
            version=version,
            n_examples=int(len(y)),
            n_masked_executions=n_masked,
            epochs_run=model.history_.epochs_run,
            final_train_loss=model.history_.train_loss[-1],
        )
