"""Generic training loop with mini-batching and early stopping.

Implements the training regime of the paper's Appendix A.1: MSE loss,
Adam updates, dropout regularization inside the model, and *early stopping*
that halts training when the validation loss stops improving and restores
the best weights observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..obs import get_observability
from .inference import UnsupportedModuleError, compile_module
from .init import ensure_rng
from .layers import Module
from .losses import get_loss
from .optim import Adam, Optimizer
from .tensor import Tensor, no_grad

__all__ = ["EarlyStopping", "ReduceLROnPlateau", "TrainingDiverged", "TrainingHistory", "Trainer"]

Batch = Mapping[str, np.ndarray]

_OBS = get_observability()
_M_EPOCHS = _OBS.counter(
    "repro_nn_epochs_total", "Optimization epochs completed by Trainer.fit."
)
_M_BATCHES = _OBS.counter(
    "repro_nn_batches_total", "Mini-batch gradient steps taken by Trainer.fit."
)


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss; the fit was aborted.

    Raised by :meth:`Trainer.fit` the moment an epoch's training or
    validation loss goes NaN/Inf — continuing would Adam-step poisoned
    gradients into every weight. The model is left as-is at the failing
    epoch and callers (the training pipeline) are expected to discard it
    and keep the previous published model serving.
    """

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


@dataclass
class EarlyStopping:
    """Stop training when a monitored loss has not improved for ``patience`` epochs.

    ``min_delta`` is the smallest decrease counted as an improvement;
    ``restore_best`` reloads the best weights seen when stopping.
    """

    patience: int = 5
    min_delta: float = 0.0
    restore_best: bool = True

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        self.best_loss = np.inf
        self.best_state: dict[str, np.ndarray] | None = None
        self.wait = 0

    def update(self, loss: float, model: Module) -> bool:
        """Record an epoch's validation loss. Returns True when training should stop."""
        if loss < self.best_loss - self.min_delta:
            self.best_loss = loss
            self.wait = 0
            if self.restore_best:
                self.best_state = model.state_dict()
            return False
        self.wait += 1
        return self.wait >= self.patience

    def finalize(self, model: Module) -> None:
        if self.restore_best and self.best_state is not None:
            model.load_state_dict(self.best_state)


@dataclass
class ReduceLROnPlateau:
    """Halve (by ``factor``) the optimizer's learning rate when the
    validation loss stalls for ``patience`` epochs.

    A standard complement to early stopping: the model escapes noisy
    plateaus by taking smaller steps before the stopper gives up.
    """

    patience: int = 3
    factor: float = 0.5
    min_lr: float = 1e-5
    min_delta: float = 0.0

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 < self.factor < 1.0:
            raise ValueError("factor must be in (0, 1)")
        if self.min_lr <= 0:
            raise ValueError("min_lr must be positive")
        self.best_loss = np.inf
        self.wait = 0
        self.reductions = 0

    def update(self, loss: float, optimizer: Optimizer) -> bool:
        """Record an epoch's loss; returns True when the lr was reduced."""
        if loss < self.best_loss - self.min_delta:
            self.best_loss = loss
            self.wait = 0
            return False
        self.wait += 1
        if self.wait >= self.patience and optimizer.lr > self.min_lr:
            optimizer.lr = max(self.min_lr, optimizer.lr * self.factor)
            self.wait = 0
            self.reductions += 1
            return True
        return False


@dataclass
class TrainingHistory:
    """Per-epoch loss curves recorded by :class:`Trainer`."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    stopped_epoch: int | None = None

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


class Trainer:
    """Trains any :class:`Module` whose ``forward`` accepts keyword arrays.

    The model's ``forward`` is called as ``model(**batch)`` where ``batch``
    maps input names to numpy arrays sliced along axis 0. This keeps the
    trainer agnostic to the Env2Vec model's three heterogeneous inputs
    (contextual features, RU history window, environment id columns).

    ``evaluate`` and ``predict`` route through the tape-free inference
    engine (:mod:`repro.nn.inference`) whenever the model's type has a
    registered compile rule, falling back to the autograd forward under
    ``no_grad`` otherwise.

    Shuffling uses ``rng`` when given, else a generator seeded with
    ``seed`` — pass either to make two identical ``fit`` calls produce
    identical histories.
    """

    def __init__(
        self,
        model: Module,
        loss: str | Callable[[Tensor, Tensor], Tensor] = "mse",
        optimizer: Optimizer | None = None,
        lr: float = 0.001,
        batch_size: int = 128,
        max_epochs: int = 100,
        early_stopping: EarlyStopping | None = None,
        lr_scheduler: "ReduceLROnPlateau | None" = None,
        shuffle: bool = True,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        verbose: bool = False,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        self.model = model
        self.loss_fn = get_loss(loss) if isinstance(loss, str) else loss
        self.optimizer = optimizer if optimizer is not None else Adam(model.parameters(), lr=lr)
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.early_stopping = early_stopping
        self.lr_scheduler = lr_scheduler
        self.shuffle = shuffle
        self.rng = ensure_rng(rng, seed)
        self.verbose = verbose

    def fit(
        self,
        inputs: Batch,
        targets: np.ndarray,
        val_inputs: Batch | None = None,
        val_targets: np.ndarray | None = None,
    ) -> TrainingHistory:
        """Run the training loop; returns the loss history."""
        n = _check_sizes(inputs, targets)
        has_val = val_inputs is not None and val_targets is not None
        if self.early_stopping is not None and not has_val:
            raise ValueError("early stopping requires validation data")
        if self.lr_scheduler is not None and not has_val:
            raise ValueError("lr scheduling requires validation data")

        history = TrainingHistory()
        targets = np.asarray(targets, dtype=np.float64)
        for epoch in range(self.max_epochs):
            order = self.rng.permutation(n) if self.shuffle else np.arange(n)
            self.model.train()
            epoch_loss = 0.0
            for batch, batch_targets in _shuffled_batches(inputs, targets, order, self.batch_size):
                self.optimizer.zero_grad()
                predicted = self.model(**batch)
                loss = self.loss_fn(predicted, Tensor(batch_targets))
                loss.backward()
                self.optimizer.step()
                epoch_loss += loss.item() * len(batch_targets)
                _M_BATCHES.inc()
            train_loss = epoch_loss / n
            if not np.isfinite(train_loss):
                raise TrainingDiverged(
                    f"training loss went non-finite ({train_loss}) at epoch {epoch}",
                    epoch=epoch,
                )
            history.train_loss.append(train_loss)
            _M_EPOCHS.inc()

            if has_val:
                val_loss = self.evaluate(val_inputs, val_targets)
                if not np.isfinite(val_loss):
                    raise TrainingDiverged(
                        f"validation loss went non-finite ({val_loss}) at epoch {epoch}",
                        epoch=epoch,
                    )
                history.val_loss.append(val_loss)
                if self.verbose:  # pragma: no cover - logging only
                    print(f"epoch {epoch}: train={history.train_loss[-1]:.5f} val={val_loss:.5f}")
                if self.lr_scheduler is not None:
                    self.lr_scheduler.update(val_loss, self.optimizer)
                if self.early_stopping is not None and self.early_stopping.update(val_loss, self.model):
                    history.stopped_epoch = epoch
                    break
        if self.early_stopping is not None:
            self.early_stopping.finalize(self.model)
        return history

    def _compile(self):
        """Snapshot the current weights into a tape-free engine, if possible."""
        try:
            return compile_module(self.model)
        except UnsupportedModuleError:
            return None

    def evaluate(self, inputs: Batch, targets: np.ndarray) -> float:
        """Average loss over the given data, in eval mode, without autograd."""
        n = _check_sizes(inputs, targets)
        targets = np.asarray(targets, dtype=np.float64)
        self.model.eval()
        engine = self._compile()
        total = 0.0
        with no_grad():
            for start in range(0, n, self.batch_size):
                batch = {key: value[start : start + self.batch_size] for key, value in inputs.items()}
                batch_targets = targets[start : start + self.batch_size]
                predicted = Tensor(engine(**batch)) if engine is not None else self.model(**batch)
                loss = self.loss_fn(predicted, Tensor(batch_targets))
                total += loss.item() * len(batch_targets)
        return total / n

    def predict(self, inputs: Batch) -> np.ndarray:
        """Model predictions as a numpy array, in eval mode."""
        n = _check_sizes(inputs, None)
        self.model.eval()
        engine = self._compile()
        if engine is not None:
            return engine.predict(inputs, batch_size=self.batch_size)
        outputs: list[np.ndarray] = []
        with no_grad():
            for start in range(0, n, self.batch_size):
                batch = {key: value[start : start + self.batch_size] for key, value in inputs.items()}
                outputs.append(self.model(**batch).numpy())
        return np.concatenate(outputs, axis=0)


#: Batches per gather in ``Trainer.fit``. Gathering the whole epoch at once
#: would copy the full training set every epoch (tens of MiB on the
#: end-to-end corpora, visible in peak RSS); gathering per batch pays a
#: fancy-index call per input array per batch.
_GATHER_BATCHES = 16


def _shuffled_batches(inputs: Batch, targets: np.ndarray, order: np.ndarray, batch_size: int):
    """Mini-batches in ``order``, gathered a block of batches at a time.

    Each batch is a slice of its block holding exactly the rows a
    per-batch ``value[order[start:stop]]`` would pick, byte for byte.
    """
    block = batch_size * _GATHER_BATCHES
    for first in range(0, len(order), block):
        idx = order[first : first + block]
        rows = {key: value[idx] for key, value in inputs.items()}
        rows_targets = targets[idx]
        for start in range(0, len(idx), batch_size):
            stop = start + batch_size
            yield {key: value[start:stop] for key, value in rows.items()}, rows_targets[start:stop]


def _check_sizes(inputs: Batch, targets: np.ndarray | None) -> int:
    if not inputs:
        raise ValueError("inputs must contain at least one array")
    sizes = {key: len(value) for key, value in inputs.items()}
    n = next(iter(sizes.values()))
    if any(size != n for size in sizes.values()):
        raise ValueError(f"input arrays disagree on length: {sizes}")
    if targets is not None and len(targets) != n:
        raise ValueError(f"targets length {len(targets)} != inputs length {n}")
    if n == 0:
        raise ValueError("cannot train/evaluate on empty data")
    return n
