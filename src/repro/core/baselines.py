"""Neural baselines of §4.1.3: FNN, RFNN, and RFNN_all.

- **FNN** [29, 30]: a feedforward network with one hidden layer over the
  contextual features only; the paper tunes hidden units over powers of two
  {32..1024} and dropout over {0.0..0.9}.
- **RFNN**: Env2Vec's GRU + FNN backbone *without* environment embeddings,
  trained **per environment**; prediction comes from the dense layer with a
  linear regression head.
- **RFNN_all**: the same architecture trained once on pooled data from
  *all* environments — the "other extreme" that treats every environment
  identically, which §4.1.4 shows underperforms Env2Vec because it cannot
  separate environments.

Both RFNN variants are served by :class:`RFNNRegressor`; RFNN vs RFNN_all
is purely a question of which data you fit it on.
"""

from __future__ import annotations

import numpy as np

from ..ml.base import Estimator
from ..ml.preprocessing import StandardScaler
from ..nn.encoders import create_encoder, validate_encoder_name
from ..nn.init import ensure_rng
from ..nn.inference import CompiledDense, InferenceModel, compile_module, compile_plan, register_compiler
from ..nn.layers import Dense, Dropout, Module
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from ..nn.training import EarlyStopping, Trainer, TrainingHistory

__all__ = [
    "FNNModel",
    "FNNRegressor",
    "RFNNModel",
    "RFNNRegressor",
    "PAPER_FNN_HIDDEN_UNITS",
    "PAPER_FNN_DROPOUTS",
    "PAPER_RFNN_LAGS",
]

#: §4.1.3 hyper-parameter grids.
PAPER_FNN_HIDDEN_UNITS = (32, 64, 128, 256, 512, 1024)
PAPER_FNN_DROPOUTS = tuple(round(0.1 * i, 1) for i in range(10))
PAPER_RFNN_LAGS = tuple(range(1, 10))


class FNNModel(Module):
    """One sigmoid hidden layer + dropout + linear output."""

    def __init__(
        self,
        n_features: int,
        hidden: int = 128,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = ensure_rng(rng)
        self.hidden_layer = Dense(n_features, hidden, activation="sigmoid", rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        self.output = Dense(hidden, 1, rng=rng)

    def forward(self, cf: np.ndarray) -> Tensor:
        hidden = self.dropout(self.hidden_layer(Tensor(np.asarray(cf, dtype=np.float64))))
        return self.output(hidden).reshape(-1)


class RFNNModel(Module):
    """Sequence encoder + FNN backbone with a linear regression head (no embeddings)."""

    def __init__(
        self,
        n_features: int,
        n_lags: int,
        fnn_hidden: int = 64,
        gru_hidden: int = 16,
        dense_dim: int = 40,
        dropout: float = 0.1,
        encoder: str = "gru",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if n_lags < 1:
            raise ValueError("n_lags must be >= 1")
        rng = ensure_rng(rng)
        self.n_features = n_features
        self.n_lags = n_lags
        self.fnn = Dense(n_features, fnn_hidden, activation="sigmoid", rng=rng)
        self.fnn_dropout = Dropout(dropout, rng=rng)
        self.encoder = create_encoder(encoder, 1, gru_hidden, rng=rng)
        self.combine = Dense(fnn_hidden + self.encoder.output_dim, dense_dim, rng=rng)
        self.output = Dense(dense_dim, 1, rng=rng)

    def forward(self, cf: np.ndarray, history: np.ndarray) -> Tensor:
        cf = np.asarray(cf, dtype=np.float64)
        history = np.asarray(history, dtype=np.float64)
        if cf.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} contextual features, got {cf.shape[1]}")
        if history.shape[1] != self.n_lags:
            raise ValueError(f"expected history window of {self.n_lags}, got {history.shape[1]}")
        v_fs = self.fnn_dropout(self.fnn(Tensor(cf)))
        v_ts = self.encoder(Tensor(history[:, :, None]))
        v_d = self.combine(Tensor.concat([v_ts, v_fs], axis=1))
        return self.output(v_d).reshape(-1)


@register_compiler(FNNModel)
def _compile_fnn(model: FNNModel):
    hidden_layer = CompiledDense(model.hidden_layer)
    output = CompiledDense(model.output)
    dtype = hidden_layer.weight.dtype

    def forward(cf: np.ndarray) -> np.ndarray:
        return output(hidden_layer(np.asarray(cf, dtype=dtype))).reshape(-1)

    return forward


@register_compiler(RFNNModel)
def _compile_rfnn(model: RFNNModel):
    fnn = CompiledDense(model.fnn)
    encoder = compile_plan(model.encoder)
    combine = CompiledDense(model.combine)
    output = CompiledDense(model.output)
    n_features, n_lags = model.n_features, model.n_lags
    dtype = fnn.weight.dtype

    def forward(cf: np.ndarray, history: np.ndarray) -> np.ndarray:
        cf = np.asarray(cf, dtype=dtype)
        history = np.asarray(history, dtype=dtype)
        if cf.shape[1] != n_features:
            raise ValueError(f"expected {n_features} contextual features, got {cf.shape[1]}")
        if history.shape[1] != n_lags:
            raise ValueError(f"expected history window of {n_lags}, got {history.shape[1]}")
        v_s = np.concatenate([encoder(history[:, :, None]), fnn(cf)], axis=1)
        return output(combine(v_s)).reshape(-1)

    return forward


class _ScaledNNRegressor(Estimator):
    """Shared fit/predict plumbing: standardize X (and history) and y."""

    def __init__(self, lr: float, batch_size: int, max_epochs: int, patience: int, seed: int):
        self.lr = lr
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.seed = seed
        self.model: Module | None = None
        self.history_: TrainingHistory | None = None
        self._engine: InferenceModel | None = None

    def _build_model(self, n_features: int, rng: np.random.Generator) -> Module:
        raise NotImplementedError

    def _scale(self, X, history):
        X = self._x_scaler.transform(np.asarray(X, dtype=np.float64))
        if history is None:
            return {"cf": X}
        history = (np.asarray(history, dtype=np.float64) - self._y_mean) / self._y_std
        return {"cf": X, "history": history}

    def _fit(self, X, history, y, val) -> None:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        self._x_scaler = StandardScaler().fit(X)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        self.model = self._build_model(X.shape[1], rng)
        inputs = self._scale(X, history)
        targets = (y - self._y_mean) / self._y_std

        val_inputs = val_targets = None
        early_stopping = None
        if val is not None:
            val_X, val_history, val_y = val
            val_inputs = self._scale(val_X, val_history)
            val_targets = (np.asarray(val_y, dtype=np.float64) - self._y_mean) / self._y_std
            early_stopping = EarlyStopping(patience=self.patience)

        trainer = Trainer(
            self.model,
            optimizer=Adam(self.model.parameters(), lr=self.lr),
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            early_stopping=early_stopping,
            rng=rng,
        )
        self.history_ = trainer.fit(inputs, targets, val_inputs, val_targets)
        self._engine = None
        self._fitted = True

    def _predict(self, X, history) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        if self._engine is None:
            # one compile per fit; every later predict reuses the engine
            self._engine = compile_module(self.model)
        scaled = self._engine.predict(self._scale(X, history), batch_size=self.batch_size)
        return scaled * self._y_std + self._y_mean


class FNNRegressor(_ScaledNNRegressor):
    """The FNN baseline: contextual features only, no RU history."""

    def __init__(
        self,
        hidden: int = 128,
        dropout: float = 0.0,
        lr: float = 0.003,
        batch_size: int = 128,
        max_epochs: int = 80,
        patience: int = 5,
        seed: int = 0,
    ):
        super().__init__(lr, batch_size, max_epochs, patience, seed)
        self.hidden = hidden
        self.dropout = dropout

    def _build_model(self, n_features: int, rng: np.random.Generator) -> Module:
        return FNNModel(n_features, hidden=self.hidden, dropout=self.dropout, rng=rng)

    def fit(self, X, y, val: tuple | None = None) -> "FNNRegressor":
        """``val`` is an optional (X_val, y_val) pair for early stopping."""
        val3 = (val[0], None, val[1]) if val is not None else None
        self._fit(X, None, y, val3)
        return self

    def predict(self, X) -> np.ndarray:
        return self._predict(X, None)


class RFNNRegressor(_ScaledNNRegressor):
    """RFNN / RFNN_all: GRU + FNN without embeddings.

    Fit it on one environment's data for RFNN, or on pooled data from all
    environments for RFNN_all.
    """

    def __init__(
        self,
        n_lags: int = 2,
        fnn_hidden: int = 64,
        gru_hidden: int = 16,
        dense_dim: int = 40,
        dropout: float = 0.1,
        encoder: str = "gru",
        lr: float = 0.003,
        batch_size: int = 128,
        max_epochs: int = 80,
        patience: int = 5,
        seed: int = 0,
    ):
        super().__init__(lr, batch_size, max_epochs, patience, seed)
        self.n_lags = n_lags
        self.fnn_hidden = fnn_hidden
        self.gru_hidden = gru_hidden
        self.dense_dim = dense_dim
        self.dropout = dropout
        validate_encoder_name(encoder)
        self.encoder = encoder

    def _build_model(self, n_features: int, rng: np.random.Generator) -> Module:
        return RFNNModel(
            n_features,
            n_lags=self.n_lags,
            fnn_hidden=self.fnn_hidden,
            gru_hidden=self.gru_hidden,
            dense_dim=self.dense_dim,
            dropout=self.dropout,
            encoder=self.encoder,
            rng=rng,
        )

    def fit(self, X, history, y, val: tuple | None = None) -> "RFNNRegressor":
        """``val`` is an optional (X_val, history_val, y_val) triple."""
        if np.asarray(history).shape[1] != self.n_lags:
            raise ValueError(f"history window must have {self.n_lags} columns")
        self._fit(X, history, y, val)
        return self

    def predict(self, X, history) -> np.ndarray:
        return self._predict(X, history)
