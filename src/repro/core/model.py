"""The Env2Vec deep-learning architecture (paper §3.1, §3.2, Appendix A).

Three input branches feed a combination layer:

- an **FNN** with one sigmoid hidden layer over the contextual features
  ``a_t`` produces ``v_fs``;
- a **sequence encoder** over the RU-history window
  ``{y_{p-n}, ..., y_{p-1}}`` produces ``v_ts`` — the paper's GRU (ReLU
  candidate activation, Appendix A) by default, or any variant from the
  :mod:`repro.nn.encoders` registry via ``encoder="lstm"``,
  ``"stacked"``, ``"bidirectional"``, ``"attention"``, ...;
- per-EM-field **embedding lookup tables** produce the concatenated
  environment embedding ``C = [ec^1, ..., ec^k]`` (eq. 1).

``v_s = [v_ts, v_fs]`` passes through a dense layer to ``v_d`` with
``dim(v_d) == dim(C)``, and the prediction is the sum of the Hadamard
product (eq. 2): ``y'_p = Σ v_d ⊙ C``. §3.2 notes two alternatives with
similar results — a bilinear form ``v_d · R · C`` and an MLP over
``[v_d, C]`` — both implemented here as ``head`` options and exercised by
the head ablation benchmark.

:class:`Env2VecModel` is the raw autograd module; :class:`Env2VecRegressor`
is the user-facing estimator handling vocabulary fitting, feature/target
standardization, training with early stopping, and inverse-scaled
prediction.
"""

from __future__ import annotations


import numpy as np

from ..data.environment import EM_FIELDS, Environment
from ..ml.base import Estimator
from ..ml.preprocessing import StandardScaler
from ..obs import active_profiler, get_observability
from ..nn import init as initializers
from ..nn import ops
from ..nn.encoders import create_encoder, validate_encoder_name
from ..nn.inference import (
    CompiledDense,
    EmbeddingRowCache,
    InferenceModel,
    compile_module,
    compile_plan,
    register_compiler,
    snapshot,
)
from ..nn.layers import Dense, Dropout, Module
from ..nn.tensor import Tensor, no_grad
from ..nn.training import EarlyStopping, Trainer, TrainingHistory
from .embeddings import EnvironmentEmbeddings, EnvironmentVocabulary

__all__ = ["Env2VecModel", "Env2VecRegressor", "PREDICTION_HEADS"]

PREDICTION_HEADS = ("hadamard", "bilinear", "mlp")

_OBS = get_observability()
_H_COMPILE = _OBS.histogram(
    "repro_model_compile_seconds",
    "Time for Env2VecRegressor.compile (snapshot + plan build).",
)
_M_PREDICTIONS = _OBS.counter(
    "repro_predictions_total", "Individual RU predictions served by Env2VecRegressor."
)


class Env2VecModel(Module):
    """FNN + sequence encoder + environment embeddings with a Hadamard head."""

    def __init__(
        self,
        n_features: int,
        n_lags: int,
        vocabulary: EnvironmentVocabulary,
        embedding_dim: int = 10,
        fnn_hidden: int = 64,
        gru_hidden: int = 16,
        dropout: float = 0.1,
        head: str = "hadamard",
        unknown_dropout: float = 0.0,
        encoder: str = "gru",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if head not in PREDICTION_HEADS:
            raise ValueError(f"unknown head {head!r}; choose from {PREDICTION_HEADS}")
        encoder_name = validate_encoder_name(encoder)
        if n_lags < 1:
            raise ValueError("n_lags must be >= 1")
        rng = initializers.ensure_rng(rng)
        self.n_features = n_features
        self.n_lags = n_lags
        self.head = head
        self.encoder_name = encoder_name
        # FNN branch: one sigmoid hidden layer (Appendix A).
        self.fnn = Dense(n_features, fnn_hidden, activation="sigmoid", rng=rng)
        self.fnn_dropout = Dropout(dropout, rng=rng)
        # Time-series branch over the univariate RU history: any registered
        # SequenceEncoder (the paper's GRU with ReLU candidate, Appendix A,
        # by default; the §6 attention extension keeps all hidden states and
        # pools them by additive attention).
        self.encoder = create_encoder(encoder_name, 1, gru_hidden, rng=rng)
        # Embedding branch (with <unk>-row training via unknown-dropout).
        self.embeddings = EnvironmentEmbeddings(
            vocabulary, embedding_dim, unknown_dropout=unknown_dropout, rng=rng
        )
        c_dim = self.embeddings.output_dim
        # Dense combination layer: v_s -> v_d with dim(v_d) == dim(C).
        self.combine = Dense(fnn_hidden + self.encoder.output_dim, c_dim, rng=rng)
        if head == "bilinear":
            from ..nn.layers import Parameter

            self.bilinear = Parameter(
                initializers.glorot_uniform((c_dim, c_dim), rng), name="bilinear"
            )
        elif head == "mlp":
            self.head_hidden = Dense(2 * c_dim, c_dim, activation="relu", rng=rng)
            self.head_out = Dense(c_dim, 1, rng=rng)

    def forward(self, cf: np.ndarray, history: np.ndarray, env: np.ndarray) -> Tensor:
        """Predict ``y'_p`` for a batch.

        ``cf``: (batch, n_features) contextual features;
        ``history``: (batch, n_lags) previous RU values, oldest first;
        ``env``: (batch, n_fields) integer EM ids.
        """
        cf = np.asarray(cf, dtype=np.float64)
        history = np.asarray(history, dtype=np.float64)
        if cf.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} contextual features, got {cf.shape[1]}")
        if history.shape[1] != self.n_lags:
            raise ValueError(f"expected history window of {self.n_lags}, got {history.shape[1]}")
        v_fs = self.fnn_dropout(self.fnn(Tensor(cf)))
        v_ts = self.encoder(Tensor(history[:, :, None]))
        v_s = Tensor.concat([v_ts, v_fs], axis=1)
        v_d = self.combine(v_s)
        c = self.embeddings(env)
        if self.head == "hadamard":
            return (v_d * c).sum(axis=1)
        if self.head == "bilinear":
            return ((v_d @ self.bilinear) * c).sum(axis=1)
        merged = Tensor.concat([v_d, c], axis=1)
        return self.head_out(self.head_hidden(merged)).reshape(-1)


@register_compiler(Env2VecModel)
def _compile_env2vec(model: Env2VecModel, dtype: np.dtype):
    """Compile rule for the full Env2Vec architecture.

    Mirrors :meth:`Env2VecModel.forward` in eval mode: dropout and
    unknown-dropout are elided, the time-series branch embeds the
    encoder's own registered plan (fused sequence kernels), and the
    embedding branch is served from an LRU :class:`EmbeddingRowCache`
    keyed by the env-id tuple.

    Below float64 the Hadamard head folds the combine layer into that
    cache: ``y = (v_s W + b) · C = v_s · (W C) + b · C``, so each
    environment's row is cached as ``[W C | b · C]`` and a prediction is
    one row-wise dot product instead of a GEMM plus the head (float32
    parity bound; float64 keeps the autograd op order and its bits).
    """
    fnn = CompiledDense(model.fnn, dtype)
    encoder = compile_plan(model.encoder, dtype)
    combine = CompiledDense(model.combine, dtype)
    head = model.head
    fold = head == "hadamard" and dtype != np.float64
    project = None
    if fold:
        project = np.hstack([model.combine.weight.data.T, model.combine.bias.data[:, None]])
    env_cache = EmbeddingRowCache(model.embeddings.table_arrays(), dtype, project=project)
    if head == "bilinear":
        bilinear = snapshot(model.bilinear.data, dtype)
    elif head == "mlp":
        head_hidden = CompiledDense(model.head_hidden, dtype)
        head_out = CompiledDense(model.head_out, dtype)
    n_features, n_lags = model.n_features, model.n_lags

    def forward(cf: np.ndarray, history: np.ndarray, env: np.ndarray) -> np.ndarray:
        cf = np.asarray(cf, dtype=dtype)
        history = np.asarray(history, dtype=dtype)
        if cf.shape[1] != n_features:
            raise ValueError(f"expected {n_features} contextual features, got {cf.shape[1]}")
        if history.shape[1] != n_lags:
            raise ValueError(f"expected history window of {n_lags}, got {history.shape[1]}")
        prof = active_profiler()
        if prof is not None:
            return _profiled_forward(prof, cf, history, env)
        v_fs = fnn(cf)
        v_ts = encoder(history[:, :, None])
        if fold:
            return _folded_head(np.concatenate([v_ts, v_fs], axis=1), env_cache.rows(env))
        v_d = combine(np.concatenate([v_ts, v_fs], axis=1))
        c = env_cache.rows(env)
        if head == "hadamard":
            return ops.hadamard_head(v_d, c)
        if head == "bilinear":
            return ops.bilinear_head(v_d, bilinear, c)[0]
        return head_out(head_hidden(np.concatenate([v_d, c], axis=1))).reshape(-1)

    def _profiled_forward(prof, cf: np.ndarray, history: np.ndarray, env: np.ndarray) -> np.ndarray:
        # Same ops, same order as the fast path — only timing added.
        with prof.op("fnn"):
            v_fs = fnn(cf)
        with prof.op("encoder"):
            v_ts = encoder(history[:, :, None])
        with prof.op("combine"):
            v_s = np.concatenate([v_ts, v_fs], axis=1)
            if not fold:
                v_d = combine(v_s)
        with prof.op("env_rows"):
            c = env_cache.rows(env)
        with prof.op("head"):
            if fold:
                return _folded_head(v_s, c)
            if head == "hadamard":
                return ops.hadamard_head(v_d, c)
            if head == "bilinear":
                return ops.bilinear_head(v_d, bilinear, c)[0]
            return head_out(head_hidden(np.concatenate([v_d, c], axis=1))).reshape(-1)

    forward.env_cache = env_cache
    return forward


def _folded_head(v_s: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``v_s · (W C) + b · C`` from cached ``[W C | b · C]`` rows."""
    y = np.einsum("ij,ij->i", v_s, rows[:, :-1])
    y += rows[:, -1]
    return y


def _legacy_encoder_name(hyper: dict) -> str:
    """Encoder name for a pre-registry blob, which stored the pair
    ``recurrent_unit`` ("gru"/"lstm") and ``use_attention`` instead."""
    unit = hyper.get("recurrent_unit") or "gru"
    if hyper.get("use_attention"):
        return {"gru": "attention", "lstm": "lstm_attention"}[unit]
    return validate_encoder_name(unit)


class Env2VecRegressor(Estimator):
    """High-level estimator: vocabulary + scaling + training + prediction.

    ``fit`` consumes per-sample environments plus aligned contextual
    features, RU-history windows, and targets (as produced by
    :func:`repro.data.windows.build_windows_multi`). The time-series
    branch is selected by ``encoder`` (any name from
    :func:`repro.nn.available_encoders`).
    """

    def __init__(
        self,
        n_lags: int = 3,
        embedding_dim: int = 10,
        fnn_hidden: int = 64,
        gru_hidden: int = 16,
        dropout: float = 0.1,
        head: str = "hadamard",
        unknown_dropout: float = 0.05,
        encoder: str = "gru",
        em_fields: tuple[str, ...] = EM_FIELDS,
        lr: float = 0.005,
        batch_size: int = 256,
        max_epochs: int = 60,
        patience: int = 8,
        seed: int = 0,
    ):
        self.n_lags = n_lags
        self.em_fields = tuple(em_fields)
        self.embedding_dim = embedding_dim
        self.fnn_hidden = fnn_hidden
        self.gru_hidden = gru_hidden
        self.dropout = dropout
        self.head = head
        self.unknown_dropout = unknown_dropout
        self.encoder = validate_encoder_name(encoder)
        self.lr = lr
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.seed = seed
        self.model: Env2VecModel | None = None
        self.vocabulary: EnvironmentVocabulary | None = None
        self.history_: TrainingHistory | None = None
        self._engine: InferenceModel | None = None

    # -- internals --------------------------------------------------------
    def _scale_inputs(self, X, history):
        X = self._x_scaler.transform(np.asarray(X, dtype=np.float64))
        history = (np.asarray(history, dtype=np.float64) - self._y_mean) / self._y_std
        return X, history

    def _batch(self, environments, X, history):
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        if not (len(environments) == len(X) == len(history)):
            raise ValueError("environments, X and history must be aligned")
        X, history = self._scale_inputs(X, history)
        env_ids = self.vocabulary.encode(list(environments))
        return {"cf": X, "history": history, "env": env_ids}

    # -- estimator API ------------------------------------------------------
    def fit(
        self,
        environments: list[Environment],
        X: np.ndarray,
        history: np.ndarray,
        y: np.ndarray,
        val: tuple[list[Environment], np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> "Env2VecRegressor":
        X = np.asarray(X, dtype=np.float64)
        history = np.asarray(history, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if not (len(environments) == len(X) == len(history) == len(y)):
            raise ValueError("environments, X, history and y must be aligned")
        if history.shape[1] != self.n_lags:
            raise ValueError(f"history window must have {self.n_lags} columns; got {history.shape[1]}")

        rng = np.random.default_rng(self.seed)
        self.vocabulary = EnvironmentVocabulary(fields=self.em_fields).fit(list(environments))
        self._x_scaler = StandardScaler().fit(X)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0

        self.model = Env2VecModel(
            n_features=X.shape[1],
            n_lags=self.n_lags,
            vocabulary=self.vocabulary,
            embedding_dim=self.embedding_dim,
            fnn_hidden=self.fnn_hidden,
            gru_hidden=self.gru_hidden,
            dropout=self.dropout,
            head=self.head,
            unknown_dropout=self.unknown_dropout,
            encoder=self.encoder,
            rng=rng,
        )
        inputs = self._batch(environments, X, history)
        targets = (y - self._y_mean) / self._y_std

        val_inputs = val_targets = None
        early_stopping = None
        if val is not None:
            val_envs, val_X, val_history, val_y = val
            val_inputs = self._batch(list(val_envs), val_X, val_history)
            val_targets = (np.asarray(val_y, dtype=np.float64) - self._y_mean) / self._y_std
            early_stopping = EarlyStopping(patience=self.patience)

        trainer = Trainer(
            self.model,
            loss="mse",
            lr=self.lr,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            early_stopping=early_stopping,
            rng=rng,
        )
        self.history_ = trainer.fit(inputs, targets, val_inputs, val_targets)
        self._engine = None  # weights changed; any compiled engine is stale
        self._fitted = True
        return self

    def compile(self, dtype=np.float64) -> InferenceModel:
        """Snapshot the fitted model into a tape-free inference engine.

        The engine is cached and reused by :meth:`predict` until the next
        ``fit``/``fine_tune`` invalidates it. Pass ``np.float32`` to halve
        the weight footprint (at float32 accuracy).
        """
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        with _H_COMPILE.time():
            self.model.eval()
            self._engine = compile_module(self.model, dtype=dtype)
        return self._engine

    def _ensure_engine(self) -> InferenceModel:
        if self._engine is None:
            self.compile()
        return self._engine

    def ensure_compiled(self, dtype=None) -> InferenceModel:
        """Compile on first use, else return the cached engine.

        The prediction pipeline calls this once per batch so scoring
        never pays the lazy first-predict compile mid-batch. With
        ``dtype`` set, the cached engine is recompiled if it was
        built at a different precision (serving callers pick float32 for
        batch throughput; float64 remains the default everywhere).
        """
        if dtype is not None and (self._engine is None or self._engine.dtype != np.dtype(dtype)):
            return self.compile(dtype=dtype)
        return self._ensure_engine()

    def predict(
        self,
        environments: list[Environment],
        X: np.ndarray,
        history: np.ndarray,
        compiled: bool = True,
    ) -> np.ndarray:
        """Inverse-scaled predictions for aligned environments/features/windows.

        By default this runs the compiled tape-free engine (compiling on
        first use). ``compiled=False`` keeps the autograd forward under
        ``no_grad`` — slower, retained as the parity/benchmark baseline.
        """
        batch = self._batch(environments, X, history)
        if compiled:
            scaled = self._ensure_engine().predict(batch, batch_size=self.batch_size)
        else:
            self.model.eval()
            outputs = []
            with no_grad():
                for start in range(0, len(X), self.batch_size):
                    chunk = {k: v[start : start + self.batch_size] for k, v in batch.items()}
                    outputs.append(self.model(**chunk).numpy())
            scaled = np.concatenate(outputs, axis=0)
        _M_PREDICTIONS.inc(len(scaled))
        return scaled * self._y_std + self._y_mean

    def embed_environments(self, environments: list[Environment]) -> np.ndarray:
        """Concatenated learned embeddings (for Figure 6-style analysis)."""
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.model.embeddings.embed_environments(list(environments))

    def fine_tune(
        self,
        environments: list[Environment],
        X: np.ndarray,
        history: np.ndarray,
        y: np.ndarray,
        epochs: int = 10,
        lr: float | None = None,
        adapt_embeddings_only: bool = True,
    ) -> "Env2VecRegressor":
        """Incrementally retrain on new data without starting over.

        §4.3 closes with: the reduced detection in unseen environments "is
        resolved by retraining Env2Vec incrementally with the new data from
        the environment." This grows the vocabulary and embedding tables
        for any new EM values (new rows start at the trained ``<unk>``
        embedding) and continues optimization on the new examples with a
        reduced learning rate. Feature/target scaling is kept from the
        original fit so old and new data remain comparable.

        With ``adapt_embeddings_only`` (the default) only the embedding
        tables receive updates: the FNN/GRU backbone already models the
        shared physics, and freezing it prevents a narrow batch of
        new-environment data from catastrophically shifting predictions for
        every other environment. Pass ``False`` for a full-parameter update
        (then the data should include replay examples from old
        environments).
        """
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        X = np.asarray(X, dtype=np.float64)
        history = np.asarray(history, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if not (len(environments) == len(X) == len(history) == len(y)):
            raise ValueError("environments, X, history and y must be aligned")

        added = self.vocabulary.extend(list(environments))
        self.model.embeddings.grow_tables(added)

        inputs = self._batch(environments, X, history)
        targets = (y - self._y_mean) / self._y_std
        if adapt_embeddings_only:
            parameters = list(self.model.embeddings.parameters())
        else:
            parameters = list(self.model.parameters())
        from ..nn.optim import Adam

        trainer = Trainer(
            self.model,
            loss="mse",
            optimizer=Adam(parameters, lr=lr if lr is not None else self.lr * 0.3),
            batch_size=min(self.batch_size, max(1, len(y))),
            max_epochs=epochs,
            rng=np.random.default_rng(self.seed + 1),
        )
        trainer.fit(inputs, targets)
        self._engine = None  # tables grew and weights moved; recompile lazily
        return self

    def coverage(self, environment: Environment) -> dict[str, bool]:
        """Which EM fields of an environment are known to the vocabulary."""
        if self.vocabulary is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.vocabulary.is_known(environment)

    # -- serialization (used by the workflow's model store) ----------------
    def to_bytes(self) -> bytes:
        """Serialize weights + vocabulary + scaling into one npz blob.

        §6: the full artifact ("a file containing the environment
        embeddings and the DL model") is what the training pipeline
        publishes over HTTP.
        """
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        from ..nn.serialize import save_model_bytes

        config = {
            "hyper": {
                "n_lags": self.n_lags,
                "embedding_dim": self.embedding_dim,
                "fnn_hidden": self.fnn_hidden,
                "gru_hidden": self.gru_hidden,
                "dropout": self.dropout,
                "head": self.head,
                "unknown_dropout": self.unknown_dropout,
                "encoder": self.encoder,
            },
            "n_features": self.model.n_features,
            "vocabulary": self.vocabulary.to_config(),
            "x_mean": self._x_scaler.mean_.tolist(),
            "x_scale": self._x_scaler.scale_.tolist(),
            "y_mean": self._y_mean,
            "y_std": self._y_std,
        }
        return save_model_bytes(self.model, config)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Env2VecRegressor":
        """Reconstruct a fitted regressor from :meth:`to_bytes` output.

        Construction runs under :func:`repro.nn.init.deferred_init`: every
        parameter is about to be overwritten by ``load_state_dict``, so the
        usual Glorot/orthogonal draws (a QR decomposition per recurrent
        kernel) would be thrown away. The deserialized regressor predicts
        through the compiled inference path directly — no Trainer needed.
        """
        from ..nn.serialize import load_model_bytes

        state, config = load_model_bytes(blob)
        hyper = config["hyper"]
        encoder_name = hyper.get("encoder") or _legacy_encoder_name(hyper)
        regressor = cls(
            n_lags=hyper["n_lags"],
            embedding_dim=hyper["embedding_dim"],
            fnn_hidden=hyper["fnn_hidden"],
            gru_hidden=hyper["gru_hidden"],
            dropout=hyper["dropout"],
            head=hyper["head"],
            unknown_dropout=hyper.get("unknown_dropout", 0.0),
            encoder=encoder_name,
        )
        regressor.vocabulary = EnvironmentVocabulary.from_config(config["vocabulary"])
        with initializers.deferred_init():
            regressor.model = Env2VecModel(
                n_features=config["n_features"],
                n_lags=hyper["n_lags"],
                vocabulary=regressor.vocabulary,
                embedding_dim=hyper["embedding_dim"],
                fnn_hidden=hyper["fnn_hidden"],
                gru_hidden=hyper["gru_hidden"],
                dropout=hyper["dropout"],
                head=hyper["head"],
                unknown_dropout=hyper.get("unknown_dropout", 0.0),
                encoder=encoder_name,
            )
        regressor.model.load_state_dict(state)
        scaler = StandardScaler()
        scaler.mean_ = np.asarray(config["x_mean"], dtype=np.float64)
        scaler.scale_ = np.asarray(config["x_scale"], dtype=np.float64)
        regressor._x_scaler = scaler
        regressor._y_mean = float(config["y_mean"])
        regressor._y_std = float(config["y_std"])
        regressor._fitted = True
        return regressor
