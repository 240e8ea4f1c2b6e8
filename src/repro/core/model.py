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
from ..obs import get_observability
from ..nn import init as initializers
from ..nn import ops
from ..nn.encoders import create_encoder, validate_encoder_name
from ..nn.inference import (
    CompiledDense,
    InferenceModel,
    compile_module,
    compile_plan,
    predict_in_chunks,
    register_compiler,
    snapshot,
)
from ..nn.layers import Dense, Dropout, Module
from ..nn.losses import mse_grad
from ..nn.optim import Adam
from ..nn.tensor import Tensor, apply_op, is_grad_enabled, no_grad
from ..nn.training import EarlyStopping, Trainer, TrainingHistory, run_epochs
from .embeddings import EnvironmentEmbeddings, EnvironmentVocabulary

__all__ = ["Env2VecModel", "Env2VecRegressor", "PREDICTION_HEADS"]

PREDICTION_HEADS = ("hadamard", "bilinear", "mlp")

_OBS = get_observability()
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

    def reseed(self, rng: np.random.Generator) -> None:
        """Draw dropout, ``<unk>``-dropout and table-growth noise from ``rng``."""
        self.fnn_dropout.rng = rng
        self.embeddings._rng = rng

    def forward(self, cf: np.ndarray, history: np.ndarray, env: np.ndarray) -> Tensor:
        """Predict ``y'_p`` for a batch.

        ``cf``: (batch, n_features) contextual features;
        ``history``: (batch, n_lags) previous RU values, oldest first;
        ``env``: (batch, n_fields) integer EM ids.

        Records two tape nodes: the encoder's, and one body node for the
        rest of the model (:meth:`_body`). The dropout mask is drawn
        before the encoder runs, the ``<unk>`` masks after it.
        """
        cf = np.asarray(cf, dtype=np.float64)
        history = np.asarray(history, dtype=np.float64)
        if cf.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} contextual features, got {cf.shape[1]}")
        if history.shape[1] != self.n_lags:
            raise ValueError(f"expected history window of {self.n_lags}, got {history.shape[1]}")
        mask = self._dropout_mask(len(cf)) if is_grad_enabled() else None
        v_ts = self.encoder(Tensor(history[:, :, None]))
        return self._body(cf, mask, v_ts, env)

    def _dropout_mask(self, n: int) -> np.ndarray | None:
        """The FNN dropout multiplier for ``n`` rows in training mode, else None."""
        dropout = self.fnn_dropout
        if dropout.training and dropout.rate > 0.0:
            return ops.dropout_mask((n, self.fnn.out_features), dropout.rate, dropout.rng)
        return None

    def _body(self, cf: np.ndarray, mask: np.ndarray | None, v_ts: Tensor, env: np.ndarray) -> Tensor:
        """FNN → dropout → concat → :meth:`_head` as one tape node.

        The arithmetic is the per-layer tape's, operation for operation
        (``ops`` kernels, the head's ``(v * C).sum(axis=1)``), so outputs
        and gradients are bitwise those of one node per layer. Activations
        the backward reads are fresh arrays; its temporaries are
        scratch, and it never forms the gradient of ``cf``.
        """
        fnn = self.fnn
        a, fnn_cache = ops.dense_forward(cf, fnn.weight.data, fnn.bias.data, fnn.activation_name)
        width = v_ts.shape[1]
        v_s = np.concatenate([v_ts.data, a], axis=1)
        if mask is not None:
            v_s[:, width:] *= mask
        y, head_backward = self._head(v_s, env)

        def backward(grad: np.ndarray) -> list:
            d_v_s, head_grads = head_backward(grad)
            d_a = d_v_s[:, width:]
            if mask is not None:
                (d_a,) = ops.dropout_backward(d_a, {"mask": mask})
            _, d_w_fnn, d_b_fnn = ops.dense_backward(d_a, fnn_cache, input_grad=False)
            return [d_v_s[:, :width], d_w_fnn, d_b_fnn, *head_grads]

        return apply_op((v_ts, fnn.weight, fnn.bias, *self.head_side_parameters()), y, backward)

    def head_side_parameters(self) -> list:
        """Everything after the encoder and FNN, in :meth:`_head`'s gradient
        order: combine, the embedding tables (field order), the head's own."""
        combine, embeddings = self.combine, self.embeddings
        tables = [embeddings.tables[field].weight for field in embeddings.vocabulary.fields]
        if self.head == "bilinear":
            head_params = [self.bilinear]
        elif self.head == "mlp":
            hidden, out = self.head_hidden, self.head_out
            head_params = [hidden.weight, hidden.bias, out.weight, out.bias]
        else:
            head_params = []
        return [combine.weight, combine.bias, *tables, *head_params]

    def _head(self, v_s: np.ndarray, env: np.ndarray):
        """combine → embeddings → head over ``v_s = [v_ts, v_fs]``.

        Returns ``(y, backward)``. ``backward(grad, input_grad=True)``
        returns ``(d_v_s, grads)``, ``grads`` aligned with
        :meth:`head_side_parameters`; ``d_v_s`` is None unless
        ``input_grad``. The ``<unk>`` draw happens here, in the forward.
        """
        combine, embeddings, head = self.combine, self.embeddings, self.head
        c, ids = embeddings.lookup(env)
        v_d, combine_cache = ops.dense_forward(v_s, combine.weight.data, combine.bias.data)
        if head == "hadamard":
            y = np.multiply(v_d, c, out=ops._scratch("head_product", *c.shape)).sum(axis=1)
        elif head == "bilinear":
            r = self.bilinear.data
            projected = v_d @ r
            y = np.multiply(projected, c, out=ops._scratch("head_product", *c.shape)).sum(axis=1)
        else:
            hidden, out = self.head_hidden, self.head_out
            h, hidden_cache = ops.dense_forward(
                np.concatenate([v_d, c], axis=1), hidden.weight.data, hidden.bias.data,
                hidden.activation_name,
            )
            o, out_cache = ops.dense_forward(h, out.weight.data, out.bias.data)
            y = o.reshape(-1)

        def backward(grad: np.ndarray, input_grad: bool = True) -> tuple:
            if head == "hadamard":
                d_v_d, d_c = ops.hadamard_head_backward(grad, v_d, c)
                head_grads = ()
            elif head == "bilinear":
                d_v_d, d_r, d_c = ops.bilinear_head_backward(grad, v_d, r, c, projected)
                head_grads = (d_r,)
            else:
                d_h, d_w_out, d_b_out = ops.dense_backward(grad.reshape(-1, 1), out_cache)
                d_merged, d_w_hidden, d_b_hidden = ops.dense_backward(d_h, hidden_cache)
                d_v_d, d_c = d_merged[:, : c.shape[1]], d_merged[:, c.shape[1] :]
                head_grads = (d_w_hidden, d_b_hidden, d_w_out, d_b_out)
            d_v_s, d_w_combine, d_b_combine = ops.dense_backward(
                d_v_d, combine_cache, input_grad=input_grad
            )
            return d_v_s, [d_w_combine, d_b_combine, *embeddings.table_grads(d_c, ids), *head_grads]

        return y, backward


def _compile_branches(model: Env2VecModel):
    """The compiled branch half: ``branches(cf, history) → v_s``, the
    rows ``[v_ts, v_fs]`` of the encoder and the FNN, as a fresh array."""
    fnn = CompiledDense(model.fnn)
    encoder = compile_plan(model.encoder)
    n_features, n_lags = model.n_features, model.n_lags
    dtype = fnn.weight.dtype

    def branches(cf: np.ndarray, history: np.ndarray) -> np.ndarray:
        cf = np.asarray(cf, dtype=dtype)
        history = np.asarray(history, dtype=dtype)
        if cf.shape[1] != n_features:
            raise ValueError(f"expected {n_features} contextual features, got {cf.shape[1]}")
        if history.shape[1] != n_lags:
            raise ValueError(f"expected history window of {n_lags}, got {history.shape[1]}")
        v_fs = fnn(cf)
        v_ts = encoder(history[:, :, None])
        return np.concatenate([v_ts, v_fs], axis=1)

    return branches


def _compile_head(model: Env2VecModel):
    """The compiled head half: ``head(v_s, env) → y``, combine layer,
    embedding gather and prediction head over branch rows."""
    combine = CompiledDense(model.combine)
    head = model.head
    stacked, offsets, sizes = model.embeddings.stacked_tables()
    n_fields = len(offsets)
    if head == "bilinear":
        bilinear = snapshot(model.bilinear.data)
    elif head == "mlp":
        head_hidden = CompiledDense(model.head_hidden)
        head_out = CompiledDense(model.head_out)

    def run_head(v_s: np.ndarray, env: np.ndarray) -> np.ndarray:
        v_d = combine(v_s)
        env = np.asarray(env, dtype=np.int64)
        if env.ndim != 2 or env.shape[1] != n_fields:
            raise ValueError(f"expected ids of shape (n, {n_fields}); got {env.shape}")
        c = ops.stacked_embedding_forward(stacked, offsets, sizes, env)
        if head == "hadamard":
            return ops.hadamard_head(v_d, c)
        if head == "bilinear":
            return ops.bilinear_head(v_d, bilinear, c)[0]
        return head_out(head_hidden(np.concatenate([v_d, c], axis=1))).reshape(-1)

    return run_head


@register_compiler(Env2VecModel)
def _compile_env2vec(model: Env2VecModel):
    """Compile rule for the full Env2Vec architecture: one plan, two halves.

    Mirrors :meth:`Env2VecModel.forward` in eval mode as
    ``head(branches(cf, history), env)``, and exposes both halves as the
    plan's ``branches`` and ``head`` attributes. Dropout and
    unknown-dropout are elided; ``branches`` runs the FNN and the
    encoder's own registered plan (fused sequence kernels) into the rows
    ``v_s``; ``head`` runs the combine layer, the embedding branch (one
    range check and one ``take`` over a snapshot of the field tables
    stacked row-wise, :func:`repro.nn.ops.stacked_embedding_forward`,
    the gather :meth:`EnvironmentEmbeddings.lookup` trains with) and the
    head. While the encoder, the FNN and the scalers stay as they are,
    a row's ``v_s`` does too, so a caller may keep it and run only the
    head.
    """
    branches, head = _compile_branches(model), _compile_head(model)

    def forward(cf: np.ndarray, history: np.ndarray, env: np.ndarray) -> np.ndarray:
        return head(branches(cf, history), env)

    forward.branches, forward.head = branches, head
    return forward


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
        return self._encoded_batch(self.vocabulary.encode(list(environments)), X, history)

    def _encoded_batch(self, env_ids, X, history):
        X, history = self._scale_inputs(X, history)
        return {"cf": X, "history": history, "env": env_ids}

    def _training_arrays(self, environments, X, history, y):
        X = np.asarray(X, dtype=np.float64)
        history = np.asarray(history, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if not (len(environments) == len(X) == len(history) == len(y)):
            raise ValueError("environments, X, history and y must be aligned")
        if history.shape[1] != self.n_lags:
            raise ValueError(f"history window must have {self.n_lags} columns; got {history.shape[1]}")
        return X, history, y

    def _train(self, environments, X, history, y, *, parameters, lr, batch_size, epochs, rng, val=None):
        """``fit``'s training path (``fine_tune`` trains over cached branches).

        Scales inputs and targets with the fitted scalers and runs MSE +
        Adam over ``parameters``, early-stopping on ``val`` when given.
        """
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
            optimizer=Adam(parameters, lr=lr),
            batch_size=batch_size,
            max_epochs=epochs,
            early_stopping=early_stopping,
            rng=rng,
        )
        self.history_ = trainer.fit(inputs, targets, val_inputs, val_targets)
        self._engine = None  # weights changed; any compiled engine is stale

    # -- estimator API ------------------------------------------------------
    def fit(
        self,
        environments: list[Environment],
        X: np.ndarray,
        history: np.ndarray,
        y: np.ndarray,
        val: tuple[list[Environment], np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> "Env2VecRegressor":
        X, history, y = self._training_arrays(environments, X, history, y)
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
        self._train(
            environments, X, history, y,
            parameters=self.model.parameters(),
            lr=self.lr,
            batch_size=self.batch_size,
            epochs=self.max_epochs,
            rng=rng,
            val=val,
        )
        self._fitted = True
        return self

    def compile(self) -> InferenceModel:
        """Snapshot the fitted model into a tape-free inference engine.

        The engine computes in the weights' float64. Through the ``mlp``
        head its outputs are bitwise equal to the autograd forward in
        eval mode; the ``hadamard`` and ``bilinear`` heads sum with
        ``einsum`` where autograd sums ``(v * C).sum(axis=1)``, and
        differ from it by up to about 2e-17. It is cached and reused by
        :meth:`predict` until the next ``fit``/``fine_tune`` invalidates
        it.
        """
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        self.model.eval()
        self._engine = compile_module(self.model)
        return self._engine

    def ensure_compiled(self) -> InferenceModel:
        """Compile on first use, else return the cached engine.

        The prediction pipeline calls this once per batch so scoring
        never pays the lazy first-predict compile mid-batch.
        """
        if self._engine is None:
            self.compile()
        return self._engine

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
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        env_ids = self.vocabulary.encode(list(environments))
        return self._predict_encoded(env_ids, X, history, compiled=compiled)

    def _predict_encoded(
        self, env_ids: np.ndarray, X: np.ndarray, history: np.ndarray, compiled: bool = True
    ) -> np.ndarray:
        """:meth:`predict` on an already-encoded ``(n, n_fields)`` id matrix.

        The prediction pipeline encodes one environment per *execution*
        and repeats the id rows over its windows, so scoring never hashes
        an environment per window. The compiled forward runs in chunks of
        ``ops._CACHED_ROWS`` (1024) rows, not the training ``batch_size``,
        so a chain's calibration is one forward; every kernel is row-wise,
        so the chunk size does not change a byte.
        """
        if not (len(env_ids) == len(X) == len(history)):
            raise ValueError("environments, X and history must be aligned")
        batch = self._encoded_batch(env_ids, X, history)
        if compiled:
            scaled = self.ensure_compiled().predict(batch, batch_size=ops._CACHED_ROWS)
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

    def branch_rows(self, X: np.ndarray, history: np.ndarray) -> np.ndarray:
        """Every window's frozen-branch row ``[v_ts, v_fs]``.

        The scaled inputs run through the compiled plan's branch half in
        :meth:`_predict_encoded`'s chunks, a lone row as two copies, so
        each row has the bytes it gets inside any batch. The rows stay
        valid while the encoder, the FNN and the scalers do: through
        warm fine-tunes, until the next ``fit``.
        """
        X, history = self._scale_inputs(X, history)
        return self.ensure_compiled().predict({"cf": X, "history": history}, ops._CACHED_ROWS, "branches")

    def head_predict(self, env_ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """:meth:`_predict_encoded` from :meth:`branch_rows` output.

        Only the compiled plan's head half runs, in the same chunks and
        with the same lone-row rule, so the predictions are bitwise
        those of the whole forward over the rows' windows.
        """
        if len(env_ids) != len(rows):
            raise ValueError("environments and branch rows must be aligned")
        scaled = self.ensure_compiled().predict({"v_s": rows, "env": env_ids}, ops._CACHED_ROWS, "head")
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
        branch_rows: np.ndarray | None = None,
    ) -> "Env2VecRegressor":
        """Incrementally retrain on new data without starting over.

        §4.3 closes with: the reduced detection in unseen environments "is
        resolved by retraining Env2Vec incrementally with the new data from
        the environment." This grows the vocabulary and embedding tables
        for any new EM values (new rows start at the trained ``<unk>``
        embedding) and continues optimization on the new examples.
        Feature/target scaling is kept from the original fit so old and
        new data remain comparable. ``lr`` defaults to 0.3 × the fit's
        rate; the training pipeline's warm days pass the fit's own.

        The two feature branches, the sequence encoder and the FNN, stay
        frozen either way: they already model the shared physics, and
        freezing them keeps a narrow batch of new-environment data from
        shifting predictions for every other environment. What trains:

        - ``adapt_embeddings_only=True`` (the default): the embedding
          tables only;
        - ``False``: everything after the two branches, i.e. the combine
          layer, the tables and the head's own parameters (``R`` for the
          bilinear head, both layers of the ``mlp`` head). The data
          should then include replay examples from old environments.

        The branch rows ``[v_ts, v_fs]`` are constants, computed once by
        the compiled plan's branch half, or passed in as ``branch_rows``
        when the caller kept them (:meth:`branch_rows` of this model or
        of one with the same encoder, FNN and scalers). Each step then
        runs only :meth:`Env2VecModel._head` and its hand-written
        backward, with no tape; the FNN dropout mask multiplies the
        gathered batch's ``v_fs`` in place. Every step is bitwise
        the autograd step over the same parameters: the dropout mask is
        drawn before the ``<unk>`` masks, as the model's forward draws
        them; ``history_`` and :class:`TrainingDiverged` follow
        ``Trainer.fit``.

        Every random draw (shuffling, dropout, ``<unk>``-dropout and the
        new rows' noise) comes from one generator seeded by ``seed + 1``,
        so a deserialized copy given the same ``seed``, ``lr`` and
        ``batch_size`` fine-tunes to the same bytes as the original.
        ``history_`` then holds the fine-tune's loss curve.
        """
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        X, history, y = self._training_arrays(environments, X, history, y)
        if branch_rows is not None and len(branch_rows) != len(y):
            raise ValueError("branch_rows must align with the windows")
        model = self.model
        rng = np.random.default_rng(self.seed + 1)
        model.reseed(rng)
        # Each distinct environment once, in first-occurrence order, which
        # keeps every field's new values (and so their ids) in that order.
        added = self.vocabulary.extend(list(dict.fromkeys(environments)))
        model.embeddings.grow_tables(added)
        inputs = self._batch(environments, X, history)
        targets = (y - self._y_mean) / self._y_std
        cf, scaled_history = inputs["cf"], inputs["history"]
        branches = _compile_branches(model)
        if branch_rows is None:
            branch_rows = predict_in_chunks(
                branches, {"cf": cf, "history": scaled_history}, ops._CACHED_ROWS
            )
        params = model.head_side_parameters()
        trained = model.embeddings.parameters() if adapt_embeddings_only else params
        optimizer = Adam(trained, lr=lr if lr is not None else self.lr * 0.3)
        width = model.encoder.output_dim
        n = len(targets)

        def step(batch: dict, batch_targets: np.ndarray) -> float:
            v_s = batch["v_s"]  # a gathered copy: the mask may scale it in place
            if len(batch_targets) == 1:
                # A lone row: the autograd forward multiplies it by gemv,
                # whose bytes differ from the blocks' gemm.
                row = batch["row"]
                v_s = branches(cf[row], scaled_history[row])
            mask = model._dropout_mask(len(batch_targets))
            if mask is not None:
                v_s[:, width:] *= mask
            predicted, backward = model._head(v_s, batch["env"])
            loss, grad = mse_grad(predicted, batch_targets)
            _, grads = backward(grad, input_grad=False)
            for param, param_grad in zip(params, grads):
                param.grad = param_grad
            optimizer.step()
            return loss

        cached = {"v_s": branch_rows, "env": inputs["env"], "row": np.arange(n)}
        self.history_ = TrainingHistory()
        for _ in run_epochs(
            model, step, cached, targets, self.history_,
            batch_size=min(self.batch_size, max(1, n)), epochs=epochs, rng=rng,
        ):
            pass
        self._engine = None  # weights changed; any compiled engine is stale
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

        return save_model_bytes(self.model, self._config())

    def _config(self) -> dict:
        """Everything but the weights, as :meth:`to_bytes` stores it."""
        return {
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

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Env2VecRegressor":
        """Reconstruct a fitted regressor from :meth:`to_bytes` output.

        The deserialized regressor predicts through the compiled
        inference path directly — no Trainer needed.
        """
        from ..nn.serialize import load_model_bytes

        return cls._restore(*load_model_bytes(blob))

    def copy(self) -> "Env2VecRegressor":
        """A fitted copy sharing no mutable state with this regressor.

        It equals ``from_bytes(to_bytes())`` without the npz round trip:
        the same architecture, weights, vocabulary and scalers, and the
        constructor defaults for the training parameters. The training
        pipeline's warm days fine-tune such a copy of the serving model.
        """
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self._restore(self.model.state_dict(), self._config())

    @classmethod
    def _restore(cls, state: dict, config: dict) -> "Env2VecRegressor":
        """A fitted regressor from a state dict and :meth:`_config`.

        Construction runs under :func:`repro.nn.init.deferred_init`: every
        parameter is about to be overwritten by ``load_state_dict``, so the
        usual Glorot/orthogonal draws (a QR decomposition per recurrent
        kernel) would be thrown away.
        """
        hyper = config["hyper"]
        regressor = cls(
            n_lags=hyper["n_lags"],
            embedding_dim=hyper["embedding_dim"],
            fnn_hidden=hyper["fnn_hidden"],
            gru_hidden=hyper["gru_hidden"],
            dropout=hyper["dropout"],
            head=hyper["head"],
            unknown_dropout=hyper["unknown_dropout"],
            encoder=hyper["encoder"],
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
                unknown_dropout=hyper["unknown_dropout"],
                encoder=hyper["encoder"],
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
