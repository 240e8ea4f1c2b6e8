"""A warm fine-tune over kept branch rows equals the plain head-side step.

``Env2VecRegressor.fine_tune`` takes the frozen-branch rows
``[v_ts, v_fs]`` as given (or computes them once) and its dropout mask
scales each gathered batch's ``v_fs`` in place. The reference here is
the plain step over rows computed from scratch: a fresh
``[v_ts, a * mask]`` per batch, so a mask that leaked into the kept rows
would show in a later epoch. Both must reach the same bytes over
generated batch sizes, including a lone last row, with the rows passed
in or computed.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Env2VecRegressor
from repro.core.model import PREDICTION_HEADS, _compile_branches
from repro.data import Environment
from repro.nn import Adam, Parameter, ops
from repro.nn.inference import predict_in_chunks
from repro.nn.losses import mse_grad
from repro.nn.optim import BETA1, BETA2, EPS
from repro.nn.training import TrainingHistory, run_epochs
from tests.strategies import DERANDOMIZED

BATCH = 16
KNOWN = [Environment("tb-a", "sut-a", "tc-a", "b1"), Environment("tb-b", "sut-a", "tc-b", "b1")]
ARRIVING = [Environment("tb-a", "sut-a", "tc-a", "b2"), Environment("tb-c", "sut-b", "tc-a", "b2"), KNOWN[1]]


def _task(n: int, seed: int, environments):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    history = rng.standard_normal((n, 3))
    y = 40.0 + 3.0 * X[:, 0] + history[:, -1] + rng.standard_normal(n)
    return [environments[i % len(environments)] for i in range(n)], X, history, y


def _params(head: str, dropout: float) -> dict:
    return dict(
        n_lags=3, embedding_dim=4, fnn_hidden=6, gru_hidden=5, head=head, dropout=dropout,
        unknown_dropout=0.05, batch_size=BATCH, max_epochs=1, seed=2,
    )


@lru_cache(maxsize=None)
def _base(head: str, dropout: float) -> Env2VecRegressor:
    return Env2VecRegressor(**_params(head, dropout)).fit(*_task(40, 0, KNOWN))


def _plain_fine_tune(regressor, environments, X, history, y, *, epochs, adapt_embeddings_only):
    """``fine_tune`` with a fresh ``[v_ts, a * mask]`` per batch."""
    model = regressor.model
    rng = np.random.default_rng(regressor.seed + 1)
    model.reseed(rng)
    added = regressor.vocabulary.extend(list(dict.fromkeys(environments)))
    model.embeddings.grow_tables(added)
    inputs = regressor._batch(environments, X, history)
    targets = (y - regressor._y_mean) / regressor._y_std
    cf, scaled = inputs["cf"], inputs["history"]
    branches = _compile_branches(model)
    v_s = predict_in_chunks(branches, {"cf": cf, "history": scaled}, ops._CACHED_ROWS)
    width = model.encoder.output_dim
    params = model.head_side_parameters()
    trained = model.embeddings.parameters() if adapt_embeddings_only else params
    optimizer = Adam(trained, lr=regressor.lr * 0.3)

    def step(batch, batch_targets):
        rows = batch["v_s"]
        if len(batch_targets) == 1:
            rows = branches(cf[batch["row"]], scaled[batch["row"]])
        mask = model._dropout_mask(len(batch_targets))
        fresh = np.concatenate([rows[:, :width], rows[:, width:] if mask is None else rows[:, width:] * mask], axis=1)
        predicted, backward = model._head(fresh, batch["env"])
        loss, grad = mse_grad(predicted, batch_targets)
        _, grads = backward(grad, input_grad=False)
        for param, param_grad in zip(params, grads):
            param.grad = param_grad
        optimizer.step()
        return loss

    regressor.history_ = TrainingHistory()
    cached = {"v_s": v_s, "env": inputs["env"], "row": np.arange(len(targets))}
    for _ in run_epochs(
        model, step, cached, targets, regressor.history_,
        batch_size=min(regressor.batch_size, len(targets)), epochs=epochs, rng=rng,
    ):
        pass
    return regressor


@pytest.mark.parametrize("head", PREDICTION_HEADS)
@DERANDOMIZED
@given(
    n=st.sampled_from((1, BATCH - 1, BATCH + 1, 2 * BATCH + 1, 3 * BATCH)),
    dropout=st.sampled_from((0.0, 0.1)),
    adapt_embeddings_only=st.booleans(),
    rows_given=st.booleans(),
)
def test_warm_step_equals_the_plain_step(head, n, dropout, adapt_embeddings_only, rows_given):
    base = _base(head, dropout)
    data = _task(n, n + 7, ARRIVING)
    warm = base.copy().set_params(**_params(head, dropout))
    rows = base.branch_rows(data[1], data[2]) if rows_given else None
    kept = None if rows is None else rows.copy()
    warm.fine_tune(*data, epochs=2, adapt_embeddings_only=adapt_embeddings_only, branch_rows=rows)
    plain = _plain_fine_tune(
        base.copy().set_params(**_params(head, dropout)), *data,
        epochs=2, adapt_embeddings_only=adapt_embeddings_only,
    )
    assert warm.to_bytes() == plain.to_bytes()
    assert warm.history_.train_loss == plain.history_.train_loss
    if rows is not None:
        assert rows.tobytes() == kept.tobytes()


def test_branch_rows_must_align_with_the_windows():
    model = _base("hadamard", 0.1).copy()
    data = _task(20, 1, ARRIVING)
    with pytest.raises(ValueError, match="align"):
        model.fine_tune(*data, branch_rows=np.zeros((19, 11)))


def test_a_copy_equals_the_blob_round_trip_and_shares_nothing():
    base = _base("mlp", 0.1)
    blob = base.to_bytes()
    copy = base.copy()
    assert copy.to_bytes() == Env2VecRegressor.from_bytes(blob).to_bytes() == blob
    copy.set_params(**_params("mlp", 0.1)).fine_tune(*_task(30, 3, ARRIVING), epochs=1, adapt_embeddings_only=False)
    assert base.to_bytes() == blob
    assert base.vocabulary.vocabulary_sizes() != copy.vocabulary.vocabulary_sizes()


def _reference_adam(data, grads, lr, steps):
    """Adam as the textbook expressions, one fresh array per operation."""
    m, v = np.zeros_like(data), np.zeros_like(data)
    for t, grad in enumerate(grads[:steps], start=1):
        m = m * BETA1
        m += (1.0 - BETA1) * grad
        v = v * BETA2
        v += (1.0 - BETA2) * grad * grad
        data = data - lr * (m / (1.0 - BETA1**t)) / (np.sqrt(v / (1.0 - BETA2**t)) + EPS)
    return data


@DERANDOMIZED
@given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4), seed=st.integers(0, 2**16))
def test_adam_keeps_its_operation_order(sizes, seed):
    rng = np.random.default_rng(seed)
    start = [rng.standard_normal(size) for size in sizes]
    grads = [[rng.standard_normal(size) for _ in range(5)] for size in sizes]
    params = [Parameter(values.copy()) for values in start]
    optimizer = Adam(params, lr=0.01)
    for t in range(5):
        for k, param in enumerate(params):
            param.grad = grads[k][t]
        optimizer.step()
    for param, values, param_grads in zip(params, start, grads):
        assert param.data.tobytes() == _reference_adam(values, param_grads, 0.01, 5).tobytes()
