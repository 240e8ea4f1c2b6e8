"""Fine-tuning trains the head side over cached encoder and FNN outputs.

``Env2VecRegressor.fine_tune`` runs the frozen encoder and FNN once, by
their compiled plans in row blocks, then trains the combine layer, the
embedding tables and the head (or the tables alone) without a tape.
Every case must be bitwise the autograd ``_train`` over the same
parameters, prepared as ``fine_tune`` prepares it: model bytes and loss
history. The window totals sit around the batch size (a one-row last
batch included) and around the 1024-row caching block.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Env2VecRegressor
from repro.core.model import PREDICTION_HEADS
from repro.data import Environment
from repro.nn import TrainingDiverged, available_encoders
from repro.nn.training import _M_BATCHES, _M_EPOCHS
from tests.strategies import CHUNK_BOUNDARY_TOTALS, DERANDOMIZED

BATCH = 16
#: One short of, exactly, and one row over the batch size (a lone last
#: batch), twice over plus one, and the caching block's boundaries.
WINDOW_TOTALS = (BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 1, *CHUNK_BOUNDARY_TOTALS)
KNOWN = [Environment("tb-a", "sut-a", "tc-a", "b1"), Environment("tb-b", "sut-a", "tc-b", "b1")]
#: New builds (grown rows), a new testbed and SUT, and a known environment.
ARRIVING = [
    Environment("tb-a", "sut-a", "tc-a", "b2"),
    Environment("tb-c", "sut-b", "tc-a", "b2"),
    KNOWN[1],
]


def _task(n: int, seed: int, environments: list[Environment]):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    history = rng.standard_normal((n, 3))
    y = 40.0 + 3.0 * X[:, 0] + history[:, -1] + rng.standard_normal(n)
    return [environments[i % len(environments)] for i in range(n)], X, history, y


def _params(encoder: str, head: str, dropout: float, unknown_dropout: float) -> dict:
    return dict(
        n_lags=3, embedding_dim=4, fnn_hidden=6, gru_hidden=5, encoder=encoder, head=head,
        dropout=dropout, unknown_dropout=unknown_dropout, batch_size=BATCH, max_epochs=1, seed=2,
    )


@lru_cache(maxsize=None)
def _base(encoder: str, head: str, dropout: float, unknown_dropout: float) -> bytes:
    params = _params(encoder, head, dropout, unknown_dropout)
    return Env2VecRegressor(**params).fit(*_task(40, 0, KNOWN)).to_bytes()


def _copy(blob: bytes, params: dict) -> Env2VecRegressor:
    return Env2VecRegressor.from_bytes(blob).set_params(**params)


def _autograd_fine_tune(model, environments, X, history, y, *, epochs, adapt_embeddings_only):
    """``fine_tune``'s preparation, then the tape-based ``_train``."""
    rng = np.random.default_rng(model.seed + 1)
    model.model.reseed(rng)
    added = model.vocabulary.extend(list(dict.fromkeys(environments)))
    model.model.embeddings.grow_tables(added)
    trained = (
        model.model.embeddings.parameters()
        if adapt_embeddings_only
        else model.model.head_side_parameters()
    )
    model._train(
        environments, X, history, y,
        parameters=trained, lr=model.lr * 0.3, batch_size=min(model.batch_size, len(y)),
        epochs=epochs, rng=rng,
    )
    return model


@pytest.mark.parametrize("head", PREDICTION_HEADS)
@pytest.mark.parametrize("encoder", available_encoders())
@DERANDOMIZED
@given(
    dropout=st.sampled_from((0.0, 0.1)),
    unknown_dropout=st.sampled_from((0.0, 0.05)),
    adapt_embeddings_only=st.booleans(),
    n=st.sampled_from(WINDOW_TOTALS),
)
def test_cached_fine_tune_is_bitwise_the_autograd_one(
    encoder, head, dropout, unknown_dropout, adapt_embeddings_only, n
):
    params = _params(encoder, head, dropout, unknown_dropout)
    blob = _base(encoder, head, dropout, unknown_dropout)
    data = _task(n, n, ARRIVING)
    cached = _copy(blob, params).fine_tune(
        *data, epochs=2, adapt_embeddings_only=adapt_embeddings_only
    )
    reference = _autograd_fine_tune(
        _copy(blob, params), *data, epochs=2, adapt_embeddings_only=adapt_embeddings_only
    )
    assert cached.to_bytes() == reference.to_bytes()
    assert cached.history_.train_loss == reference.history_.train_loss


@pytest.mark.parametrize("adapt_embeddings_only", [True, False])
def test_encoder_and_fnn_stay_byte_identical(adapt_embeddings_only):
    params = _params("gru", "mlp", 0.1, 0.05)
    model = _copy(_base("gru", "mlp", 0.1, 0.05), params)
    before = model.model.state_dict()
    model.fine_tune(*_task(50, 3, ARRIVING), epochs=3, adapt_embeddings_only=adapt_embeddings_only)
    after = model.model.state_dict()
    frozen = [key for key in before if key.startswith(("encoder.", "fnn."))]
    assert frozen and all(after[key].tobytes() == before[key].tobytes() for key in frozen)
    head_side = "embeddings." if adapt_embeddings_only else ("embeddings.", "combine.", "head_")
    trained = [key for key in before if key.startswith(head_side)]
    assert all(
        after[key].shape != before[key].shape or (after[key] != before[key]).any()
        for key in trained
    )


def test_a_nan_target_raises_training_diverged():
    model = _copy(_base("gru", "hadamard", 0.1, 0.05), _params("gru", "hadamard", 0.1, 0.05))
    environments, X, history, y = _task(40, 4, ARRIVING)
    y[7] = np.nan
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        model.fine_tune(environments, X, history, y, epochs=3, adapt_embeddings_only=False)


def test_no_windows_is_refused_before_training():
    model = _copy(_base("gru", "hadamard", 0.1, 0.05), _params("gru", "hadamard", 0.1, 0.05))
    with pytest.raises(ValueError, match="empty"):
        model.fine_tune([], np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))


def test_a_fine_tune_counts_its_epochs_and_batches():
    model = _copy(_base("gru", "hadamard", 0.1, 0.05), _params("gru", "hadamard", 0.1, 0.05))
    n, epochs = 2 * BATCH + 3, 3
    batches, epochs_before = _M_BATCHES.value, _M_EPOCHS.value
    model.fine_tune(*_task(n, 5, ARRIVING), epochs=epochs, adapt_embeddings_only=False)
    assert _M_BATCHES.value - batches == epochs * -(-n // BATCH)
    assert _M_EPOCHS.value - epochs_before == epochs
    assert model.history_.epochs_run == epochs
