"""The Env2Vec body node and the MSE node are bitwise the per-layer tape.

``Env2VecModel.forward`` records the encoder's node(s) plus one body node
(FNN → dropout → concat → combine → embeddings → head), and
``mse_loss`` is one node. Both must reproduce the composition of one
node per layer that they replaced, byte for byte: outputs, every
parameter's gradient, and the random draws (dropout mask before the
encoder, one ``<unk>`` mask per field after it). The reference below is
that composition, built from the layer modules and elementary tape ops.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.embeddings import EnvironmentVocabulary
from repro.core.model import PREDICTION_HEADS, Env2VecModel
from repro.data import Environment
from repro.data.windows import build_windows
from repro.nn import Tensor, available_encoders, mse_loss, no_grad
from tests.strategies import DERANDOMIZED, environment_pool, execution_batches

N_FEATURES = 3
N_LAGS = 3
KNOWN = [
    Environment("tb-a", "sut-a", "tc-a", "b1"),
    Environment("tb-b", "sut-b", "tc-b", "b2"),
    Environment("tb-c", "sut-a", "tc-b", "b3"),
]
POOL = environment_pool(KNOWN)
VOCABULARY = EnvironmentVocabulary().fit(KNOWN)


def _model(encoder: str, head: str, seed: int = 0) -> Env2VecModel:
    return Env2VecModel(
        N_FEATURES, N_LAGS, VOCABULARY, embedding_dim=4, fnn_hidden=6, gru_hidden=5,
        dropout=0.1, head=head, unknown_dropout=0.05, encoder=encoder,
        rng=np.random.default_rng(seed),
    )


def reference_embeddings(embeddings, ids):
    """One ``Embedding`` node per field and a concat node, ``<unk>`` by ``np.where``."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] != len(embeddings.vocabulary.fields):
        raise ValueError(f"bad ids shape {ids.shape}")
    pieces = []
    for i, field in enumerate(embeddings.vocabulary.fields):
        column = ids[:, i]
        if embeddings.training and embeddings.unknown_dropout > 0.0:
            unknown_id = embeddings.tables[field].num_embeddings - 1
            mask = embeddings._rng.random(len(column)) < embeddings.unknown_dropout
            column = np.where(mask, unknown_id, column)
        pieces.append(embeddings.tables[field](column))
    return Tensor.concat(pieces, axis=1)


def reference_forward(model, cf, history, env):
    """The model as one tape node per layer."""
    cf = np.asarray(cf, dtype=np.float64)
    history = np.asarray(history, dtype=np.float64)
    v_fs = model.fnn_dropout(model.fnn(Tensor(cf)))
    v_ts = model.encoder(Tensor(history[:, :, None]))
    v_d = model.combine(Tensor.concat([v_ts, v_fs], axis=1))
    c = reference_embeddings(model.embeddings, env)
    if model.head == "hadamard":
        return (v_d * c).sum(axis=1)
    if model.head == "bilinear":
        return ((v_d @ model.bilinear) * c).sum(axis=1)
    merged = Tensor.concat([v_d, c], axis=1)
    return model.head_out(model.head_hidden(merged)).reshape(-1)


def reference_mse(predicted, target):
    diff = predicted - target
    return (diff * diff).mean()


def _batch(executions):
    parts = [build_windows(e.features, e.cpu, N_LAGS) for e in executions]
    env = np.concatenate([
        VOCABULARY.encode([e.environment] * len(y)) for e, (_, _, y) in zip(executions, parts)
    ])
    cf = np.concatenate([X for X, _, _ in parts])
    history = np.concatenate([h for _, h, _ in parts]) / 50.0
    return {"cf": cf, "history": history, "env": env}


def _run(forward, model, batch, *, seed, training, grad, upstream):
    """Output bytes, per-parameter gradient bytes and the generator state after."""
    model.train() if training else model.eval()
    model.zero_grad()
    model.reseed(np.random.default_rng(seed))
    if grad:
        y = forward(model, **batch)
        y.backward(upstream)
    else:
        with no_grad():
            y = forward(model, **batch)
    grads = {
        name: None if p.grad is None else p.grad.tobytes() for name, p in model.named_parameters()
    }
    return y.numpy().tobytes(), grads, model.fnn_dropout.rng.bit_generator.state


@pytest.mark.parametrize("head", PREDICTION_HEADS)
@pytest.mark.parametrize("encoder", available_encoders())
@DERANDOMIZED
@given(
    executions=execution_batches(POOL, total=17, n_features=N_FEATURES, n_lags=N_LAGS),
    seed=st.integers(0, 2**32 - 1),
)
def test_body_node_is_bitwise_the_per_layer_tape(encoder, head, executions, seed):
    model = _model(encoder, head)
    batch = _batch(executions)
    upstream = np.random.default_rng(seed).standard_normal(len(batch["cf"]))
    fresh = np.random.default_rng(seed).bit_generator.state
    for dropout in (0.0, 0.1):
        for unknown in (0.0, 0.05):
            model.fnn_dropout.rate = dropout
            model.embeddings.unknown_dropout = unknown
            for training in (True, False):
                for grad in (True, False):
                    kwargs = dict(seed=seed, training=training, grad=grad, upstream=upstream)
                    expected = _run(reference_forward, model, batch, **kwargs)
                    got = _run(Env2VecModel.forward, model, batch, **kwargs)
                    case = (dropout, unknown, training, grad)
                    assert got[0] == expected[0], case
                    assert got[1] == expected[1], case
                    assert got[2] == expected[2], case
                    draws = training and (unknown > 0 or (dropout > 0 and grad))
                    assert (got[2] != fresh) == draws, case


@DERANDOMIZED
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    target_grad=st.booleans(),
    upstream=st.sampled_from([1.0, 0.37, -2.5]),
)
def test_mse_node_is_bitwise_the_elementary_tape(n, seed, target_grad, upstream):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n), rng.standard_normal(n)
    results = []
    for loss_fn in (reference_mse, mse_loss):
        predicted = Tensor(values[0], requires_grad=True)
        target = Tensor(values[1], requires_grad=target_grad)
        loss = loss_fn(predicted, target)
        loss.backward(np.array(upstream))
        results.append((
            loss.numpy().tobytes(), predicted.grad.tobytes(),
            None if target.grad is None else target.grad.tobytes(),
        ))
    assert results[1] == results[0]


@pytest.mark.parametrize("head", PREDICTION_HEADS)
def test_body_node_gradients_match_finite_differences(head):
    """Training mode, with the dropout and ``<unk>`` masks pinned by
    reseeding before every forward (all under grad mode: ``no_grad``
    would skip the dropout draw)."""
    model = _model("gru", head, seed=4)
    rng = np.random.default_rng(5)
    n = 9
    batch = {
        "cf": rng.standard_normal((n, N_FEATURES)),
        "history": rng.standard_normal((n, N_LAGS)),
        "env": np.stack([rng.integers(0, size, n) for size in VOCABULARY.vocabulary_sizes().values()], axis=1),
    }
    weights = rng.standard_normal(n)

    def loss():
        model.reseed(np.random.default_rng(11))
        return model(**batch)

    model.train()
    model.zero_grad()
    loss().backward(weights)
    for name, param in model.named_parameters():
        analytic = param.grad
        for index in rng.choice(param.size, size=min(3, param.size), replace=False):
            index = np.unravel_index(index, param.shape)
            original = param.data[index]
            param.data[index] = original + 1e-6
            up = float(loss().numpy() @ weights)
            param.data[index] = original - 1e-6
            down = float(loss().numpy() @ weights)
            param.data[index] = original
            numeric = (up - down) / 2e-6
            assert abs(numeric - analytic[index]) <= 1e-5 + 1e-4 * abs(numeric), (name, index)


@pytest.mark.parametrize("head", PREDICTION_HEADS)
def test_two_forwards_before_one_backward(head):
    """Saved activations are fresh per call: a second forward of the same
    shape must not disturb the first one's backward."""
    model = _model("lstm", head, seed=2)
    rng = np.random.default_rng(8)
    batches = [
        {
            "cf": rng.standard_normal((12, N_FEATURES)),
            "history": rng.standard_normal((12, N_LAGS)),
            "env": np.stack([rng.integers(0, size, 12) for size in VOCABULARY.vocabulary_sizes().values()], axis=1),
        }
        for _ in range(2)
    ]
    upstreams = [rng.standard_normal(12) for _ in range(2)]
    model.train()

    def grads():
        return [p.grad.tobytes() for p in model.parameters()]

    model.zero_grad()
    model.reseed(np.random.default_rng(0))
    first = model(**batches[0])
    first.backward(upstreams[0])
    second = model(**batches[1])
    second.backward(upstreams[1])
    interleaved_each = grads()

    model.zero_grad()
    model.reseed(np.random.default_rng(0))
    first = model(**batches[0])
    second = model(**batches[1])
    second.backward(upstreams[1])
    first.backward(upstreams[0])
    assert grads() == interleaved_each


@pytest.mark.parametrize(
    "batch, error",
    [
        ({"cf": np.zeros((2, N_FEATURES + 1)), "history": np.zeros((2, N_LAGS)), "env": np.zeros((2, 4), int)}, ValueError),
        ({"cf": np.zeros((2, N_FEATURES)), "history": np.zeros((2, N_LAGS - 1)), "env": np.zeros((2, 4), int)}, ValueError),
        ({"cf": np.zeros((2, N_FEATURES)), "history": np.zeros((2, N_LAGS)), "env": np.zeros((2, 3), int)}, ValueError),
        ({"cf": np.zeros((2, N_FEATURES)), "history": np.zeros((2, N_LAGS)), "env": np.full((2, 4), 99)}, IndexError),
        ({"cf": np.zeros((2, N_FEATURES)), "history": np.zeros((2, N_LAGS)), "env": np.full((2, 4), -1)}, IndexError),
    ],
)
def test_body_node_keeps_every_check(batch, error):
    model = _model("gru", "hadamard").eval()
    with pytest.raises(error):
        model(**batch)
