"""The compiled Env2Vec plan in two halves: branch rows, then the head.

The compiled forward is ``head(branches(cf, history), env)``. While the
encoder, the FNN and the scalers stay as they are, a window's branch row
``[v_ts, v_fs]`` does too, so the campaign keeps each execution's rows
and runs only the head half over them. That is exact only if a row's
bytes do not depend on the batch it was computed in, and if the head
half keeps the engine's 1024-row chunks and its lone-row rule: every
case must equal the whole forward bitwise, for every head, at row counts
on either side of the chunk and with ``<unk>`` and mixed id rows.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Env2VecRegressor
from repro.core.model import PREDICTION_HEADS
from repro.data import Environment
from repro.nn import ops
from repro.nn.inference import compile_plan, predict_in_chunks
from tests.strategies import DERANDOMIZED, id_matrices

N_FEATURES = 3
N_LAGS = 3
#: One row, two, and either side of the compiled forward's 1024-row chunk.
ROWS = (1, 2, 1023, 1024, 1025)
KNOWN = [
    Environment("tb-a", "sut-a", "tc-a", "b1"),
    Environment("tb-b", "sut-b", "tc-b", "b2"),
    Environment("tb-c", "sut-a", "tc-b", "b3"),
]


@lru_cache(maxsize=None)
def _regressor(head: str) -> Env2VecRegressor:
    rng = np.random.default_rng(3)
    X = rng.standard_normal((48, N_FEATURES))
    history = rng.standard_normal((48, N_LAGS))
    y = 40.0 + 3.0 * X[:, 0] + history[:, -1]
    environments = [KNOWN[i % len(KNOWN)] for i in range(48)]
    # The default widths: at toy widths a one-row gemv can happen to
    # round like gemm, and the lone-row rule would go untested.
    return Env2VecRegressor(n_lags=N_LAGS, head=head, batch_size=16, max_epochs=1, seed=1).fit(
        environments, X, history, y
    )


def _sizes(regressor: Env2VecRegressor) -> tuple[int, ...]:
    return tuple(regressor.vocabulary.vocabulary_sizes().values())


def _windows(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return 40.0 + 5.0 * rng.standard_normal((n, N_FEATURES)), 40.0 + 5.0 * rng.standard_normal((n, N_LAGS))


@pytest.mark.parametrize("head", PREDICTION_HEADS)
@DERANDOMIZED
@given(data=st.data())
def test_head_over_branch_rows_is_the_compiled_forward(head, data):
    regressor = _regressor(head)
    env = data.draw(id_matrices(_sizes(regressor), rows=ROWS))
    X, history = _windows(len(env), len(env))
    whole = regressor._predict_encoded(env, X, history)
    halves = regressor.head_predict(env, regressor.branch_rows(X, history))
    assert halves.tobytes() == whole.tobytes()


@pytest.mark.parametrize("head", PREDICTION_HEADS)
@DERANDOMIZED
@given(data=st.data())
def test_rows_kept_per_execution_serve_any_later_batch(head, data):
    """Rows computed execution by execution (each at least two windows,
    as the campaign keeps them) and concatenated into another batch give
    the head the bytes the whole forward over that batch gives."""
    regressor = _regressor(head)
    env = data.draw(id_matrices(_sizes(regressor), rows=ROWS[1:]))
    X, history = _windows(len(env), len(env) + 1)
    n_executions = data.draw(st.integers(1, min(6, len(env) // 2)))
    spare = len(env) - 2 * n_executions
    cuts = sorted(data.draw(st.lists(st.integers(0, spare), min_size=n_executions - 1, max_size=n_executions - 1)))
    bounds = np.cumsum([0, *(2 + np.diff([0, *cuts, spare]))]).tolist()
    rows = np.concatenate([
        regressor.branch_rows(X[start:stop], history[start:stop])
        for start, stop in zip(bounds[:-1], bounds[1:])
    ])
    whole = regressor._predict_encoded(env, X, history)
    assert regressor.head_predict(env, rows).tobytes() == whole.tobytes()


@pytest.mark.parametrize("head", ["hadamard", "bilinear"])
def test_a_lone_row_gets_its_batch_bytes_in_both_halves(head):
    """A lone row runs as two copies in each half, as the engine runs
    it, so one row scored alone equals the same row inside a batch.

    Not the ``mlp`` head: its one-column output layer multiplies
    ``(n, c) @ (c, 1)``, whose rounding depends on ``n`` (rows 2 and 8
    of a batch already differ), so even the whole engine gives a row
    alone other bytes than inside a batch.
    """
    regressor = _regressor(head)
    # Enough rows that a one-row gemv rounds some output differently.
    env = regressor.vocabulary.encode(KNOWN * 20)
    X, history = _windows(len(env), 9)
    batch = regressor.head_predict(env, regressor.branch_rows(X, history))
    for row in range(len(env)):
        alone = regressor.head_predict(env[row : row + 1], regressor.branch_rows(X[row : row + 1], history[row : row + 1]))
        assert alone.tobytes() == batch[row : row + 1].tobytes()


def test_the_plan_is_its_two_halves():
    regressor = _regressor("mlp")
    plan = compile_plan(regressor.model)
    env = regressor.vocabulary.encode(KNOWN * 5)
    cf, history = regressor._scale_inputs(*_windows(len(env), 4))
    assert plan(cf, history, env).tobytes() == plan.head(plan.branches(cf, history), env).tobytes()
    assert plan.branches(cf, history).shape == (len(env), 16 + 64)


def test_zero_rows_and_misaligned_rows():
    regressor = _regressor("hadamard")
    rows = regressor.branch_rows(np.zeros((0, N_FEATURES)), np.zeros((0, N_LAGS)))
    assert rows.shape == (0, 80)
    assert regressor.head_predict(np.zeros((0, 4), dtype=np.int64), rows).shape == (0,)
    with pytest.raises(ValueError, match="aligned"):
        regressor.head_predict(np.zeros((2, 4), dtype=np.int64), rows)


def test_head_chunks_match_the_engine_chunks():
    """``predict_in_chunks`` is the engine's own chunking."""
    regressor = _regressor("bilinear")
    engine = regressor.ensure_compiled()
    env = regressor.vocabulary.encode(KNOWN * 350)
    cf, history = regressor._scale_inputs(*_windows(len(env), 5))
    inputs = {"cf": cf, "history": history, "env": env}
    direct = predict_in_chunks(compile_plan(regressor.model), inputs, ops._CACHED_ROWS)
    assert direct.tobytes() == engine.predict(inputs, batch_size=ops._CACHED_ROWS).tobytes()
