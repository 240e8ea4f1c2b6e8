"""The environment-embedding gather: compiled plan = autograd, ranges checked.

The compiled Env2Vec plan gathers ``C = [ec^1, ..., ec^k]`` with one
``take`` over a snapshot of the field tables stacked row-wise, the same
:func:`repro.nn.ops.stacked_embedding_forward` that
:meth:`EnvironmentEmbeddings.lookup` trains with. Stacked tables sit next
to each other, so an id one past its own table's end would read the next
field's first row: every id must be range-checked against its own field.
"""

import numpy as np
import pytest
from hypothesis import given

from repro.core.embeddings import EnvironmentVocabulary
from repro.core.model import PREDICTION_HEADS, Env2VecModel
from repro.data import Environment
from repro.nn import compile_module, no_grad, ops
from tests.strategies import DERANDOMIZED, id_matrices, out_of_range_ids

N_FEATURES = 3
N_LAGS = 3
KNOWN = [
    Environment("tb-a", "sut-a", "tc-a", "b1"),
    Environment("tb-b", "sut-b", "tc-b", "b2"),
    Environment("tb-c", "sut-a", "tc-b", "b3"),
    Environment("tb-d", "sut-c", "tc-c", "b4"),
]
VOCABULARY = EnvironmentVocabulary().fit(KNOWN)
SIZES = tuple(VOCABULARY.vocabulary_sizes().values())


def _model(head: str) -> Env2VecModel:
    model = Env2VecModel(
        N_FEATURES, N_LAGS, VOCABULARY, embedding_dim=4, fnn_hidden=6, gru_hidden=5,
        dropout=0.1, head=head, unknown_dropout=0.05, rng=np.random.default_rng(2),
    )
    return model.eval()


MODELS = {head: _model(head) for head in PREDICTION_HEADS}
ENGINES = {head: compile_module(model) for head, model in MODELS.items()}


def _inputs(env: np.ndarray) -> dict:
    rng = np.random.default_rng(len(env))
    return {
        "cf": rng.standard_normal((len(env), N_FEATURES)),
        "history": rng.standard_normal((len(env), N_LAGS)),
        "env": env,
    }


@DERANDOMIZED
@given(env=id_matrices(SIZES))
def test_compiled_equals_autograd_bitwise(env):
    """The ``mlp`` head feeds ``C`` through dense layers, where compiled
    and autograd share every kernel, so a wrong gathered row shows."""
    inputs = _inputs(env)
    with no_grad():
        reference = MODELS["mlp"](**inputs).numpy()
    compiled = ENGINES["mlp"](**inputs)
    assert compiled.dtype == reference.dtype
    assert compiled.tobytes() == reference.tobytes()


@pytest.mark.parametrize("head", ["hadamard", "bilinear"])
@DERANDOMIZED
@given(env=id_matrices(SIZES))
def test_compiled_dot_heads_match_autograd(head, env):
    """The compiled dot heads sum with ``einsum``, the autograd ones with
    ``(v * C).sum(axis=1)``: equal up to rounding, not bitwise."""
    assert ENGINES[head].assert_close(_inputs(env)) <= 1e-10


@DERANDOMIZED
@given(env=id_matrices(SIZES))
def test_gather_equals_one_lookup_per_field(env):
    """``C`` is bitwise one ``Embedding`` lookup per field, concatenated."""
    embeddings = MODELS["hadamard"].embeddings
    with no_grad():
        reference = np.concatenate(
            [embeddings.tables[field](env[:, j]).numpy() for j, field in enumerate(VOCABULARY.fields)],
            axis=1,
        )
    gathered, effective = embeddings.lookup(env)
    assert gathered.tobytes() == reference.tobytes()
    assert effective.tobytes() == env.tobytes()
    assert ops.stacked_embedding_forward(*embeddings.stacked_tables(), env).tobytes() == reference.tobytes()


@DERANDOMIZED
@given(env=out_of_range_ids(SIZES))
def test_out_of_range_id_raises_in_every_field(env):
    inputs = _inputs(env)
    with pytest.raises(IndexError):
        ENGINES["hadamard"](**inputs)
    with pytest.raises(IndexError):
        MODELS["hadamard"].embeddings.lookup(env)


def test_past_the_end_id_does_not_read_the_next_field():
    """Field 0's id ``SIZES[0]`` is the stacked row of field 1's id 0."""
    stacked, offsets, sizes = MODELS["hadamard"].embeddings.stacked_tables()
    env = np.array([[SIZES[0], 0, 0, 0]])
    with pytest.raises(IndexError, match="field 0"):
        ops.stacked_embedding_forward(stacked, offsets, sizes, env)


def test_compiled_plan_rejects_wrong_id_width():
    inputs = _inputs(np.zeros((2, len(SIZES) + 1), dtype=np.int64))
    with pytest.raises(ValueError, match="shape"):
        ENGINES["hadamard"](**inputs)


class TestStackedEmbeddingForward:
    def _tables(self):
        rng = np.random.default_rng(7)
        return [rng.standard_normal((4, 3)), rng.standard_normal((5, 3))]

    def _gather(self, tables, ids):
        stacked = np.concatenate(tables)
        offsets = np.array([0, len(tables[0])])
        sizes = np.array([len(table) for table in tables], dtype=np.uint64)
        return ops.stacked_embedding_forward(stacked, offsets, sizes, np.asarray(ids, dtype=np.int64))

    def test_rows_concatenate_in_order(self):
        tables = self._tables()
        expected = np.stack([
            np.concatenate([tables[0][1], tables[1][2]]),
            np.concatenate([tables[0][3], tables[1][0]]),
        ])
        assert self._gather(tables, [[1, 2], [3, 0]]).tobytes() == expected.tobytes()

    def test_zero_rows(self):
        assert self._gather(self._tables(), np.empty((0, 2))).shape == (0, 6)

    def test_rows_are_fresh_arrays(self):
        """Writing into a returned batch changes neither the tables nor
        the next gather."""
        tables = self._tables()
        first = self._gather(tables, [[0, 0], [0, 0]])
        kept = first.copy()
        first += 42.0
        assert self._gather(tables, [[0, 0], [0, 0]]).tobytes() == kept.tobytes()

    def test_compiled_plan_keeps_a_snapshot(self):
        """The compiled plan gathers from its own copy of the tables, so a
        training step on the live weights cannot change a served row."""
        model = _model("hadamard")
        engine = compile_module(model)
        inputs = _inputs(np.zeros((2, len(SIZES)), dtype=np.int64))
        before = engine(**inputs).tobytes()
        for table in model.embeddings.tables.values():
            table.weight.data += 1.0
        assert engine(**inputs).tobytes() == before
