"""EnvironmentVocabulary and EnvironmentEmbeddings tests."""

import numpy as np
import pytest
from hypothesis import given

import repro.core.embeddings as embeddings_module
from repro.core import EnvironmentEmbeddings, EnvironmentVocabulary
from repro.data import Environment
from repro.ml.preprocessing import LabelEncoder
from tests.strategies import DERANDOMIZED, environment_pool, environment_runs

RNG = np.random.default_rng(13)


def _envs():
    return [
        Environment("Testbed_01", "SUT_A", "Testcase_Load", "Build_S01"),
        Environment("Testbed_01", "SUT_B", "Testcase_Load", "Build_S02"),
        Environment("Testbed_02", "SUT_A", "Testcase_Endurance", "Build_D01"),
    ]


class TestVocabulary:
    def test_vocabulary_sizes_include_unknown_row(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        sizes = vocab.vocabulary_sizes()
        assert sizes == {"testbed": 3, "sut": 3, "testcase": 3, "build": 4}

    def test_encode_shape_and_determinism(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        ids = vocab.encode(_envs())
        assert ids.shape == (3, 4)
        np.testing.assert_array_equal(ids, vocab.encode(_envs()))

    def test_same_value_same_id_across_environments(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        ids = vocab.encode(_envs())
        assert ids[0, 0] == ids[1, 0]  # Testbed_01 shared
        assert ids[0, 1] == ids[2, 1]  # SUT_A shared

    def test_unknown_values_map_to_unknown_id(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        new_env = Environment("Testbed_99", "SUT_A", "Testcase_Load", "Build_S01")
        known = vocab.is_known(new_env)
        assert known == {"testbed": False, "sut": True, "testcase": True, "build": True}
        ids = vocab.encode_one(new_env)
        # Unknown testbed gets the last row of its table.
        assert ids[0] == vocab.vocabulary_sizes()["testbed"] - 1

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            EnvironmentVocabulary().encode(_envs())

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            EnvironmentVocabulary().fit([])

    def test_custom_fields(self):
        vocab = EnvironmentVocabulary(fields=("sut", "build")).fit(_envs())
        assert vocab.encode(_envs()).shape == (3, 2)
        with pytest.raises(ValueError):
            EnvironmentVocabulary(fields=())


def _naive_encode(vocab, environments):
    """One ``LabelEncoder.transform`` per row and field, no dedup at all."""
    classes = vocab.to_config()["classes"]
    encoders = {field: LabelEncoder.from_classes(classes[field]) for field in vocab.fields}
    rows = [
        [int(encoders[field].transform([getattr(env, field)])[0]) for field in vocab.fields]
        for env in environments
    ]
    return np.array(rows, dtype=np.int64).reshape(len(environments), len(vocab.fields))


class TestEncodeIdentityShortcut:
    """``encode`` skips the hash when a row's environment *is* the previous
    row's; the ids must still equal a naive per-row transform."""

    @DERANDOMIZED
    @given(environments=environment_runs(environment_pool(_envs())))
    def test_matches_naive_per_row_transform(self, environments):
        vocab = EnvironmentVocabulary().fit(_envs())
        ids = vocab.encode(environments)
        assert ids.dtype == np.int64
        assert ids.tobytes() == _naive_encode(vocab, environments).tobytes()

    def test_equal_but_distinct_objects_alternating(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        a, b = _envs()[0], _envs()[1]
        a_copy = Environment(*a.as_tuple())
        unseen = Environment("Testbed_99", "SUT_Z", "Testcase_New", "Build_X")
        environments = [a, a, b, a_copy, a, unseen, unseen, b, a_copy]
        ids = vocab.encode(environments)
        np.testing.assert_array_equal(ids, _naive_encode(vocab, environments))
        assert (ids[3] == ids[0]).all() and (ids[8] == ids[0]).all()

    def test_single_environment(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        env = _envs()[2]
        np.testing.assert_array_equal(vocab.encode([env] * 5), _naive_encode(vocab, [env] * 5))
        np.testing.assert_array_equal(vocab.encode([env]), _naive_encode(vocab, [env]))

    def test_empty(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        ids = vocab.encode([])
        assert ids.shape == (0, 4)
        assert ids.dtype == np.int64


class TestEncodeMemo:
    """``encode`` remembers each environment's id row until the next
    ``fit`` or ``extend``; the ids must match a fresh vocabulary's."""

    @DERANDOMIZED
    @given(environments=environment_runs(environment_pool(_envs())))
    def test_unknown_values_get_their_ids_after_extend(self, environments):
        vocab = EnvironmentVocabulary().fit(_envs())
        vocab.encode(environments)  # remembers <unk> ids for unseen values
        # New in every field, and first: no value keeps its old <unk> id.
        vocab.extend([Environment("Testbed_00", "SUT_0", "Testcase_0", "Build_0"), *environments])
        fresh = EnvironmentVocabulary.from_config(vocab.to_config())
        assert vocab.encode(environments).tobytes() == fresh.encode(environments).tobytes()
        assert vocab.encode(environments).tobytes() == _naive_encode(vocab, environments).tobytes()

    def test_unknown_value_before_and_after_extend(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        first = Environment("Testbed_01", "SUT_A", "Testcase_Load", "Build_S98")
        second = Environment("Testbed_01", "SUT_A", "Testcase_Load", "Build_S99")
        unknown = vocab.vocabulary_sizes()["build"] - 1
        assert vocab.encode([first, second])[:, 3].tolist() == [unknown, unknown]
        vocab.extend([second, first])  # first gets unknown + 1, not the old <unk> id
        classes = vocab.to_config()["classes"]["build"]
        assert [classes[i] for i in vocab.encode([first, second])[:, 3]] == ["Build_S98", "Build_S99"]

    def test_fit_forgets_the_old_ids(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        env = _envs()[2]
        vocab.encode([env])
        vocab.fit([env])
        assert vocab.encode([env]).tolist() == [[0, 0, 0, 0]]

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(embeddings_module, "ENCODE_MEMO_SIZE", 3)
        vocab = EnvironmentVocabulary().fit(_envs())
        pool = environment_pool(_envs())
        for start in range(len(pool)):
            batch = pool[start:] + pool[:start]
            assert vocab.encode(batch).tobytes() == _naive_encode(vocab, batch).tobytes()
            assert len(vocab._memo) <= 3

    def test_a_failed_call_leaves_no_half_remembered_environment(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        new = Environment("Testbed_01", "SUT_A", "Testcase_Load", "Build_S99")
        with pytest.raises(TypeError):
            vocab.encode([new, ["unhashable"]])
        assert vocab.encode([new]).tobytes() == _naive_encode(vocab, [new]).tobytes()


class TestEnvironmentEmbeddings:
    def test_output_dim_is_fields_times_dim(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, embedding_dim=10, rng=RNG)
        assert emb.output_dim == 40
        out = emb(vocab.encode(_envs()))
        assert out.shape == (3, 40)

    def test_concatenation_order_matches_fields(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, embedding_dim=4, rng=RNG)
        ids = vocab.encode(_envs())
        out = emb(ids).numpy()
        testbed_part = emb.tables["testbed"].weight.numpy()[ids[:, 0]]
        np.testing.assert_allclose(out[:, :4], testbed_part)
        build_part = emb.tables["build"].weight.numpy()[ids[:, 3]]
        np.testing.assert_allclose(out[:, -4:], build_part)

    def test_shared_em_values_share_embedding_slices(self):
        # Mix-and-match (§4.3): two environments sharing a testbed have
        # identical testbed slices in C.
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, embedding_dim=5, rng=RNG)
        matrix = emb.embed_environments(_envs())
        np.testing.assert_allclose(matrix[0, :5], matrix[1, :5])  # same testbed
        assert not np.allclose(matrix[0, :5], matrix[2, :5])  # different testbed

    def test_unseen_environment_composes_known_slices(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, embedding_dim=5, rng=RNG)
        unseen = Environment("Testbed_02", "SUT_B", "Testcase_Load", "Build_D01")
        matrix = emb.embed_environments(_envs() + [unseen])
        # Unseen env's testbed slice equals env 2's, sut slice equals env 1's.
        np.testing.assert_allclose(matrix[3, :5], matrix[2, :5])
        np.testing.assert_allclose(matrix[3, 5:10], matrix[1, 5:10])

    def test_gradients_flow_to_tables(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, embedding_dim=3, rng=RNG)
        out = emb(vocab.encode(_envs()))
        out.sum().backward()
        assert emb.tables["testbed"].weight.grad is not None
        # Testbed_01 appears twice -> its row's gradient is 2x the others'.
        ids = vocab.encode(_envs())
        grad = emb.tables["testbed"].weight.grad
        np.testing.assert_allclose(grad[ids[0, 0]], 2.0)
        np.testing.assert_allclose(grad[ids[2, 0]], 1.0)

    def test_bad_id_shape_rejected(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, rng=RNG)
        with pytest.raises(ValueError):
            emb(np.zeros((3, 2), dtype=np.int64))

    def test_invalid_embedding_dim(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        with pytest.raises(ValueError):
            EnvironmentEmbeddings(vocab, embedding_dim=0)

    def test_parameters_cover_all_tables(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, embedding_dim=2, rng=RNG)
        assert len(list(emb.parameters())) == 4
