"""Tests for Dense/Dropout/Embedding/Sequential and Module mechanics."""

import numpy as np
import pytest

from repro.nn import Dense, Dropout, Embedding, Module, Parameter, Sequential, Tensor, no_grad, ops

RNG = np.random.default_rng(11)


class TestDense:
    def test_output_shape(self):
        layer = Dense(4, 6, rng=RNG)
        out = layer(Tensor(RNG.standard_normal((10, 4))))
        assert out.shape == (10, 6)

    def test_linear_activation_matches_numpy(self):
        layer = Dense(3, 2, rng=RNG)
        x = RNG.standard_normal((5, 3))
        out = layer(Tensor(x))
        expected = x @ layer.weight.numpy() + layer.bias.numpy()
        np.testing.assert_allclose(out.numpy(), expected)

    def test_sigmoid_activation_bounded(self):
        layer = Dense(3, 2, activation="sigmoid", rng=RNG)
        out = layer(Tensor(RNG.standard_normal((50, 3)) * 10)).numpy()
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_relu_activation_nonnegative(self):
        layer = Dense(3, 2, activation="relu", rng=RNG)
        out = layer(Tensor(RNG.standard_normal((50, 3)))).numpy()
        assert out.min() >= 0.0

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation"):
            Dense(3, 2, activation="softmax")

    def test_gradients_reach_weights(self):
        layer = Dense(3, 2, rng=RNG)
        out = layer(Tensor(RNG.standard_normal((5, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, [5.0, 5.0])


class TestDropout:
    def test_train_mode_masks(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        layer.train()
        out = layer(Tensor(np.ones((200, 10)), requires_grad=True)).numpy()
        assert (out == 0).any()
        # Inverted dropout keeps the expectation ~1
        assert abs(out.mean() - 1.0) < 0.1

    def test_eval_mode_is_identity(self):
        layer = Dropout(0.9, rng=np.random.default_rng(0))
        layer.eval()
        x = np.ones((5, 5))
        np.testing.assert_allclose(layer(Tensor(x, requires_grad=True)).numpy(), x)

    def test_zero_rate_is_identity(self):
        layer = Dropout(0.0)
        x = Tensor(np.ones(4), requires_grad=True)
        assert layer(x) is x

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_dropout_scales_and_masks(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 10)), requires_grad=True)
        y = layer(x)
        assert set(np.unique(y.numpy())) == {0.0, 2.0}
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, y.numpy())

    def test_dropout_identity_in_no_grad(self):
        layer = Dropout(0.9, rng=np.random.default_rng(0))
        x = Tensor(np.ones(10))
        with no_grad():
            assert layer(x) is x

    def test_dropout_invalid_rate(self):
        for rate in (0.0, 1.0):
            with pytest.raises(ValueError):
                ops.dropout_mask((3,), rate, np.random.default_rng(0))


class TestEmbedding:
    def test_lookup_returns_rows(self):
        emb = Embedding(5, 3, rng=RNG)
        ids = np.array([0, 4, 2])
        out = emb(ids)
        np.testing.assert_allclose(out.numpy(), emb.weight.numpy()[ids])

    def test_gradient_is_sparse_scatter(self):
        emb = Embedding(5, 3, rng=RNG)
        ids = np.array([1, 1, 3])
        emb(ids).sum().backward()
        grad = emb.weight.grad
        np.testing.assert_allclose(grad[1], [2.0, 2.0, 2.0])
        np.testing.assert_allclose(grad[3], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(grad[0], 0.0)

    def test_gather_gradient_scatter_adds_duplicates(self):
        emb = Embedding(5, 3, rng=RNG)
        ids = np.array([1, 1, 4, 0])
        (emb(ids) ** 2).sum().backward()
        expected = np.zeros((5, 3))
        np.add.at(expected, ids, 2 * emb.weight.numpy()[ids])
        np.testing.assert_allclose(emb.weight.grad, expected)

    def test_out_of_range_ids_rejected(self):
        emb = Embedding(5, 3, rng=RNG)
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_needs_at_least_one_row(self):
        with pytest.raises(ValueError):
            Embedding(0, 3)


class TestModuleMechanics:
    def _model(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Dense(3, 4, rng=RNG)
                self.drop = Dropout(0.5, rng=np.random.default_rng(1))
                self.fc2 = Dense(4, 1, rng=RNG)
                self.extra = [Dense(2, 2, rng=RNG)]
                self.table = {"emb": Embedding(3, 2, rng=RNG)}

            def forward(self, x):
                return self.fc2(self.drop(self.fc1(x)))

        return Net()

    def test_parameters_recurse_containers(self):
        model = self._model()
        params = list(model.parameters())
        # fc1 (2) + fc2 (2) + extra dense (2) + embedding (1)
        assert len(params) == 7

    def test_named_parameters_unique_names(self):
        model = self._model()
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert "fc1.weight" in names
        assert "table.emb.weight" in names
        assert "extra.0.bias" in names

    def test_train_eval_propagates(self):
        model = self._model()
        model.eval()
        assert not model.drop.training
        model.train()
        assert model.drop.training

    def test_zero_grad_clears_all(self):
        model = self._model()
        out = model(Tensor(RNG.standard_normal((2, 3))))
        out.sum().backward()
        assert model.fc1.weight.grad is not None
        model.zero_grad()
        assert model.fc1.weight.grad is None

    def test_state_dict_roundtrip(self):
        model = self._model()
        state = model.state_dict()
        other = self._model()
        other.load_state_dict(state)
        for (_, p1), (_, p2) in zip(model.named_parameters(), other.named_parameters()):
            np.testing.assert_allclose(p1.numpy(), p2.numpy())

    def test_load_state_dict_rejects_mismatch(self):
        model = self._model()
        state = model.state_dict()
        state.pop("fc1.weight")
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_state_dict_rejects_bad_shape(self):
        model = self._model()
        state = model.state_dict()
        state["fc1.weight"] = np.zeros((99, 99))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_num_parameters(self):
        model = self._model()
        expected = sum(p.size for p in model.parameters())
        assert model.num_parameters() == expected

    def test_shared_parameter_counted_once(self):
        class Tied(Module):
            def __init__(self):
                super().__init__()
                self.shared = Parameter(np.ones((2, 2)))
                self.alias = self.shared

            def forward(self, x):  # pragma: no cover
                return x

        assert len(list(Tied().parameters())) == 1


class TestSequential:
    def test_applies_in_order(self):
        seq = Sequential(Dense(3, 4, activation="relu", rng=RNG), Dense(4, 1, rng=RNG))
        out = seq(Tensor(RNG.standard_normal((6, 3))))
        assert out.shape == (6, 1)

    def test_append(self):
        seq = Sequential(Dense(3, 4, rng=RNG))
        seq.append(Dense(4, 2, rng=RNG))
        assert seq(Tensor(RNG.standard_normal((2, 3)))).shape == (2, 2)

    def test_parameters_collected(self):
        seq = Sequential(Dense(3, 4, rng=RNG), Dense(4, 1, rng=RNG))
        assert len(list(seq.parameters())) == 4
