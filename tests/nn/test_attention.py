"""Additive attention tests (the §6 future-work extension)."""

import numpy as np
import pytest

from repro.nn import AdditiveAttention, Tensor

RNG = np.random.default_rng(41)


class TestAdditiveAttention:
    def test_output_shape(self):
        attention = AdditiveAttention(6, rng=RNG)
        out = attention(Tensor(RNG.standard_normal((4, 7, 6))))
        assert out.shape == (4, 6)

    def test_weights_are_a_distribution(self):
        attention = AdditiveAttention(5, rng=RNG)
        attention(Tensor(RNG.standard_normal((3, 9, 5))))
        weights = attention.last_weights
        assert weights.shape == (3, 9)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        assert (weights >= 0).all()

    def test_output_is_weighted_average(self):
        attention = AdditiveAttention(4, rng=RNG)
        sequence = RNG.standard_normal((2, 5, 4))
        out = attention(Tensor(sequence)).numpy()
        weights = attention.last_weights
        expected = np.einsum("bt,bth->bh", weights, sequence)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_identical_timesteps_uniform_weights(self):
        attention = AdditiveAttention(4, rng=RNG)
        step = RNG.standard_normal((1, 1, 4))
        sequence = np.repeat(step, 6, axis=1)
        attention(Tensor(sequence))
        np.testing.assert_allclose(attention.last_weights, 1.0 / 6.0, atol=1e-12)

    def test_single_timestep_passthrough(self):
        attention = AdditiveAttention(4, rng=RNG)
        sequence = RNG.standard_normal((3, 1, 4))
        out = attention(Tensor(sequence)).numpy()
        np.testing.assert_allclose(out, sequence[:, 0, :], atol=1e-12)

    def test_gradients_flow(self):
        attention = AdditiveAttention(3, rng=RNG)
        x = Tensor(RNG.standard_normal((2, 4, 3)), requires_grad=True)
        (attention(x) ** 2).sum().backward()
        assert x.grad is not None
        assert attention.projection.grad is not None
        assert attention.context.grad is not None

    def test_gradcheck_against_numeric(self):
        attention = AdditiveAttention(2, attention_size=3, rng=RNG)
        x = RNG.standard_normal((1, 3, 2))

        def value(arr):
            return (attention(Tensor(arr)) ** 2).sum().item()

        t = Tensor(x.copy(), requires_grad=True)
        (attention(t) ** 2).sum().backward()
        eps = 1e-6
        numeric = np.zeros_like(x)
        flat, num_flat = x.reshape(-1), numeric.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = value(x)
            flat[i] = original - eps
            minus = value(x)
            flat[i] = original
            num_flat[i] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(t.grad, numeric, rtol=1e-4, atol=1e-7)

    def test_invalid_shapes(self):
        attention = AdditiveAttention(4, rng=RNG)
        with pytest.raises(ValueError):
            attention(Tensor(RNG.standard_normal((2, 4))))
        with pytest.raises(ValueError):
            attention(Tensor(RNG.standard_normal((2, 3, 5))))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AdditiveAttention(0)
        with pytest.raises(ValueError):
            AdditiveAttention(4, attention_size=0)

    def test_weights_before_forward_raise(self):
        with pytest.raises(RuntimeError):
            AdditiveAttention(4, rng=RNG).last_weights

    def test_attends_to_informative_timestep_after_training(self):
        """Train attention so only timestep 0 predicts the target; its
        weight should dominate."""
        from repro.nn import Adam, mse_loss

        rng = np.random.default_rng(3)
        attention = AdditiveAttention(1, attention_size=8, rng=rng)
        optimizer = Adam(attention.parameters(), lr=0.05)
        for _ in range(200):
            sequence = rng.standard_normal((32, 4, 1))
            target = Tensor(sequence[:, 0, 0])
            optimizer.zero_grad()
            out = attention(Tensor(sequence)).reshape(-1)
            loss = mse_loss(out, target)
            loss.backward()
            optimizer.step()
        attention(Tensor(rng.standard_normal((64, 4, 1))))
        # Timestep 0 gets the most attention on average.
        mean_weights = attention.last_weights.mean(axis=0)
        assert mean_weights[0] == max(mean_weights)


class TestLastWeights:
    def test_attend_returns_per_call_weights(self):
        attention = AdditiveAttention(4, rng=RNG)
        first_seq = RNG.standard_normal((2, 5, 4))
        second_seq = RNG.standard_normal((3, 6, 4))
        _, first_weights = attention.attend(Tensor(first_seq))
        _, second_weights = attention.attend(Tensor(second_seq))
        # the handle from the first call is unaffected by the second
        assert first_weights.shape == (2, 5)
        assert second_weights.shape == (3, 6)
        assert attention.last_weights is second_weights
        out = attention(Tensor(first_seq)).numpy()
        np.testing.assert_allclose(
            out, np.einsum("bt,bth->bh", first_weights, first_seq), atol=1e-12
        )
