"""SequenceEncoder registry tests, parametrized over every registered encoder.

New encoders added via ``@register_encoder`` are picked up automatically:
each one must pass autograd-vs-compiled parity (≤1e-10) and seed
determinism.
"""

import numpy as np
import pytest

from repro.nn import (
    SequenceEncoder,
    Tensor,
    available_encoders,
    compile_module,
    create_encoder,
    register_encoder,
    validate_encoder_name,
)
from repro.nn.encoders import _ENCODERS

INPUT_SIZE = 1
HIDDEN = 5


def _make(name: str, seed: int = 11) -> SequenceEncoder:
    return create_encoder(name, INPUT_SIZE, HIDDEN, rng=np.random.default_rng(seed))


def _sequence(batch: int = 6, timesteps: int = 7, seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((batch, timesteps, INPUT_SIZE))


class TestRegistry:
    def test_zoo_is_registered(self):
        for name in ("gru", "lstm", "stacked", "bidirectional", "attention", "lstm_attention"):
            assert name in available_encoders()

    def test_available_encoders_sorted(self):
        assert list(available_encoders()) == sorted(available_encoders())

    def test_validate_lists_all_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            validate_encoder_name("transformer")
        message = str(excinfo.value)
        for name in available_encoders():
            assert name in message

    def test_create_unknown_encoder_raises(self):
        with pytest.raises(ValueError, match="unknown encoder"):
            create_encoder("nope", 1, 4)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_encoder("gru")(type("Dup", (SequenceEncoder,), {}))

    def test_registered_class_carries_name(self):
        for name, cls in _ENCODERS.items():
            assert cls.name == name


@pytest.mark.parametrize("name", available_encoders())
class TestEveryEncoder:
    def test_forward_shape_matches_output_dim(self, name):
        encoder = _make(name)
        out = encoder(Tensor(_sequence()))
        assert out.shape == (6, encoder.output_dim)

    def test_gradients_reach_every_parameter(self, name):
        encoder = _make(name)
        out = encoder(Tensor(_sequence()))
        (out * out).sum().backward()
        for param_name, param in encoder.named_parameters():
            assert param.grad is not None, param_name
            assert np.isfinite(param.grad).all(), param_name

    def test_compiled_parity(self, name):
        encoder = _make(name)
        encoder.eval()
        engine = compile_module(encoder)
        max_diff = engine.assert_close({"sequence": _sequence(batch=9)}, atol=1e-10)
        assert max_diff <= 1e-10

    def test_compiled_zero_timesteps(self, name):
        if "attention" in name:
            # softmax pooling over zero timesteps is undefined — the
            # autograd forward rejects it too, so there is no contract
            # for the compiled plan to match.
            pytest.skip("attention pooling has no zero-timestep meaning")
        encoder = _make(name)
        encoder.eval()
        engine = compile_module(encoder)
        out = engine(sequence=np.empty((4, 0, INPUT_SIZE)))
        assert out.shape == (4, encoder.output_dim)
        assert out.dtype == np.float64

    def test_seed_determinism(self, name):
        a, b = _make(name, seed=21), _make(name, seed=21)
        for (key_a, param_a), (key_b, param_b) in zip(
            a.named_parameters(), b.named_parameters()
        ):
            assert key_a == key_b
            np.testing.assert_array_equal(param_a.data, param_b.data)

    def test_input_validation(self, name):
        encoder = _make(name)
        with pytest.raises(ValueError, match="expected"):
            encoder(Tensor(np.zeros((2, 5))))
        with pytest.raises(ValueError, match="expected"):
            encoder(Tensor(np.zeros((2, 5, INPUT_SIZE + 1))))


def test_bidirectional_output_dim_doubles():
    encoder = _make("bidirectional")
    assert encoder.output_dim == 2 * HIDDEN
