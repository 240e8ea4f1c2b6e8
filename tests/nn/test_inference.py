"""Tape-free inference engine: compile rules and parity."""

import numpy as np
import pytest

from repro.nn import (
    GRU,
    LSTM,
    Adam,
    Dense,
    Dropout,
    Sequential,
    Tensor,
    Trainer,
    UnsupportedModuleError,
    compile_module,
    is_grad_enabled,
    no_grad,
)
from repro.nn.inference import CompiledDense, compile_attention, compile_recurrent
from repro.nn.attention import AdditiveAttention

RNG = np.random.default_rng(7)


class TestCompileDense:
    def test_parity(self):
        layer = Dense(6, 4, activation="sigmoid", rng=RNG)
        engine = compile_module(layer)
        x = RNG.standard_normal((9, 6))
        assert engine.assert_close({"x": x}, atol=1e-10) <= 1e-10

    def test_weights_are_snapshots(self):
        layer = Dense(3, 2, rng=RNG)
        engine = compile_module(layer)
        before = engine(x=np.ones((1, 3)))
        layer.weight.data += 100.0  # simulate an optimizer step
        after = engine(x=np.ones((1, 3)))
        np.testing.assert_allclose(before, after)


    @pytest.mark.parametrize("n", [312, 313, 626, 1024, 1025])
    def test_row_blocked_gemm_is_bitwise(self, n):
        # 80 × 40 is the Env2Vec combine layer: above 312 rows its GEMM
        # passes the small-matrix bound and is multiplied in row blocks.
        layer = Dense(80, 40, activation="sigmoid", rng=RNG)
        dense = CompiledDense(layer)
        assert dense._block_rows == 312
        x = RNG.standard_normal((n, 80))
        with no_grad():
            reference = layer(Tensor(x)).numpy()
        assert dense(x).tobytes() == reference.tobytes()


class TestCompileSequential:
    def test_dropout_elided(self):
        model = Sequential(
            Dense(5, 8, activation="relu", rng=RNG), Dropout(0.5, rng=RNG), Dense(8, 2, rng=RNG)
        )
        model.eval()
        engine = compile_module(model)
        assert engine.assert_close({"x": RNG.standard_normal((11, 5))}, atol=1e-10) <= 1e-10

    def test_unknown_layer_refused(self):
        model = Sequential(Dense(4, 4, rng=RNG), GRU(4, 4, rng=RNG))
        with pytest.raises(UnsupportedModuleError):
            compile_module(model)

    def test_subclass_not_matched_through_mro(self):
        class Doubler(Dense):
            def forward(self, x):
                return super().forward(x) * 2.0

        with pytest.raises(UnsupportedModuleError):
            compile_module(Doubler(3, 3, rng=RNG))


class TestCompiledRecurrent:
    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_gru_parity(self, return_sequences):
        layer = GRU(2, 5, activation="relu", return_sequences=return_sequences, rng=RNG)
        run = compile_recurrent(layer)
        x = RNG.standard_normal((4, 6, 2))
        with no_grad():
            reference = layer(Tensor(x)).numpy()
        np.testing.assert_allclose(run(x), reference, atol=1e-12)

    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_lstm_parity(self, return_sequences):
        layer = LSTM(3, 4, return_sequences=return_sequences, rng=RNG)
        run = compile_recurrent(layer)
        x = RNG.standard_normal((5, 7, 3))
        with no_grad():
            reference = layer(Tensor(x)).numpy()
        np.testing.assert_allclose(run(x), reference, atol=1e-12)

    def test_attention_parity(self):
        layer = AdditiveAttention(6, rng=RNG)
        run = compile_attention(layer)
        x = RNG.standard_normal((3, 5, 6))
        with no_grad():
            reference = layer(Tensor(x)).numpy()
        np.testing.assert_allclose(run(x), reference, atol=1e-12)


class TestEnginePredict:
    def test_chunked_predict_matches_single_shot(self):
        layer = Dense(4, 2, rng=RNG)
        engine = compile_module(layer)
        x = RNG.standard_normal((23, 4))
        np.testing.assert_allclose(
            engine.predict({"x": x}, batch_size=5), engine.predict({"x": x})
        )

    def test_chunked_predict_bitwise_at_large_batch(self):
        # Chunking at batch_size >= 16 must not move a bit: every kernel
        # on the compiled path is row-wise, so each chunk's rows see the
        # same arithmetic as the single-shot call.
        layer = Dense(4, 2, rng=RNG)
        engine = compile_module(layer)
        x = RNG.standard_normal((53, 4))
        chunked = engine.predict({"x": x}, batch_size=16)
        assert chunked.tobytes() == engine.predict({"x": x}).tobytes()

    def test_one_row_bitwise_matches_its_row_in_a_batch(self):
        # numpy runs a one-row matmul as gemv, whose summation order is
        # not gemm's; predict must not let a lone row (a one-window
        # execution, a one-row last chunk) take that path.
        layer = Dense(16, 8, rng=RNG)
        engine = compile_module(layer)
        x = RNG.standard_normal((33, 16))
        full = engine.predict({"x": x})
        for i in range(len(x)):
            assert engine.predict({"x": x[i : i + 1]}).tobytes() == full[i : i + 1].tobytes()
        assert engine.predict({"x": x}, batch_size=16).tobytes() == full.tobytes()

    def test_predict_zero_rows(self):
        layer = Dense(4, 2, rng=RNG)
        engine = compile_module(layer)
        for batch_size in (None, 5):
            out = engine.predict({"x": np.empty((0, 4))}, batch_size=batch_size)
            assert out.shape == (0, 2)

    def test_predict_rejects_empty_mapping(self):
        layer = Dense(4, 2, rng=RNG)
        engine = compile_module(layer)
        with pytest.raises(ValueError, match="at least one named array"):
            engine.predict({})

    def test_unregistered_module_raises(self):
        class Custom(Dense):
            pass

        with pytest.raises(UnsupportedModuleError, match="Custom"):
            compile_module(Custom(2, 2, rng=RNG))


class TestTrainerEngineRouting:
    def test_uncompilable_model_falls_back(self):
        class Odd(Dense):
            def forward(self, x):
                return super().forward(x) + 1.0

        model = Odd(3, 1, rng=RNG)
        trainer = Trainer(model, Adam(model.parameters()), batch_size=8)
        x = RNG.standard_normal((10, 3))
        y = RNG.standard_normal((10, 1))
        with no_grad():
            reference = model(Tensor(x)).numpy()
        # no compile rule for Odd: evaluate runs the autograd forward
        expected = float(np.mean((reference - y) ** 2))
        assert trainer.evaluate({"x": x}, y) == pytest.approx(expected, rel=1e-12)

    def test_seeded_trainers_reproduce_histories(self):
        x = RNG.standard_normal((40, 3))
        y = x @ np.array([1.0, -2.0, 0.5])
        histories = []
        for _ in range(2):
            model = _FlatDense(np.random.default_rng(11))
            trainer = Trainer(
                model, Adam(model.parameters()), max_epochs=3, batch_size=8,
                rng=np.random.default_rng(99),
            )
            histories.append(trainer.fit({"x": x}, y).train_loss)
        assert histories[0] == histories[1]


class _FlatDense(Dense):
    """Dense that squeezes its output so MSE targets can be 1-d."""

    def __init__(self, rng):
        super().__init__(3, 1, rng=rng)

    def forward(self, x):
        return super().forward(Tensor(x)).reshape(-1)


class TestGradMode:
    def test_grad_mode_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()
