"""Fused sequence-runner contracts: bitwise float64, bounded float32.

The batched restructure of the :mod:`repro.nn.ops` runners (workspace
buffers, precombined input GEMMs, ``out=`` hot loops — DESIGN.md §6)
promises three things this file pins down:

- **float64 is bitwise.** The compiled runners replay the autograd
  recurrence scalar-op for scalar-op, so their float64 outputs equal the
  ``no_grad`` forward byte for byte — not merely to a tolerance.
- **float32 is bounded.** The same recurrence in single precision stays
  within :data:`repro.nn.inference.FLOAT32_ATOL` of the float64 answer.
- **Workspace reuse is invisible.** Per-thread scratch buffers must
  never alias a returned array: results survive later calls, and the
  empty/zero-length edges still come back in the right shape and dtype.
"""

import numpy as np
import pytest

from repro.nn import GRU, LSTM, Tensor, no_grad
from repro.nn.inference import FLOAT32_ATOL, compile_recurrent
from repro.nn import ops

RNG = np.random.default_rng(11)


def _gru_fused(input_dim=3, hidden=16, dtype=np.float64, seed=5):
    rng = np.random.default_rng(seed)
    parts = []
    for gate in range(3):
        parts += [
            rng.standard_normal((input_dim, hidden)),
            rng.standard_normal((hidden, hidden)),
            rng.standard_normal(hidden),
        ]
    return ops.fuse_gru_weights(*parts, dtype=dtype)


def _lstm_fused(input_dim=3, hidden=16, dtype=np.float64, seed=5):
    rng = np.random.default_rng(seed)
    parts = []
    for gate in range(4):
        parts += [
            rng.standard_normal((input_dim, hidden)),
            rng.standard_normal((hidden, hidden)),
            rng.standard_normal(hidden),
        ]
    return ops.fuse_lstm_weights(*parts, dtype=dtype)


class TestFloat64Bitwise:
    """The restructured runners must not move a single float64 bit."""

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid", "linear"])
    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_gru_matches_autograd_bytes(self, activation, return_sequences):
        layer = GRU(3, 16, activation=activation, return_sequences=return_sequences, rng=RNG)
        run = compile_recurrent(layer, np.dtype(np.float64))
        x = RNG.standard_normal((5, 9, 3))
        with no_grad():
            reference = layer(Tensor(x)).numpy()
        assert run(x).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_lstm_matches_autograd_bytes(self, return_sequences):
        layer = LSTM(3, 16, return_sequences=return_sequences, rng=RNG)
        run = compile_recurrent(layer, np.dtype(np.float64))
        x = RNG.standard_normal((5, 9, 3))
        with no_grad():
            reference = layer(Tensor(x)).numpy()
        assert run(x).tobytes() == reference.tobytes()

    def test_single_feature_broadcast_projection_is_bitwise(self):
        # K=1 is the RU-history hot path where the input GEMM degenerates
        # to a broadcast multiply; it must still match autograd exactly.
        layer = GRU(1, 16, activation="relu", rng=RNG)
        run = compile_recurrent(layer, np.dtype(np.float64))
        x = RNG.standard_normal((1, 3, 1))
        with no_grad():
            reference = layer(Tensor(x)).numpy()
        assert run(x).tobytes() == reference.tobytes()


class TestFloat32Parity:
    @pytest.mark.parametrize("runner,fused,extra", [
        (ops.gru_sequence, _gru_fused, ("relu",)),
        (ops.lstm_sequence, _lstm_fused, ()),
    ])
    def test_lowp_path_within_bound(self, runner, fused, extra):
        x = RNG.standard_normal((8, 6, 3))
        exact = runner(x, fused(dtype=np.float64), *extra, True)
        lowp = runner(
            x.astype(np.float32), fused(dtype=np.float32), *extra, True
        )
        assert lowp.dtype == np.float32
        assert np.max(np.abs(lowp - exact)) <= FLOAT32_ATOL

    def test_unknown_activation_raises(self):
        fused = _gru_fused(dtype=np.float32)
        x = RNG.standard_normal((2, 3, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="unknown activation"):
            ops.gru_sequence(x, fused, "softmax")


class TestWorkspaceIsolation:
    """Returned arrays must be fresh — never views of the scratch pool."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gru_results_survive_later_calls(self, dtype):
        fused = _gru_fused(dtype=dtype)
        a = RNG.standard_normal((4, 7, 3)).astype(dtype)
        b = RNG.standard_normal((4, 7, 3)).astype(dtype)
        first = ops.gru_sequence(a, fused, "tanh")
        snapshot = first.copy()
        ops.gru_sequence(b, fused, "tanh")  # same workspace key
        np.testing.assert_array_equal(first, snapshot)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_lstm_results_survive_later_calls(self, dtype):
        fused = _lstm_fused(dtype=dtype)
        a = RNG.standard_normal((4, 7, 3)).astype(dtype)
        b = RNG.standard_normal((4, 7, 3)).astype(dtype)
        first = ops.lstm_sequence(a, fused, True)
        snapshot = first.copy()
        ops.lstm_sequence(b, fused, True)
        np.testing.assert_array_equal(first, snapshot)

    def test_augmented_input_ones_column_survives_reuse(self):
        x1 = RNG.standard_normal((2, 3, 2)).astype(np.float32)
        x2 = RNG.standard_normal((2, 3, 2)).astype(np.float32)
        a1 = ops._augmented_rows(x1, np.float32)
        np.testing.assert_array_equal(a1[:, -1], np.ones(6, dtype=np.float32))
        a2 = ops._augmented_rows(x2, np.float32)
        np.testing.assert_array_equal(a2[:, -1], np.ones(6, dtype=np.float32))
        np.testing.assert_array_equal(
            a2[:, :2], x2.transpose(1, 0, 2).reshape(6, 2)
        )


class TestZeroLengthEdges:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gru_zero_timesteps(self, dtype):
        fused = _gru_fused(dtype=dtype)
        x = np.empty((4, 0, 3), dtype=dtype)
        last = ops.gru_sequence(x, fused, "relu", False)
        seq = ops.gru_sequence(x, fused, "relu", True)
        assert last.shape == (4, 16) and last.dtype == dtype
        np.testing.assert_array_equal(last, np.zeros((4, 16), dtype=dtype))
        assert seq.shape == (4, 0, 16) and seq.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_lstm_zero_timesteps(self, dtype):
        fused = _lstm_fused(dtype=dtype)
        x = np.empty((4, 0, 3), dtype=dtype)
        last = ops.lstm_sequence(x, fused, False)
        seq = ops.lstm_sequence(x, fused, True)
        assert last.shape == (4, 16) and last.dtype == dtype
        np.testing.assert_array_equal(last, np.zeros((4, 16), dtype=dtype))
        assert seq.shape == (4, 0, 16) and seq.dtype == dtype


# ---------------------------------------------------------------------------
# Whole-sequence training kernels against a per-step reference
# ---------------------------------------------------------------------------
# The reference below is the per-timestep formulation (one forward and one
# backward per step, chained through time), transcribed here so the fused
# kernels can be held to it.

def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _act(name, pre):
    return {"relu": lambda v: np.maximum(v, 0.0), "tanh": np.tanh,
            "sigmoid": _sig, "linear": lambda v: v}[name](pre)


def _act_delta(name, grad, pre, out):
    if name == "relu":
        return grad * (pre > 0)
    if name == "tanh":
        return grad * (1.0 - out * out)
    if name == "sigmoid":
        return grad * out * (1.0 - out)
    return grad


def _ref_gru_step(y, h, p, act):
    z = _sig(y @ p["w_z"] + h @ p["u_z"] + p["b_z"])
    r = _sig(y @ p["w_r"] + h @ p["u_r"] + p["b_r"])
    hu = h @ p["u_h"]
    pre = y @ p["w_h"] + r * hu + p["b_h"]
    cand = _act(act, pre)
    return (1.0 - z) * cand + z * h, (y, h, z, r, hu, pre, cand)


def _ref_gru_step_backward(grad, cache, p, act, g):
    y, h, z, r, hu, pre, cand = cache
    d_pre = _act_delta(act, grad * (1.0 - z), pre, cand)
    d_r = d_pre * hu
    d_hu = d_pre * r
    d_z_pre = grad * (h - cand) * z * (1.0 - z)
    d_r_pre = d_r * r * (1.0 - r)
    for gate, d in (("z", d_z_pre), ("r", d_r_pre), ("h", d_pre)):
        g["w_" + gate] += y.T @ d
        g["b_" + gate] += d.sum(axis=0)
    g["u_z"] += h.T @ d_z_pre
    g["u_r"] += h.T @ d_r_pre
    g["u_h"] += h.T @ d_hu
    d_y = d_pre @ p["w_h"].T + d_z_pre @ p["w_z"].T + d_r_pre @ p["w_r"].T
    d_h = grad * z + d_hu @ p["u_h"].T + d_z_pre @ p["u_z"].T + d_r_pre @ p["u_r"].T
    return d_y, d_h


def _ref_lstm_step(x, h, c, p):
    i = _sig(x @ p["w_i"] + h @ p["u_i"] + p["b_i"])
    f = _sig(x @ p["w_f"] + h @ p["u_f"] + p["b_f"])
    o = _sig(x @ p["w_o"] + h @ p["u_o"] + p["b_o"])
    gg = np.tanh(x @ p["w_g"] + h @ p["u_g"] + p["b_g"])
    c_next = f * c + i * gg
    tc = np.tanh(c_next)
    return o * tc, c_next, (x, h, c, i, f, o, gg, tc)


def _ref_lstm_step_backward(d_h_out, d_c, cache, p, g):
    x, h, c, i, f, o, gg, tc = cache
    d_o_pre = d_h_out * tc * o * (1.0 - o)
    d_c = d_c + d_h_out * o * (1.0 - tc * tc)
    pres = {
        "i": d_c * gg * i * (1.0 - i),
        "f": d_c * c * f * (1.0 - f),
        "o": d_o_pre,
        "g": d_c * i * (1.0 - gg * gg),
    }
    d_x, d_h = 0.0, 0.0
    for gate, d in pres.items():
        g["w_" + gate] += x.T @ d
        g["u_" + gate] += h.T @ d
        g["b_" + gate] += d.sum(axis=0)
        d_x = d_x + d @ p["w_" + gate].T
        d_h = d_h + d @ p["u_" + gate].T
    return d_x, d_h, d_c * f


def _ref_sequence(cell, x, p, act, h0, c0, grad, return_sequences, grad_c=None):
    """Per-step forward, then backpropagation through time step by step."""
    batch, timesteps, _ = x.shape
    hidden = p["u_" + ("z" if cell == "gru" else "i")].shape[0]
    h = np.zeros((batch, hidden)) if h0 is None else h0
    c = np.zeros((batch, hidden)) if c0 is None else c0
    states, caches = [], []
    for t in range(timesteps):
        if cell == "gru":
            h, cache = _ref_gru_step(x[:, t], h, p, act)
        else:
            h, c, cache = _ref_lstm_step(x[:, t], h, c, p)
        states.append(h)
        caches.append(cache)
    out = np.stack(states, axis=1) if return_sequences else h
    g = {name: np.zeros_like(value) for name, value in p.items()}
    d_x = np.zeros_like(x)
    d_h = grad[:, -1] if return_sequences else grad
    d_c = np.zeros_like(h) if grad_c is None else grad_c
    for t in range(timesteps - 1, -1, -1):
        if cell == "gru":
            d_x[:, t], d_h = _ref_gru_step_backward(d_h, caches[t], p, act, g)
        else:
            d_x[:, t], d_h, d_c = _ref_lstm_step_backward(d_h, d_c, caches[t], p, g)
        if return_sequences and t:
            d_h = d_h + grad[:, t - 1]
    return out, c, g, d_x, d_h, d_c


def _params(cell, width, hidden, rng):
    gates = "zrh" if cell == "gru" else "ifog"
    p = {}
    for gate in gates:
        p["w_" + gate] = rng.standard_normal((width, hidden)) * 0.6
        p["u_" + gate] = rng.standard_normal((hidden, hidden)) * 0.4
        p["b_" + gate] = rng.standard_normal(hidden) * 0.2
    return p


def _kernel_sequence(cell, x, p, act, h0, c0, grad, return_sequences, input_grad, grad_c=None):
    gates = "zrh" if cell == "gru" else "ifog"
    fuse = ops.fuse_gru_weights if cell == "gru" else ops.fuse_lstm_weights
    fused = fuse(*[p[kind + "_" + gate] for gate in gates for kind in ("w", "u", "b")])
    width = x.shape[2]
    if cell == "gru":
        out, cache = ops.gru_sequence_forward(x, fused["wb"], fused["u"], act, return_sequences, h0)
        c_last = None
        d_x, d_h0, d_wb, d_u3 = ops.gru_sequence_backward(grad, cache, input_grad)
        d_c0 = None
    else:
        out, cache = ops.lstm_sequence_forward(x, fused["wb"], fused["u"], return_sequences, h0, c0)
        c_last = cache["c_last"]
        d_x, d_h0, d_c0, d_wb, d_u3 = ops.lstm_sequence_backward(grad, cache, input_grad, grad_c)
    g = {}
    for k, gate in enumerate(gates):
        g["w_" + gate], g["u_" + gate], g["b_" + gate] = d_wb[k, :width], d_u3[k], d_wb[k, width]
    return out, c_last, g, d_x, d_h0, d_c0


def _rel(actual, expected):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(actual - expected))) / scale


#: The documented gradient bound of the whole-sequence backward against a
#: per-step one (DESIGN.md §6): products associate differently.
GRAD_RTOL = 1e-12


class TestSequenceKernelsMatchPerStepReference:
    @pytest.mark.parametrize("cell,act", [
        ("gru", "relu"), ("gru", "tanh"), ("gru", "sigmoid"), ("gru", "linear"), ("lstm", None),
    ])
    @pytest.mark.parametrize("return_sequences", [False, True])
    @pytest.mark.parametrize("timesteps", [1, 3, 9])
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("initial_state", [False, True])
    @pytest.mark.parametrize("input_grad", [False, True])
    def test_forward_and_gradients(
        self, cell, act, return_sequences, timesteps, width, initial_state, input_grad
    ):
        rng = np.random.default_rng(7 * timesteps + width)
        batch, hidden = 5, 4
        p = _params(cell, width, hidden, rng)
        x = rng.standard_normal((batch, timesteps, width))
        h0 = rng.standard_normal((batch, hidden)) if initial_state else None
        c0 = rng.standard_normal((batch, hidden)) if initial_state and cell == "lstm" else None
        shape = (batch, timesteps, hidden) if return_sequences else (batch, hidden)
        grad = rng.standard_normal(shape)
        grad_c = rng.standard_normal((batch, hidden)) if cell == "lstm" and initial_state else None

        out, c_last, g, d_x, d_h0, d_c0 = _kernel_sequence(
            cell, x, p, act, h0, c0, grad, return_sequences, input_grad, grad_c
        )
        ref_out, ref_c, ref_g, ref_dx, ref_dh0, ref_dc0 = _ref_sequence(
            cell, x, p, act, h0, c0, grad, return_sequences, grad_c
        )
        np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-14)
        if cell == "lstm":
            np.testing.assert_allclose(c_last, ref_c, rtol=1e-12, atol=1e-14)
        for name in ref_g:
            assert _rel(g[name], ref_g[name]) <= GRAD_RTOL, name
        if input_grad:
            assert _rel(d_x, ref_dx) <= GRAD_RTOL
        else:
            assert d_x is None
        if initial_state:
            assert _rel(d_h0, ref_dh0) <= GRAD_RTOL
            if cell == "lstm":
                assert _rel(d_c0, ref_dc0) <= GRAD_RTOL
        else:
            assert d_h0 is None and d_c0 is None

    def test_outputs_survive_later_forwards(self):
        # Outputs never alias the saved activations or another call's arrays.
        rng = np.random.default_rng(2)
        fused = _gru_fused(input_dim=1, hidden=4)
        x = rng.standard_normal((3, 4, 1))
        out, cache = ops.gru_sequence_forward(x, fused["wb"], fused["u"], "relu", True)
        snapshot = out.copy()
        ops.gru_sequence_backward(np.ones_like(out), cache)
        ops.gru_sequence_forward(-x, fused["wb"], fused["u"], "relu", True)
        np.testing.assert_array_equal(out, snapshot)


class TestEncoderGradcheck:
    """Central finite differences through every registered encoder."""

    @pytest.mark.parametrize("name", ["gru", "lstm", "stacked", "bidirectional",
                                      "attention", "lstm_attention"])
    def test_parameters_and_input(self, name):
        from repro.nn import available_encoders, create_encoder

        assert name in available_encoders()
        extra = {} if "lstm" in name else {"activation": "tanh"}  # smooth for FD
        encoder = create_encoder(name, 2, 3, rng=np.random.default_rng(4), **extra)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 2))
        weights = rng.standard_normal((3, encoder.output_dim))

        def loss(arr):
            return float((encoder(Tensor(arr)).numpy() * weights).sum())

        inp = Tensor(x.copy(), requires_grad=True)
        (encoder(inp) * Tensor(weights)).sum().backward()
        eps = 1e-6
        checks = [(name_, param.data, param.grad) for name_, param in encoder.named_parameters()]
        checks.append(("input", x, inp.grad))
        for label, data, analytic in checks:
            assert analytic is not None, label
            flat, grad_flat = data.reshape(-1), analytic.reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[i]
                flat[i] = orig + eps
                plus = loss(x)
                flat[i] = orig - eps
                minus = loss(x)
                flat[i] = orig
                numeric = (plus - minus) / (2 * eps)
                np.testing.assert_allclose(grad_flat[i], numeric, rtol=1e-5, atol=1e-7, err_msg=label)
