"""Long short-term memory cells — the alternative recurrent unit.

The paper chose GRUs for the RU-history branch (§3.1) citing their success
in recommender systems and time-series forecasting, but did not compare
against LSTM, the other standard gated RNN. This module provides an LSTM
with the classic formulation

    i_t = sigmoid(W^(i) x_t + U^(i) h_{t-1} + b_i)     (input gate)
    f_t = sigmoid(W^(f) x_t + U^(f) h_{t-1} + b_f)     (forget gate)
    o_t = sigmoid(W^(o) x_t + U^(o) h_{t-1} + b_o)     (output gate)
    g_t = tanh(W^(g) x_t + U^(g) h_{t-1} + b_g)        (candidate)
    c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t                    (cell state)
    h_t = o_t ⊙ tanh(c_t)                              (hidden state)

so the design choice can be ablated
(``benchmarks/bench_ablation_recurrent.py``). The forget-gate bias is
initialized to 1, the standard trick that eases gradient flow early in
training.
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from . import ops
from .layers import Module, Parameter
from .tensor import Tensor, apply_op

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """LSTM parameters, plus the kernels that run them.

    :meth:`run` processes a whole sequence as a single tape node
    (:func:`repro.nn.ops.lstm_sequence_forward`); calling the cell is one
    step on ``(batch, input_size)`` tensors from given states.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = initializers.ensure_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        for gate in ("i", "f", "o", "g"):
            setattr(
                self,
                f"w_{gate}",
                Parameter(initializers.glorot_uniform((input_size, hidden_size), rng), name=f"w_{gate}"),
            )
            setattr(
                self,
                f"u_{gate}",
                Parameter(initializers.orthogonal((hidden_size, hidden_size), rng), name=f"u_{gate}"),
            )
            bias = np.ones(hidden_size) if gate == "f" else np.zeros(hidden_size)
            setattr(self, f"b_{gate}", Parameter(bias, name=f"b_{gate}"))

    def _fused(self) -> dict:
        return ops.fuse_lstm_weights(
            self.w_i.data, self.u_i.data, self.b_i.data,
            self.w_f.data, self.u_f.data, self.b_f.data,
            self.w_o.data, self.u_o.data, self.b_o.data,
            self.w_g.data, self.u_g.data, self.b_g.data,
        )

    def _param_grads(self, d_wb, d_u3) -> list:
        width = self.input_size
        grads = []
        for k in range(4):  # i, f, o, g
            grads += [d_wb[k, :width], d_u3[k], d_wb[k, width]]
        return grads

    def _params(self) -> tuple:
        return (
            self.w_i, self.u_i, self.b_i,
            self.w_f, self.u_f, self.b_f,
            self.w_o, self.u_o, self.b_o,
            self.w_g, self.u_g, self.b_g,
        )

    def run(self, sequence: Tensor, return_sequences: bool = False) -> Tensor:
        """The whole ``(batch, timesteps, input_size)`` sequence as one tape
        node, from the zero state."""
        sequence = sequence if isinstance(sequence, Tensor) else Tensor(sequence)
        fused = self._fused()
        out, cache = ops.lstm_sequence_forward(
            sequence.data, fused["wb"], fused["u"], return_sequences
        )

        def backward(grad: np.ndarray) -> list:
            d_sequence, _, _, d_wb, d_u3 = ops.lstm_sequence_backward(
                grad, cache, sequence.requires_grad
            )
            return [d_sequence, *self._param_grads(d_wb, d_u3)]

        return apply_op((sequence, *self._params()), out, backward)

    def forward(self, x_t: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        """One step from ``(h_prev, c_prev)``; returns ``(h_t, c_t)``.

        Both states come from one tape node whose output is ``[h_t | c_t]``;
        gradients reaching either half flow back through the same kernel.
        """
        x_t = x_t if isinstance(x_t, Tensor) else Tensor(x_t)
        h_prev = h_prev if isinstance(h_prev, Tensor) else Tensor(h_prev)
        c_prev = c_prev if isinstance(c_prev, Tensor) else Tensor(c_prev)
        fused = self._fused()
        h_data, cache = ops.lstm_sequence_forward(
            x_t.data[:, None, :], fused["wb"], fused["u"], h0=h_prev.data, c0=c_prev.data
        )
        hidden = self.hidden_size

        def backward(grad: np.ndarray) -> list:
            d_x, d_h0, d_c0, d_wb, d_u3 = ops.lstm_sequence_backward(
                grad[:, :hidden], cache, x_t.requires_grad, grad_c=grad[:, hidden:]
            )
            return [None if d_x is None else d_x[:, 0, :], d_h0, d_c0,
                    *self._param_grads(d_wb, d_u3)]

        both = apply_op(
            (x_t, h_prev, c_prev, *self._params()),
            np.concatenate([h_data, cache["c_last"]], axis=1),
            backward,
        )
        return both[:, :hidden], both[:, hidden:]


class LSTM(Module):
    """Runs an :class:`LSTMCell` over ``(batch, timesteps, input_size)``.

    Mirrors :class:`repro.nn.gru.GRU`'s interface so the two units are
    drop-in interchangeable inside the Env2Vec backbone.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        return_sequences: bool = False,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size
        self.return_sequences = return_sequences

    def forward(self, sequence: Tensor) -> Tensor:
        if sequence.ndim != 3:
            raise ValueError(f"LSTM expects (batch, timesteps, input_size); got shape {sequence.shape}")
        return self.cell.run(sequence, return_sequences=self.return_sequences)
