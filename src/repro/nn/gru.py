"""Gated recurrent units, following the formulation in the paper's Appendix A.

For each timestep t with input ``y_t`` and previous hidden state ``h_{t-1}``:

    z_t  = sigmoid(W^(z) y_t + U^(z) h_{t-1})              (update gate)
    r_t  = sigmoid(W^(r) y_t + U^(r) h_{t-1})              (reset gate)
    h'_t = f(W^(h) y_t + r_t ⊙ (U^(h) h_{t-1}))            (candidate state)
    h_t  = (1 - z_t) ⊙ h'_t + z_t ⊙ h_{t-1}

The paper adopts ReLU as the candidate activation ``f`` empirically
(Appendix A); ``tanh`` is also supported for comparison. The GRU consumes
the sliding window of historical resource-utilization values
``{y_{p-n}, ..., y_{p-1}}`` (RU_history in Figure 2) and its final hidden
state is the summary vector ``v_ts``.
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from . import ops
from .layers import ACTIVATIONS, Module, Parameter
from .tensor import Tensor, apply_op

__all__ = ["GRUCell", "GRU"]


class GRUCell(Module):
    """GRU parameters, plus the kernels that run them.

    :meth:`run` processes a whole sequence as a single tape node
    (:func:`repro.nn.ops.gru_sequence_forward`); calling the cell is one
    step on ``(batch, input_size)`` tensors from a given state.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = initializers.ensure_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.activation_name = activation
        # Input kernels W^(z), W^(r), W^(h)
        self.w_z = Parameter(initializers.glorot_uniform((input_size, hidden_size), rng), name="w_z")
        self.w_r = Parameter(initializers.glorot_uniform((input_size, hidden_size), rng), name="w_r")
        self.w_h = Parameter(initializers.glorot_uniform((input_size, hidden_size), rng), name="w_h")
        # Recurrent kernels U^(z), U^(r), U^(h)
        self.u_z = Parameter(initializers.orthogonal((hidden_size, hidden_size), rng), name="u_z")
        self.u_r = Parameter(initializers.orthogonal((hidden_size, hidden_size), rng), name="u_r")
        self.u_h = Parameter(initializers.orthogonal((hidden_size, hidden_size), rng), name="u_h")
        # Gate biases
        self.b_z = Parameter(initializers.zeros((hidden_size,)), name="b_z")
        self.b_r = Parameter(initializers.zeros((hidden_size,)), name="b_r")
        self.b_h = Parameter(initializers.zeros((hidden_size,)), name="b_h")

    def run(self, sequence: Tensor, h0: Tensor | None = None, return_sequences: bool = False) -> Tensor:
        """The whole ``(batch, timesteps, input_size)`` sequence as one tape node."""
        sequence = sequence if isinstance(sequence, Tensor) else Tensor(sequence)
        fused = ops.fuse_gru_weights(
            self.w_z.data, self.u_z.data, self.b_z.data,
            self.w_r.data, self.u_r.data, self.b_r.data,
            self.w_h.data, self.u_h.data, self.b_h.data,
        )
        out, cache = ops.gru_sequence_forward(
            sequence.data, fused["wb"], fused["u"], self.activation_name,
            return_sequences, None if h0 is None else h0.data,
        )
        width = self.input_size
        starts = (h0,) if h0 is not None else ()

        def backward(grad: np.ndarray) -> list:
            d_sequence, d_h0, d_wb, d_u3 = ops.gru_sequence_backward(
                grad, cache, sequence.requires_grad
            )
            grads = [d_sequence] + ([d_h0] if h0 is not None else [])
            for k in range(3):  # z, r, h
                grads += [d_wb[k, :width], d_u3[k], d_wb[k, width]]
            return grads

        parents = (
            sequence, *starts,
            self.w_z, self.u_z, self.b_z,
            self.w_r, self.u_r, self.b_r,
            self.w_h, self.u_h, self.b_h,
        )
        return apply_op(parents, out, backward)

    def forward(self, y_t: Tensor, h_prev: Tensor) -> Tensor:
        """One step from state ``h_prev``: ``run`` over a length-1 sequence."""
        y_t = y_t if isinstance(y_t, Tensor) else Tensor(y_t)
        h_prev = h_prev if isinstance(h_prev, Tensor) else Tensor(h_prev)
        return self.run(y_t.reshape(y_t.shape[0], 1, y_t.shape[1]), h_prev)


class GRU(Module):
    """Runs a :class:`GRUCell` over a ``(batch, timesteps, input_size)`` input.

    The sequence is one tape node from the zero state, and its recurrence
    is the compiled runner's, so the compiled float64 forward is bitwise
    equal to this one.

    Returns the final hidden state ``v_ts`` of shape ``(batch, hidden_size)``
    (or the full hidden sequence if ``return_sequences`` is set).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        activation: str = "relu",
        return_sequences: bool = False,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, activation=activation, rng=rng)
        self.hidden_size = hidden_size
        self.return_sequences = return_sequences

    def forward(self, sequence: Tensor) -> Tensor:
        if sequence.ndim != 3:
            raise ValueError(f"GRU expects (batch, timesteps, input_size); got shape {sequence.shape}")
        return self.cell.run(sequence, return_sequences=self.return_sequences)
