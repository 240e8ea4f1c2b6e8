"""Additive (Bahdanau-style) attention over a hidden-state sequence.

§6 of the paper names attention [3, 42] as a future-work direction: "This
could be useful to learn relationships between metric values from previous
timesteps." This module implements that extension: instead of summarizing
the RU history with the GRU's *last* hidden state, the model attends over
*all* hidden states

    e_t   = v^T tanh(W h_t)        (alignment score per timestep)
    a     = softmax(e)             (attention weights)
    v_ts  = Σ_t a_t h_t            (attended summary)

so timesteps that matter for the prediction — e.g. the onset of a load
ramp several steps back — can dominate the summary regardless of recency.
Selected with ``encoder="attention"`` (or ``"lstm_attention"``) on
:class:`repro.core.model.Env2VecRegressor` and evaluated by
``benchmarks/bench_ablation_attention.py``.
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from . import ops
from .layers import Module, Parameter
from .tensor import Tensor, apply_op

__all__ = ["AdditiveAttention"]


class AdditiveAttention(Module):
    """Pool a ``(batch, timesteps, hidden)`` sequence into ``(batch, hidden)``."""

    def __init__(
        self,
        hidden_size: int,
        attention_size: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        rng = initializers.ensure_rng(rng)
        attention_size = attention_size if attention_size is not None else hidden_size
        if attention_size < 1:
            raise ValueError("attention_size must be >= 1")
        self.hidden_size = hidden_size
        self.attention_size = attention_size
        self.projection = Parameter(
            initializers.glorot_uniform((hidden_size, attention_size), rng), name="projection"
        )
        self.context = Parameter(
            initializers.glorot_uniform((attention_size, 1), rng), name="context"
        )
        self._last_weights: np.ndarray | None = None

    def forward(self, sequence: Tensor) -> Tensor:
        out, _ = self.attend(sequence)
        return out

    def attend(self, sequence: Tensor) -> tuple[Tensor, np.ndarray]:
        """Forward pass returning ``(pooled, weights)``.

        The returned ``(batch, timesteps)`` weights belong to *this* call;
        :attr:`last_weights` holds the most recent call's.
        """
        if sequence.ndim != 3 or sequence.shape[2] != self.hidden_size:
            raise ValueError(
                f"expected (batch, timesteps, {self.hidden_size}); got shape {sequence.shape}"
            )
        sequence = sequence if isinstance(sequence, Tensor) else Tensor(sequence)
        out, cache = ops.attention_forward(
            sequence.data, self.projection.data, self.context.data
        )
        weights = cache["weights"].copy()
        self._last_weights = weights
        pooled = apply_op(
            (sequence, self.projection, self.context),
            out,
            lambda grad: ops.attention_backward(grad, cache),
        )
        return pooled, weights

    @property
    def last_weights(self) -> np.ndarray:
        """Attention weights from the most recent forward (analysis).

        For a per-call handle, which a later forward cannot replace, call
        :meth:`attend`.
        """
        if self._last_weights is None:
            raise RuntimeError("attention has not been applied yet")
        return self._last_weights
