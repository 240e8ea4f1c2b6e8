"""The training loss.

The paper trains Env2Vec by minimizing Mean Squared Error
(``MSE = (1/N) Σ (y_i - y'_i)^2``, §3.1 / Appendix A.1); it is the one
loss here. Evaluation metrics (MAE, MSE) live in :mod:`repro.eval.metrics`.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _unbroadcast, apply_op

__all__ = ["mse_grad", "mse_loss"]


def mse_loss(predicted: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements, as one tape node.

    Value and gradient are those of ``((predicted - target) ** 2).mean()``
    built from elementary tape ops, bit for bit: ``(d * d).sum() * (1 / n)``
    and ``g * d + g * d`` with ``g = grad * (1 / n)``.
    """
    predicted = predicted if isinstance(predicted, Tensor) else Tensor(predicted)
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = predicted.data - target.data
    scale = 1.0 / diff.size

    def backward(grad: np.ndarray):
        half = (grad * scale) * diff
        d_diff = half + half
        return (
            _unbroadcast(d_diff, predicted.shape),
            _unbroadcast(-d_diff, target.shape) if target.requires_grad else None,
        )

    return apply_op((predicted, target), (diff * diff).sum() * scale, backward)


def mse_grad(predicted: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`mse_loss`'s value and ``backward()``'s gradient w.r.t.
    ``predicted``, without a tape.

    Bit for bit those of the node: ``(d * d).sum() * (1 / n)``, and
    ``half + half`` with ``half = (1 / n) * d`` (the unit output
    gradient times ``1 / n`` is ``1 / n`` exactly).
    """
    diff = predicted - target
    scale = 1.0 / diff.size
    half = scale * diff
    return float((diff * diff).sum() * scale), half + half
