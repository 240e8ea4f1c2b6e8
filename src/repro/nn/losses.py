"""Loss functions.

The paper trains Env2Vec by minimizing Mean Squared Error
(``MSE = (1/N) Σ (y_i - y'_i)^2``, §3.1 / Appendix A.1) and additionally
reports Mean Absolute Error for evaluation (§4.1.2).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _unbroadcast, apply_op

__all__ = ["mse_loss", "mae_loss", "huber_loss", "get_loss"]


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


def mae_loss(predicted: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over all elements."""
    return (predicted - target).abs().mean()


def huber_loss(predicted: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber loss: quadratic within ``delta`` of the target, linear beyond.

    Useful when occasional KPI spikes would dominate a pure MSE objective:
    the linear tail bounds each sample's gradient at ``delta``.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    diff = (predicted - target).abs()
    quadratic = (diff * diff) * 0.5
    linear = diff * delta - 0.5 * delta * delta
    # Smooth switch: min(quadratic, linear) equals the Huber loss for
    # diff >= 0 because the two branches cross exactly at diff == delta.
    mask = diff.numpy() <= delta
    combined = quadratic * Tensor(mask.astype(float)) + linear * Tensor((~mask).astype(float))
    return combined.mean()


_LOSSES = {"mse": mse_loss, "mae": mae_loss, "huber": huber_loss}


def get_loss(name: str):
    """Resolve a loss function by name (``'mse'`` or ``'mae'``)."""
    try:
        return _LOSSES[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; choose from {sorted(_LOSSES)}") from None
