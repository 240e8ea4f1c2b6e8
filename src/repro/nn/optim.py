"""Gradient-descent optimizers.

The paper uses the Adam update rule [Kingma & Ba 2014] to train Env2Vec
(Appendix A.1). SGD (with optional momentum) is provided as a simpler
alternative used in tests.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_gradients"]


def clip_gradients(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. Standard protection for recurrent models
    whose backpropagated-through-time gradients can occasionally explode.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    parameters = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float(np.sum(p.grad**2)) for p in parameters)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for parameter in parameters:
            parameter.grad *= scale
    return total


class Optimizer:
    """Base optimizer holding a parameter list.

    ``weight_decay`` applies decoupled L2 regularization (AdamW-style for
    Adam): weights shrink by ``lr * weight_decay * w`` each step,
    independent of the gradient moments.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float, weight_decay: float = 0.0):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.lr = lr
        self.weight_decay = weight_decay

    def _apply_weight_decay(self) -> None:
        if self.weight_decay:
            for parameter in self.parameters:
                if parameter.grad is not None:
                    parameter.data -= self.lr * self.weight_decay * parameter.data

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._apply_weight_decay()
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            if self.momentum:
                velocity *= self.momentum
                velocity -= self.lr * param.grad
                param.data += velocity
            else:
                param.data -= self.lr * param.grad


class Adam(Optimizer):
    """Adam with bias-corrected first/second moment estimates.

    Parameters, gradients and both moments live in flat buffers, one
    slot per parameter, and each parameter's ``data`` is a view of its
    slot: a step is one vectorized pass instead of one small pass per
    parameter. Every operation is elementwise, so the result is bitwise
    the per-parameter update. A parameter whose ``grad`` is None is
    skipped for that step, moments included. When ``data`` is rebound
    (``load_state_dict`` assigns fresh arrays), the next step copies the
    new values into the slot and keeps the moments.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr, weight_decay)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step_count = 0
        self._offsets = np.cumsum([0] + [p.data.size for p in self.parameters]).tolist()
        total = self._offsets[-1]
        self._data = np.empty(total)
        self._grad = np.empty(total)
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self._views: list[np.ndarray | None] = [None] * len(self.parameters)
        self._bind()

    def _slot(self, k: int) -> slice:
        return slice(self._offsets[k], self._offsets[k + 1])

    def _bind(self) -> None:
        """Make each parameter's ``data`` its slot's view (again, if rebound)."""
        for k, param in enumerate(self.parameters):
            if param.data is self._views[k]:
                continue
            slot = self._data[self._slot(k)]
            if param.data.size != slot.size:
                raise ValueError(
                    f"parameter {k} changed size ({slot.size} -> {param.data.size}); "
                    "build a new optimizer"
                )
            view = slot.reshape(param.data.shape)
            view[...] = param.data
            param.data = self._views[k] = view

    def _update(self, data, m, v, grad, bias1: float, bias2: float) -> None:
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def step(self) -> None:
        self._bind()
        self._apply_weight_decay()
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        grads = [param.grad for param in self.parameters]
        if all(grad is not None for grad in grads):
            np.concatenate([grad.reshape(-1) for grad in grads], out=self._grad)
            self._update(self._data, self._m, self._v, self._grad, bias1, bias2)
            return
        for k, grad in enumerate(grads):
            if grad is not None:
                slot = self._slot(k)
                self._update(
                    self._data[slot], self._m[slot], self._v[slot], grad.reshape(-1), bias1, bias2
                )
