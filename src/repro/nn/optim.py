"""The Adam optimizer.

The paper uses the Adam update rule [Kingma & Ba 2014] to train Env2Vec
(Appendix A.1); it is the one optimizer here.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "Adam"]

#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


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

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.001):
        super().__init__(parameters, lr)
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
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def step(self) -> None:
        self._bind()
        self._step_count += 1
        bias1 = 1.0 - BETA1**self._step_count
        bias2 = 1.0 - BETA2**self._step_count
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
