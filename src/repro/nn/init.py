"""Weight initializers for the ``repro.nn`` stack.

Keras defaults are mirrored so the reproduction matches the paper's setup:
``glorot_uniform`` for dense kernels, ``orthogonal`` for recurrent kernels,
zeros for biases, and ``uniform(-0.05, 0.05)`` (Keras ``RandomUniform``) for
embedding tables.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "ensure_rng",
    "glorot_uniform",
    "orthogonal",
    "zeros",
    "embedding_uniform",
    "deferred_init",
]

#: Seed behind every ``rng=None`` fallback in the stack. Constructing a
#: module without passing an rng used to mean "fresh entropy from the OS";
#: since the REP001 determinism audit it means "the deterministic default
#: stream" — two modules built with all-default arguments are identical.
DEFAULT_SEED = 0


def ensure_rng(rng: np.random.Generator | None) -> np.random.Generator:
    """``rng`` unchanged, or a generator seeded with :data:`DEFAULT_SEED`.

    The replacement for ``rng if rng is not None else default_rng()``:
    an unseeded ``default_rng()`` (REP001) silently made every
    default-constructed layer irreproducible.
    """
    if rng is not None:
        return rng
    return np.random.default_rng(DEFAULT_SEED)


class _InitMode:
    deferred = False


_INIT_MODE = _InitMode()


@contextmanager
def deferred_init():
    """Skip random weight initialization inside the block (zeros instead).

    Deserialization builds a model only to immediately overwrite every
    parameter via ``load_state_dict``; drawing Glorot/orthogonal weights
    (the latter costs a QR decomposition per recurrent kernel) for throwaway
    arrays is pure waste. A process-wide switch, like the autograd grad
    mode.
    """
    prev = _INIT_MODE.deferred
    _INIT_MODE.deferred = True
    try:
        yield
    finally:
        _INIT_MODE.deferred = prev


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform: U(-l, l) with l = sqrt(6 / (fan_in + fan_out))."""
    if _INIT_MODE.deferred:
        return np.zeros(shape, dtype=np.float64)
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Orthogonal initializer (used for GRU recurrent kernels)."""
    if _INIT_MODE.deferred:
        return np.zeros(shape, dtype=np.float64)
    rows, cols = shape
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))  # make the decomposition unique
    if rows < cols:
        q = q.T
    return q[:rows, :cols]


# `rng` keeps the uniform initializer signature so registries can call any
# initializer interchangeably; zeros is deterministic by construction.
def zeros(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def embedding_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, scale: float = 0.05
) -> np.ndarray:
    """Keras-style RandomUniform(-scale, scale) used for embedding tables."""
    if _INIT_MODE.deferred:
        return np.zeros(shape, dtype=np.float64)
    return rng.uniform(-scale, scale, size=shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("initializer shape must have at least one dimension")
    if len(shape) == 1:
        return shape[0], shape[0]
    return shape[0], shape[1]
