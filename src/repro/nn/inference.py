"""Tape-free inference engine: compile a fitted Module into pure numpy.

Training needs the autograd tape; serving does not. The paper's production
loop (§3 steps 3–5) runs the trained Env2Vec model continuously over
streaming testbed metrics, so every wasted allocation on the predict path
is paid once per timestep per testbed. This module "compiles" a fitted
:class:`~repro.nn.layers.Module` into an :class:`InferenceModel`:

- weights are snapshotted as contiguous arrays in their own dtype
  (float64, the dtype :class:`~repro.nn.tensor.Tensor` stores), with
  recurrent gate kernels stacked into one batched matmul per step
  (:func:`repro.nn.ops.fuse_gru_weights` / ``fuse_lstm_weights``), and
  each plan casts its inputs to that dtype at entry;
- dropout is elided entirely (it is already a no-op in eval mode — here it
  doesn't even appear in the compiled plan);
- no :class:`~repro.nn.tensor.Tensor` objects, backward closures, or graph
  bookkeeping exist anywhere on the path — each forward is plain vectorized
  numpy over the :mod:`repro.nn.ops` kernels;
- :meth:`InferenceModel.assert_close` checks numerical parity against the
  autograd forward, so a compiled model can prove it matches the weights it
  was built from.

Model-specific compile rules live next to the model classes (e.g.
:mod:`repro.core.model` registers the Env2Vec architecture) and plug in via
:func:`register_compiler`. Matching is by *exact* type: a subclass that
overrides ``forward`` must register its own rule, otherwise compilation
refuses rather than silently using the parent's plan.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Mapping

import numpy as np

from . import ops
from ..obs import LATENCY_BUCKETS, get_observability
from .attention import AdditiveAttention
from .gru import GRU
from .layers import Dense, Dropout, Sequential
from .lstm import LSTM
from .tensor import no_grad

_OBS = get_observability()
_REGISTRY = _OBS.registry
# One slot read per forward instead of a property call — this is the most
# frequently executed enabled check in the repo (once per predict batch).
_ENABLED = _REGISTRY.enabled_cell
_clock = time.perf_counter
_H_COMPILE = _OBS.histogram(
    "repro_nn_compile_seconds",
    "Time to compile a fitted module into a tape-free inference plan.",
    buckets=LATENCY_BUCKETS,
)
_H_PREDICT = _OBS.histogram(
    "repro_nn_predict_batch_seconds",
    "Per-batch forward latency of compiled inference models.",
    buckets=LATENCY_BUCKETS,
)

__all__ = [
    "UnsupportedModuleError",
    "InferenceModel",
    "CompiledDense",
    "compile_module",
    "compile_plan",
    "compile_recurrent",
    "compile_attention",
    "predict_in_chunks",
    "register_compiler",
    "snapshot",
]


class UnsupportedModuleError(TypeError):
    """No compile rule is registered for the module's exact type."""


def snapshot(array: np.ndarray) -> np.ndarray:
    """Contiguous copy of a parameter in its own dtype — the engine never
    aliases live training weights, so an optimizer step cannot corrupt a
    compiled model. (``ascontiguousarray`` alone would alias when the input
    is already contiguous, hence the explicit copy.)"""
    return np.array(array, order="C", copy=True)


#: OpenBLAS runs a GEMM of at most this many multiply-adds (m·n·k) on
#: the calling thread (its small-matrix kernel) and splits a larger one
#: across threads. On a 2-vCPU host whose other core is busy, as with
#: two serve worker processes, each threaded GEMM waited ≈8 ms for that
#: core: a 320-row batch through the Env2Vec combine layer (80 × 40)
#: took 8 ms instead of 45 µs.
_SMALL_GEMM = 1_000_000


class CompiledDense:
    """``activation(x @ W + b)`` over snapshotted weights.

    Batches whose GEMM would exceed :data:`_SMALL_GEMM` multiply-adds
    are multiplied in row blocks below it, so the layer never waits on
    BLAS threads. Every block has at least two rows (numpy sends a
    one-row matmul to gemv), and rows are independent, so blocking does
    not change a bit.
    """

    __slots__ = ("weight", "bias", "act", "_act_fn", "_block_rows")

    def __init__(self, dense: Dense):
        self.weight = snapshot(dense.weight.data)
        self.bias = snapshot(dense.bias.data)
        self.act = dense.activation_name
        # Resolve the activation once — the per-call string-compare chain
        # in activation_inplace is measurable at batch size 1.
        self._act_fn = ops._resolve_act(self.act)
        # At least 3, so a balanced split never leaves a one-row block.
        self._block_rows = max(3, _SMALL_GEMM // self.weight.size)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # The GEMM result is a throwaway: fold the bias add and the
        # activation into it in place (bitwise identical to the naive
        # ``activation(x @ W + b)``, one allocation instead of three).
        n = len(x)
        if n <= self._block_rows:
            pre = x @ self.weight
        else:
            pre = np.empty((n, self.weight.shape[1]), dtype=np.result_type(x, self.weight))
            blocks = -(-n // self._block_rows)
            bounds = [n * i // blocks for i in range(blocks + 1)]
            for start, stop in zip(bounds[:-1], bounds[1:]):
                np.matmul(x[start:stop], self.weight, out=pre[start:stop])
        pre += self.bias
        if self._act_fn is not None:
            return self._act_fn(pre, pre)
        return pre


def compile_recurrent(module: GRU | LSTM) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a GRU/LSTM layer into a fused tape-free sequence runner
    that casts its input to the weights' dtype."""
    if isinstance(module, GRU):
        cell = module.cell
        fused = ops.fuse_gru_weights(
            cell.w_z.data, cell.u_z.data, cell.b_z.data,
            cell.w_r.data, cell.u_r.data, cell.b_r.data,
            cell.w_h.data, cell.u_h.data, cell.b_h.data,
        )
        dtype = fused["u"].dtype
        act = cell.activation_name
        return_sequences = module.return_sequences

        def run_gru(sequence: np.ndarray) -> np.ndarray:
            return ops.gru_sequence(np.asarray(sequence, dtype=dtype), fused, act, return_sequences)

        return run_gru
    if isinstance(module, LSTM):
        cell = module.cell
        fused = ops.fuse_lstm_weights(
            cell.w_i.data, cell.u_i.data, cell.b_i.data,
            cell.w_f.data, cell.u_f.data, cell.b_f.data,
            cell.w_o.data, cell.u_o.data, cell.b_o.data,
            cell.w_g.data, cell.u_g.data, cell.b_g.data,
        )
        dtype = fused["u"].dtype
        return_sequences = module.return_sequences

        def run_lstm(sequence: np.ndarray) -> np.ndarray:
            return ops.lstm_sequence(np.asarray(sequence, dtype=dtype), fused, return_sequences)

        return run_lstm
    raise UnsupportedModuleError(f"not a recurrent layer: {type(module).__name__}")


def compile_attention(module: AdditiveAttention) -> Callable[[np.ndarray], np.ndarray]:
    """Compile additive attention pooling (weights snapshotted)."""
    projection = snapshot(module.projection.data)
    context = snapshot(module.context.data)

    def run_attention(sequence: np.ndarray) -> np.ndarray:
        return ops.attention_pool(sequence, projection, context)

    return run_attention


_COMPILERS: dict[type, Callable[[object], Callable[..., np.ndarray]]] = {}


def register_compiler(cls: type):
    """Register a compile rule: ``fn(module) -> forward_fn``.

    ``forward_fn`` takes the same keyword arrays as the module's ``forward``
    and returns a numpy array.
    """

    def decorator(fn):
        _COMPILERS[cls] = fn
        return fn

    return decorator


class InferenceModel:
    """A compiled, tape-free forward for a fitted module.

    Every kernel in the compiled plan is row-wise: predictions for a row
    do not depend on which other rows share the batch or on the chunk
    size :meth:`predict` cuts it into. The prediction pipeline, which
    coalesces every execution of a batch (and so every ``repro.serve``
    micro-batch) into one forward, relies on this to keep batched results
    bitwise equal to per-request ones.
    """

    def __init__(self, forward_fn: Callable[..., np.ndarray], source):
        self._forward = forward_fn
        self._source = source
        #: ``None``: no compiled plan caches embedding rows (the Env2Vec
        #: plan gathers them on every forward). Readable for tracing
        #: tools that report a row cache's hits when a plan has one.
        self.env_cache = None

    def __call__(self, **inputs) -> np.ndarray:
        # _timed inlined: this is the served batch-1 call.
        if not _ENABLED.on:
            return self._forward(**inputs)
        start = _clock()
        out = self._forward(**inputs)
        _H_PREDICT.observe(_clock() - start)
        return out

    def _timed(self, forward: Callable[..., np.ndarray], **inputs) -> np.ndarray:
        """``forward(**inputs)``, observed in ``repro_nn_predict_batch_seconds``."""
        if not _ENABLED.on:
            return forward(**inputs)
        start = _clock()
        out = forward(**inputs)
        _H_PREDICT.observe(_clock() - start)
        return out

    def predict(
        self, inputs: Mapping[str, np.ndarray], batch_size: int | None = None, part: str | None = None
    ) -> np.ndarray:
        """Vectorized prediction, optionally chunked to bound peak memory
        (:func:`predict_in_chunks` over this engine's forward).

        ``part`` names one part of the plan to run instead of the whole
        forward: the Env2Vec plan's ``"branches"`` or ``"head"`` half.
        Its chunks are timed like whole forwards.
        """
        if part is None:
            return predict_in_chunks(self, inputs, batch_size)
        return predict_in_chunks(partial(self._timed, getattr(self._forward, part)), inputs, batch_size)

    def assert_close(self, inputs: Mapping[str, np.ndarray], atol: float = 1e-10) -> float:
        """Check parity against the source module's autograd forward.

        Runs the original module in eval mode under ``no_grad`` and compares
        elementwise. Returns the max absolute difference; raises
        ``AssertionError`` beyond ``atol``. The compiled plans replay the
        autograd op order, so most are bitwise equal to it; the Env2Vec
        ``hadamard`` and ``bilinear`` heads are not, because they sum
        with ``einsum`` where autograd sums ``(v * C).sum(axis=1)``, and
        differ by up to about 2e-17. The default ``1e-10`` holds with
        room to spare.
        """
        compiled = np.asarray(self._forward(**inputs), dtype=np.float64)
        was_training = getattr(self._source, "training", False)
        self._source.eval()
        try:
            with no_grad():
                reference = self._source(**inputs).numpy()
        finally:
            if was_training:
                self._source.train()
        max_err = float(np.max(np.abs(compiled - reference))) if compiled.size else 0.0
        if max_err > atol:
            raise AssertionError(
                f"compiled inference diverges from autograd forward: "
                f"max |Δ| = {max_err:.3e} > atol = {atol:.1e}"
            )
        return max_err


def predict_in_chunks(
    forward: Callable[..., np.ndarray], inputs: Mapping[str, np.ndarray], batch_size: int | None = None
) -> np.ndarray:
    """``forward(**inputs)`` in chunks of at most ``batch_size`` rows.

    A lone row, whether a one-row call or a one-row last chunk, runs
    as two copies of itself: numpy computes a one-row matmul with
    gemv, whose summation order differs from the gemm every larger
    batch uses, so only a two-row forward gives the row the bytes it
    gets inside any batch. Zero-row inputs are answered by one
    zero-row forward (every compiled kernel is shape-polymorphic down
    to ``n == 0``), so a chunked call never reaches
    ``np.concatenate([])``. An empty *mapping* is a caller bug and
    raises ``ValueError``.
    """
    if not inputs:
        raise ValueError("inputs must contain at least one named array")
    n = len(next(iter(inputs.values())))
    if batch_size is None or n <= batch_size:
        return _forward_rows(forward, inputs)
    outputs = [
        _forward_rows(forward, {key: value[start : start + batch_size] for key, value in inputs.items()})
        for start in range(0, n, batch_size)
    ]
    return np.concatenate(outputs, axis=0)


def _forward_rows(forward: Callable[..., np.ndarray], inputs: Mapping[str, np.ndarray]) -> np.ndarray:
    if len(next(iter(inputs.values()))) != 1:
        return forward(**inputs)
    return forward(**{key: np.concatenate([value, value]) for key, value in inputs.items()})[:1]


def compile_plan(module) -> Callable[..., np.ndarray]:
    """The registered compile rule's raw forward closure, no engine wrapper.

    This is how one module's plan embeds inside another's: the Env2Vec
    compile rule dispatches its time-series branch through the registry
    (``compile_plan(model.encoder)``) instead of special-casing
    recurrent/attention layer types. Raises
    :class:`UnsupportedModuleError` when no rule is registered for the
    module's exact type (subclasses may override ``forward``, so they are
    deliberately not matched through the MRO).
    """
    compiler = _COMPILERS.get(type(module))
    if compiler is None:
        raise UnsupportedModuleError(
            f"no inference compiler registered for {type(module).__name__}"
        )
    return compiler(module)


def compile_module(module) -> InferenceModel:
    """Compile a fitted module into an :class:`InferenceModel`.

    Raises :class:`UnsupportedModuleError` when no rule is registered for
    the module's exact type (see :func:`compile_plan`).
    """
    start = time.perf_counter()
    engine = InferenceModel(compile_plan(module), module)
    _H_COMPILE.observe(time.perf_counter() - start)
    return engine


@register_compiler(Dense)
def _compile_dense(module: Dense):
    layer = CompiledDense(module)
    dtype = layer.weight.dtype

    def forward(x: np.ndarray) -> np.ndarray:
        return layer(np.asarray(x, dtype=dtype))

    return forward


@register_compiler(Sequential)
def _compile_sequential(module: Sequential):
    steps = []
    for sub in module.modules:
        if type(sub) is Dropout:  # eval-mode identity: elide from the plan
            continue
        if type(sub) is Dense:
            steps.append(CompiledDense(sub))
            continue
        raise UnsupportedModuleError(
            f"Sequential contains uncompilable layer {type(sub).__name__}"
        )
    # An all-dropout stack is the identity on Tensor's float64.
    dtype = steps[0].weight.dtype if steps else np.float64

    def forward(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=dtype)
        for step in steps:
            x = step(x)
        return x

    return forward
