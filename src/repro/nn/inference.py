"""Tape-free inference engine: compile a fitted Module into pure numpy.

Training needs the autograd tape; serving does not. The paper's production
loop (§3 steps 3–5) runs the trained Env2Vec model continuously over
streaming testbed metrics, so every wasted allocation on the predict path
is paid once per timestep per testbed. This module "compiles" a fitted
:class:`~repro.nn.layers.Module` into an :class:`InferenceModel`:

- weights are snapshotted as contiguous arrays (optionally ``float32``),
  with recurrent gate kernels stacked into one batched matmul per step
  (:func:`repro.nn.ops.fuse_gru_weights` / ``fuse_lstm_weights``);
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

import threading
import time
from collections import OrderedDict
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
_M_CACHE_HITS = _OBS.counter(
    "repro_env_cache_hits_total", "Env-embedding LRU row-cache hits."
)
_M_CACHE_MISSES = _OBS.counter(
    "repro_env_cache_misses_total", "Env-embedding LRU row-cache misses."
)

__all__ = [
    "FLOAT32_ATOL",
    "UnsupportedModuleError",
    "InferenceModel",
    "EmbeddingRowCache",
    "CompiledDense",
    "compile_module",
    "compile_plan",
    "compile_recurrent",
    "compile_attention",
    "register_compiler",
    "snapshot",
]


#: Documented parity bound for ``float32`` engines: max |compiled_f32 −
#: autograd_f64| observed across the encoder zoo and trained Env2Vec
#: models is ≈1e-6 (single-precision rounding through ~20 elementwise/
#: GEMM ops); the bound keeps two orders of magnitude of headroom.
#: ``float64`` engines stay at the ≤1e-10 contract.
FLOAT32_ATOL = 1e-4


class UnsupportedModuleError(TypeError):
    """No compile rule is registered for the module's exact type."""


def snapshot(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Contiguous, dtype-converted copy of a parameter — the engine never
    aliases live training weights, so an optimizer step cannot corrupt a
    compiled model. (``ascontiguousarray`` alone would alias when the input
    is already contiguous in the right dtype, hence the explicit copy.)"""
    return np.array(array, dtype=dtype, order="C", copy=True)


class CompiledDense:
    """``activation(x @ W + b)`` over snapshotted weights."""

    __slots__ = ("weight", "bias", "act", "_act_fn")

    def __init__(self, dense: Dense, dtype: np.dtype):
        self.weight = snapshot(dense.weight.data, dtype)
        self.bias = snapshot(dense.bias.data, dtype)
        self.act = dense.activation_name
        # Resolve the activation once — the per-call string-compare chain
        # in activation_inplace is measurable at batch size 1.
        self._act_fn = ops._resolve_act(self.act)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # The GEMM result is a throwaway: fold the bias add and the
        # activation into it in place (bitwise identical to the naive
        # ``activation(x @ W + b)``, one allocation instead of three).
        pre = x @ self.weight
        pre += self.bias
        if self._act_fn is not None:
            return self._act_fn(pre, pre)
        return pre


def compile_recurrent(module: GRU | LSTM, dtype: np.dtype) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a GRU/LSTM layer into a fused tape-free sequence runner."""
    if isinstance(module, GRU):
        cell = module.cell
        fused = ops.fuse_gru_weights(
            cell.w_z.data, cell.u_z.data, cell.b_z.data,
            cell.w_r.data, cell.u_r.data, cell.b_r.data,
            cell.w_h.data, cell.u_h.data, cell.b_h.data,
            dtype=dtype,
        )
        act = cell.activation_name
        return_sequences = module.return_sequences

        def run_gru(sequence: np.ndarray) -> np.ndarray:
            return ops.gru_sequence(sequence, fused, act, return_sequences)

        return run_gru
    if isinstance(module, LSTM):
        cell = module.cell
        fused = ops.fuse_lstm_weights(
            cell.w_i.data, cell.u_i.data, cell.b_i.data,
            cell.w_f.data, cell.u_f.data, cell.b_f.data,
            cell.w_o.data, cell.u_o.data, cell.b_o.data,
            cell.w_g.data, cell.u_g.data, cell.b_g.data,
            dtype=dtype,
        )
        return_sequences = module.return_sequences

        def run_lstm(sequence: np.ndarray) -> np.ndarray:
            return ops.lstm_sequence(sequence, fused, return_sequences)

        return run_lstm
    raise UnsupportedModuleError(f"not a recurrent layer: {type(module).__name__}")


def compile_attention(
    module: AdditiveAttention, dtype: np.dtype
) -> Callable[[np.ndarray], np.ndarray]:
    """Compile additive attention pooling (weights snapshotted)."""
    projection = snapshot(module.projection.data, dtype)
    context = snapshot(module.context.data, dtype)

    def run_attention(sequence: np.ndarray) -> np.ndarray:
        return ops.attention_pool(sequence, projection, context)

    return run_attention


class EmbeddingRowCache:
    """LRU cache of concatenated environment-embedding rows ``C``.

    Environments repeat for every timestep of a test execution (and across
    executions of the same build chain), so the per-field gathers and the
    concatenation ``C = [ec^1, ..., ec^k]`` (eq. 1) are recomputed millions
    of times on identical id tuples. Caching the finished row keyed by the
    env-id tuple turns the embedding branch of a streaming prediction into
    one dict hit; with the Hadamard head the whole environment side of
    eq. 2 then costs a single cached gather + dot per step.

    With ``project`` (a ``(dim, out)`` matrix) the cache holds each
    concatenated row times ``project`` instead: a linear map applied to
    ``C`` once per environment rather than once per prediction.

    Cached rows are handed out by reference, so they are marked
    non-writeable before they enter the cache: a caller mutating a
    returned row would otherwise silently corrupt every future prediction
    for that environment. Mutation attempts raise ``ValueError`` instead.
    The single-row fast path returns a read-only view; the multi-row path
    fancy-indexes into a fresh (writable) batch. Lookups are guarded by a
    per-cache lock so threads (e.g. the serve loop and a caller's own
    thread) can share one compiled engine.
    """

    def __init__(
        self, tables: list[np.ndarray], dtype: np.dtype, maxsize: int = 4096,
        project: np.ndarray | None = None,
    ):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.tables = [snapshot(table, dtype) for table in tables]
        self.project = None if project is None else snapshot(project, dtype)
        self.dim = int(sum(table.shape[1] for table in self.tables))
        if self.project is not None:
            self.dim = self.project.shape[1]
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._cache: OrderedDict[tuple[int, ...], np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        # Mixed-radix multipliers: one int64 composite key per id row, so
        # the batch path can dedup with a single vectorized np.unique
        # instead of hashing every row through a python loop.
        self._sizes = np.array([table.shape[0] for table in self.tables], dtype=np.int64)
        radix = np.ones(len(self.tables), dtype=np.int64)
        for j in range(len(self.tables) - 2, -1, -1):
            radix[j] = radix[j + 1] * self._sizes[j + 1]
        self._radix = radix

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    def _row(self, key: tuple[int, ...]) -> np.ndarray:
        """One read-only cached row; takes the cache lock per lookup."""
        if key and min(key) < 0:
            # numpy would silently wrap a negative index; and under the
            # batch path's composite keys a negative id could alias a
            # valid tuple, so it must never reach the gather.
            raise IndexError(f"negative environment id in {key}")
        with self._lock:
            row = self._cache.get(key)
            if row is not None:
                self.hits += 1
                self._cache.move_to_end(key)
                return row
            self.misses += 1
            row = np.concatenate([table[i] for table, i in zip(self.tables, key)])
            if self.project is not None:
                row = row @ self.project
            row.setflags(write=False)
            self._cache[key] = row
            if len(self._cache) > self.maxsize:
                self._cache.popitem(last=False)
            return row

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """``(n, n_fields)`` id matrix -> ``(n, dim)`` concatenated rows.

        The batch path is vectorized over the whole batch: each row is
        collapsed to one mixed-radix int64 composite key, a single
        ``np.unique`` dedups them, and only the distinct keys touch the
        LRU (same hit/miss accounting as row-at-a-time lookup — one
        touch per distinct environment per batch). A 256-row batch of
        repeating environments costs one ``np.unique`` plus a handful of
        dict operations instead of 256; the common serve/campaign case of
        a single-environment batch skips even the sort. Out-of-range ids
        raise ``IndexError`` from the gather itself (negative in
        :meth:`_row`, too-large from the table indexing).
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] != len(self.tables):
            raise ValueError(f"expected ids of shape (n, {len(self.tables)}); got {ids.shape}")
        if len(ids) == 0:
            return np.empty((0, self.dim), dtype=self.tables[0].dtype)
        if len(ids) == 1:  # streaming fast path: one tuple hash
            return self._row(tuple(ids[0].tolist()))[None, :]
        if ids[0, 0] == ids[-1, 0] and bool((ids == ids[0]).all()):
            # Single-environment batch (chain-affinity sharding and serve
            # micro-batches produce these constantly): one LRU touch, one
            # broadcast copy — no composite keys, no sort.
            out = np.empty((len(ids), self.dim), dtype=self.tables[0].dtype)
            np.copyto(out, self._row(tuple(ids[0].tolist())))
            return out
        keys = ids @ self._radix
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        gathered = [self._row(tuple(ids[i].tolist())) for i in first]
        return np.asarray(gathered)[inverse]


_COMPILERS: dict[type, Callable[[object, np.dtype], Callable[..., np.ndarray]]] = {}


def register_compiler(cls: type):
    """Register a compile rule: ``fn(module, dtype) -> forward_fn``.

    ``forward_fn`` takes the same keyword arrays as the module's ``forward``
    and returns a numpy array. Attributes set on ``forward_fn`` (e.g. an
    ``env_cache``) are surfaced on the :class:`InferenceModel`.
    """

    def decorator(fn):
        _COMPILERS[cls] = fn
        return fn

    return decorator


class InferenceModel:
    """A compiled, tape-free forward for a fitted module.

    Every kernel in the compiled plan is row-wise: predictions for a row
    do not depend on which other rows share the batch. Callers that
    coalesce traffic (``predict_many``, the ``repro.serve``
    micro-batcher) rely on this to keep batched results bitwise equal to
    per-request ones.
    """

    def __init__(self, forward_fn: Callable[..., np.ndarray], source, dtype: np.dtype):
        self._forward = forward_fn
        self._source = source
        self.dtype = dtype
        #: free-form tags owners attach to a compiled engine — the serve
        #: warm pool stamps the model-store version it was compiled for,
        #: so operators can tell resident engines apart in diagnostics.
        self.meta: dict = {}
        #: the Env2Vec engine's embedding-row cache, if the plan has one
        self.env_cache: EmbeddingRowCache | None = getattr(forward_fn, "env_cache", None)
        # The row cache counts its own hits/misses as plain ints (the per-
        # lookup path stays untouched); the engine publishes the deltas to
        # the global counters after each instrumented forward.
        self._cache_hits_seen = 0
        self._cache_misses_seen = 0

    def __call__(self, **inputs) -> np.ndarray:
        if not _ENABLED.on:
            return self._forward(**inputs)
        start = _clock()
        out = self._forward(**inputs)
        _H_PREDICT.observe(_clock() - start)
        cache = self.env_cache
        if cache is not None:
            # Sync only non-zero deltas: a warm streaming loop advances just
            # the hit count, so this is usually one inc, not two.
            hits = cache.hits
            if hits != self._cache_hits_seen:
                _M_CACHE_HITS.inc(hits - self._cache_hits_seen)
                self._cache_hits_seen = hits
            misses = cache.misses
            if misses != self._cache_misses_seen:
                _M_CACHE_MISSES.inc(misses - self._cache_misses_seen)
                self._cache_misses_seen = misses
        return out

    def predict(self, inputs: Mapping[str, np.ndarray], batch_size: int | None = None) -> np.ndarray:
        """Vectorized prediction, optionally chunked to bound peak memory.

        Zero-row inputs are answered by one zero-row forward (every
        compiled kernel is shape-polymorphic down to ``n == 0``), so a
        chunked call never reaches ``np.concatenate([])``. An empty
        *mapping* is a caller bug and raises ``ValueError``.
        """
        if not inputs:
            raise ValueError("inputs must contain at least one named array")
        if batch_size is None:
            return self(**inputs)
        n = len(next(iter(inputs.values())))
        if n == 0:
            return self(**inputs)
        outputs = [
            self(**{key: value[start : start + batch_size] for key, value in inputs.items()})
            for start in range(0, n, batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    def predict_many(
        self,
        inputs_list: list[Mapping[str, np.ndarray]],
        batch_size: int | None = None,
    ) -> list[np.ndarray]:
        """Coalesce several aligned input dicts into batched forwards.

        Campaign days and serve batches score many executions that share
        one model version; issuing one forward per execution wastes the
        fixed per-call overhead (dispatch, instrumentation, small-matmul
        setup). This concatenates the inputs row-wise, runs them through
        :meth:`predict`, and splits the output back per execution. Every
        kernel on the compiled path is row-wise, so the split results are
        bitwise identical to per-execution ``predict`` calls — the
        byte-identical coalescing in ``PredictionPipeline`` relies on it.
        """
        if not inputs_list:
            return []
        keys = tuple(inputs_list[0])
        if not keys:
            raise ValueError("inputs must contain at least one named array")
        for inputs in inputs_list:
            if tuple(inputs) != keys:
                raise ValueError(
                    f"cannot coalesce inputs with differing keys: {tuple(inputs)} vs {keys}"
                )
        if len(inputs_list) == 1:
            return [self.predict(inputs_list[0], batch_size=batch_size)]
        lengths = [len(next(iter(inputs.values()))) for inputs in inputs_list]
        merged = {
            key: np.concatenate([np.asarray(inputs[key]) for inputs in inputs_list], axis=0)
            for key in keys
        }
        out = self.predict(merged, batch_size=batch_size)
        pieces, start = [], 0
        for n in lengths:
            pieces.append(out[start : start + n])
            start += n
        return pieces

    def assert_close(self, inputs: Mapping[str, np.ndarray], atol: float | None = None) -> float:
        """Check parity against the source module's autograd forward.

        Runs the original module in eval mode under ``no_grad`` and compares
        elementwise. Returns the max absolute difference; raises
        ``AssertionError`` beyond ``atol``. The default tolerance follows
        the engine dtype: ``1e-10`` for ``float64`` (the bitwise-faithful
        serving default), :data:`FLOAT32_ATOL` for ``float32`` engines.
        """
        if atol is None:
            atol = 1e-10 if self.dtype == np.float64 else FLOAT32_ATOL
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


def compile_plan(module, dtype=np.float64) -> Callable[..., np.ndarray]:
    """The registered compile rule's raw forward closure, no engine wrapper.

    This is how one module's plan embeds inside another's: the Env2Vec
    compile rule dispatches its time-series branch through the registry
    (``compile_plan(model.encoder, dtype)``) instead of special-casing
    recurrent/attention layer types. Raises
    :class:`UnsupportedModuleError` when no rule is registered for the
    module's exact type (subclasses may override ``forward``, so they are
    deliberately not matched through the MRO).
    """
    dtype = np.dtype(dtype)
    compiler = _COMPILERS.get(type(module))
    if compiler is None:
        raise UnsupportedModuleError(
            f"no inference compiler registered for {type(module).__name__}"
        )
    return compiler(module, dtype)


def compile_module(module, dtype=np.float64) -> InferenceModel:
    """Compile a fitted module into an :class:`InferenceModel`.

    Raises :class:`UnsupportedModuleError` when no rule is registered for
    the module's exact type (see :func:`compile_plan`).
    """
    dtype = np.dtype(dtype)
    start = time.perf_counter()
    engine = InferenceModel(compile_plan(module, dtype), module, dtype)
    _H_COMPILE.observe(time.perf_counter() - start)
    return engine


@register_compiler(Dense)
def _compile_dense(module: Dense, dtype: np.dtype):
    layer = CompiledDense(module, dtype)

    def forward(x: np.ndarray) -> np.ndarray:
        return layer(np.asarray(x, dtype=dtype))

    return forward


@register_compiler(Sequential)
def _compile_sequential(module: Sequential, dtype: np.dtype):
    steps = []
    for sub in module.modules:
        if type(sub) is Dropout:  # eval-mode identity: elide from the plan
            continue
        if type(sub) is Dense:
            steps.append(CompiledDense(sub, dtype))
            continue
        raise UnsupportedModuleError(
            f"Sequential contains uncompilable layer {type(sub).__name__}"
        )

    def forward(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=dtype)
        for step in steps:
            x = step(x)
        return x

    return forward
