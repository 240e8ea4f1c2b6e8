"""Functional numpy kernels shared by the autograd layers and the inference engine.

This module is the *ops core* of the ``repro.nn`` stack: every forward
kernel is pure numpy — no :class:`~repro.nn.tensor.Tensor`, no tape — and
returns ``(output, cache)`` where ``cache`` holds exactly the intermediates
its matching ``*_backward`` kernel needs. Two consumers sit on top:

- the layer classes (:mod:`repro.nn.layers`, :mod:`repro.nn.gru`,
  :mod:`repro.nn.lstm`, :mod:`repro.nn.attention`) call a forward kernel
  once and register the matching backward kernel as a single tape node via
  :func:`repro.nn.tensor.apply_op` — differentiable training math; the
  Env2Vec model's body (:class:`repro.core.model.Env2VecModel`) chains
  the dense, dropout, embedding and head kernels into one such node;
- the tape-free engine (:mod:`repro.nn.inference`) calls the forward
  kernels (and the sequence runners at the bottom of this module)
  directly and throws the caches away — lean serving math.

Keeping both paths on one set of kernels is what makes the engine's
``assert_close`` parity guarantee cheap to maintain: there is one
implementation of the math, exercised by the finite-difference gradient
checks in ``tests/nn/``. A GRU or LSTM layer is one whole-sequence node
(``*_sequence_forward``/``*_sequence_backward``) whose recurrence loop is
the very one the compiled runners execute.
"""

from __future__ import annotations


import numpy as np

__all__ = [
    "activation",
    "activation_inplace",
    "activation_delta",
    "dense_forward",
    "dense_backward",
    "embedding_forward",
    "embedding_backward",
    "stacked_embedding_forward",
    "dropout_mask",
    "dropout_forward",
    "dropout_backward",
    "gru_sequence_forward",
    "gru_sequence_backward",
    "lstm_sequence_forward",
    "lstm_sequence_backward",
    "attention_forward",
    "attention_pool",
    "attention_backward",
    "hadamard_head",
    "hadamard_head_backward",
    "bilinear_head",
    "bilinear_head_backward",
    "fuse_gru_weights",
    "gru_sequence",
    "fuse_lstm_weights",
    "lstm_sequence",
    "ACTIVATION_NAMES",
]

ACTIVATION_NAMES = ("linear", "relu", "sigmoid", "tanh")


def _sigmoid_into(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """``dst = 1 / (1 + exp(-src))``: the one sigmoid, for every dtype.

    Training, compiled inference and both precisions run this same
    composition of numpy's SIMD ``exp`` (about 1 ns per element; scipy's
    ``expit`` costs about 8), which is what keeps compiled float64 bitwise
    equal to autograd. ``src`` may alias ``dst``. ``exp`` overflows to
    ``inf`` for saturated negative inputs and ``1 / (1 + inf)`` is the
    correct ``0.0`` tail, so callers run it under
    ``np.errstate(over="ignore")``, entered once per call rather than
    per timestep (it costs about 2 µs).
    """
    np.negative(src, out=dst)
    np.exp(dst, out=dst)
    dst += 1.0
    return np.reciprocal(dst, out=dst)


def _guarded_sigmoid_into(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """:func:`_sigmoid_into` with its overflow guard, for callers outside
    a runner loop."""
    with np.errstate(over="ignore"):
        return _sigmoid_into(src, dst)


def activation(name: str, pre: np.ndarray) -> np.ndarray:
    """Apply a named activation to pre-activation values."""
    if name == "linear":
        return pre
    if name == "relu":
        return np.maximum(pre, 0.0)
    if name == "sigmoid":
        return _guarded_sigmoid_into(pre, np.empty_like(pre))
    if name == "tanh":
        return np.tanh(pre)
    raise ValueError(f"unknown activation {name!r}; choose from {ACTIVATION_NAMES}")


def activation_inplace(name: str, x: np.ndarray) -> np.ndarray:
    """Apply a named activation *in place*.

    The compiled engine's buffers are throwaway, so it overwrites them
    instead of allocating; :func:`dense_forward` does the same for the
    activations whose derivative reads only the output. Autograd kernels
    whose backward reads the pre-activation (relu) use :func:`activation`.
    Elementwise results are bitwise identical to :func:`activation`
    (sigmoid is the same composition either way).
    """
    if name == "linear":
        return x
    if name == "relu":
        return np.maximum(x, 0.0, out=x)
    if name == "sigmoid":
        return _guarded_sigmoid_into(x, x)
    if name == "tanh":
        return np.tanh(x, out=x)
    raise ValueError(f"unknown activation {name!r}; choose from {ACTIVATION_NAMES}")


#: Hoisted activation callables ``fn(src, dst)`` (``dst`` may be ``src``)
#: for the sequence runners and compiled dense layers: one dict lookup
#: per *call* instead of a string-compare chain per *timestep*.
#: ``linear`` maps to ``None`` (callers skip it, or copy). float64 bits
#: match :func:`activation` exactly — same ufuncs.
_ACT_INTO = {
    "linear": None,
    "relu": lambda src, dst: np.maximum(src, 0.0, out=dst),
    "sigmoid": _guarded_sigmoid_into,
    "tanh": lambda src, dst: np.tanh(src, out=dst),
}


def _resolve_act(act: str):
    try:
        return _ACT_INTO[act]
    except KeyError:
        raise ValueError(
            f"unknown activation {act!r}; choose from {ACTIVATION_NAMES}"
        ) from None


def activation_delta(
    name: str, grad: np.ndarray, pre: np.ndarray, out: np.ndarray, delta: np.ndarray | None = None
) -> np.ndarray:
    """Gradient w.r.t. ``pre`` given the gradient w.r.t. ``out``.

    Written into ``delta`` when given; sigmoid and tanh then take their
    one temporary from scratch. ``linear`` returns ``grad``.
    """
    if name == "linear":
        return grad
    if name == "relu":
        return np.multiply(grad, pre > 0, out=delta)
    tmp = None if delta is None else _scratch("delta_tmp", *out.shape)
    if name == "sigmoid":
        # grad * out * (1 - out)
        tmp = np.subtract(1.0, out, out=tmp)
        delta = np.multiply(grad, out, out=delta)
        delta *= tmp
        return delta
    if name == "tanh":
        # grad * (1 - out * out)
        tmp = np.multiply(out, out, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        return np.multiply(grad, tmp, out=delta)
    raise ValueError(f"unknown activation {name!r}; choose from {ACTIVATION_NAMES}")


# ---------------------------------------------------------------------------
# Dense
# ---------------------------------------------------------------------------
#: Activations whose derivative reads only their output: ``dense_forward``
#: applies them in place over the pre-activation.
_OUTPUT_DELTA = ("sigmoid", "tanh")


def dense_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, act: str = "linear"
) -> tuple[np.ndarray, dict]:
    """``activation(x @ weight + bias)`` for 1-d or 2-d ``x``.

    The bias add runs in place on the matmul's result, and so does a
    sigmoid or tanh: up to two fewer fresh arrays per call, same bits.
    """
    pre = x @ weight
    pre += bias
    out = activation_inplace(act, pre) if act in _OUTPUT_DELTA else activation(act, pre)
    return out, {"x": x, "weight": weight, "pre": pre, "out": out, "act": act}


def dense_backward(
    grad: np.ndarray, cache: dict, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Returns ``(d_x, d_weight, d_bias)``; ``d_x`` is None unless ``input_grad``.

    For a batch, the activation's delta is scratch; every
    returned gradient is fresh.
    """
    x, weight = cache["x"], cache["weight"]
    if x.ndim == 1:
        delta = activation_delta(cache["act"], grad, cache["pre"], cache["out"])
        return delta @ weight.T if input_grad else None, np.outer(x, delta), delta
    delta = activation_delta(
        cache["act"], grad, cache["pre"], cache["out"], _scratch("dense_delta", *grad.shape)
    )
    d_x = delta @ weight.T if input_grad else None
    return d_x, x.T @ delta, delta.sum(axis=0)


# ---------------------------------------------------------------------------
# Embedding gather
# ---------------------------------------------------------------------------
def embedding_forward(table: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, dict]:
    """Row gather ``out[i] = table[ids[i]]``."""
    ids = np.asarray(ids, dtype=np.int64)
    return table[ids], {"shape": table.shape, "ids": ids}


def stacked_embedding_forward(
    stacked: np.ndarray, offsets: np.ndarray, sizes: np.ndarray, ids: np.ndarray
) -> np.ndarray:
    """Each row's per-field embeddings, concatenated: ``(n, k)`` ids -> ``(n, k * dim)``.

    ``stacked`` holds the ``k`` field tables row-wise, field ``j``'s
    ``sizes[j]`` rows (``sizes`` is uint64) starting at ``offsets[j]``.
    ``ids`` is int64. Negative ids wrap to huge unsigned values, so one
    comparison checks both ends of every field's range: an id past its
    own table raises ``IndexError`` instead of reading the next field's
    rows. One ``take`` then gathers every field of every row.
    """
    if len(ids) == 1:
        # Batch-1 streaming: checking python ints is cheaper than the
        # vectorized check's numpy calls. A bad id falls through to it.
        row = ids.tolist()[0]
        if all(0 <= i < size for i, size in zip(row, sizes.tolist())):
            flat = [i + offset for i, offset in zip(row, offsets.tolist())]
            return stacked.take(flat, axis=0).reshape(1, -1)
    bad = ids.view(np.uint64) >= sizes
    if np.count_nonzero(bad):  # a C call; ``bad.any()`` costs ~1 µs more
        field = int(np.argmax(bad.any(axis=0)))
        column = ids[:, field]
        raise IndexError(
            f"embedding ids of field {field} out of range [0, {sizes[field]}): "
            f"min={column.min()}, max={column.max()}"
        )
    return stacked.take(ids + offsets, axis=0).reshape(len(ids), ids.shape[1] * stacked.shape[1])


def embedding_backward(grad: np.ndarray, cache: dict) -> tuple[np.ndarray]:
    """Sum the output gradient back into a dense table gradient.

    One ``np.bincount`` over flattened ``(row, column)`` bins instead of
    the ``np.add.at`` scatter: both add each bin's contributions from 0.0
    in batch order, so the result is bitwise the same, several times
    faster.
    """
    rows, dim = cache["shape"]
    bins = (cache["ids"][:, None] * dim + np.arange(dim)).reshape(-1)
    full = np.bincount(bins, weights=grad.reshape(-1), minlength=rows * dim)
    return (full.reshape(rows, dim),)


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------
def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> np.ndarray:
    """The inverted-dropout multiplier: ``0`` or ``1 / (1 - rate)`` per element,
    one ``rng.random(shape)`` draw."""
    if not 0.0 < rate < 1.0:
        raise ValueError("dropout rate must be in (0, 1)")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def dropout_forward(
    x: np.ndarray, rate: float, rng: np.random.Generator
) -> tuple[np.ndarray, dict]:
    """Inverted dropout; the inference engine simply never calls this."""
    mask = dropout_mask(x.shape, rate, rng)
    return x * mask, {"mask": mask}


def dropout_backward(grad: np.ndarray, cache: dict) -> tuple[np.ndarray]:
    return (grad * cache["mask"],)


# ---------------------------------------------------------------------------
# Additive attention pooling
# ---------------------------------------------------------------------------
def attention_forward(
    sequence: np.ndarray, projection: np.ndarray, context: np.ndarray
) -> tuple[np.ndarray, dict]:
    """Bahdanau-style pooling of ``(batch, timesteps, hidden)`` to ``(batch, hidden)``.

    The cache exposes ``weights`` — the softmax attention distribution —
    for analysis (:attr:`repro.nn.attention.AdditiveAttention.last_weights`).
    """
    batch, timesteps, hidden = sequence.shape
    flat = sequence.reshape(batch * timesteps, hidden)
    proj = np.tanh(flat @ projection)
    scores = (proj @ context).reshape(batch, timesteps)
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    weights = exp / exp.sum(axis=1, keepdims=True)
    out = np.einsum("bt,bth->bh", weights, sequence)
    cache = {
        "sequence": sequence, "projection": projection, "context": context,
        "flat": flat, "proj": proj, "weights": weights,
    }
    return out, cache


def attention_pool(
    sequence: np.ndarray, projection: np.ndarray, context: np.ndarray
) -> np.ndarray:
    """:func:`attention_forward` without the training cache.

    The inference compilers pool with this variant: same arithmetic, same
    bitwise output, but no cache dict holding the full flattened sequence
    and projection alive past the call.
    """
    batch, timesteps, hidden = sequence.shape
    flat = sequence.reshape(batch * timesteps, hidden)
    proj = np.tanh(flat @ projection)
    scores = (proj @ context).reshape(batch, timesteps)
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    weights = exp / exp.sum(axis=1, keepdims=True)
    return np.einsum("bt,bth->bh", weights, sequence)


def attention_backward(grad: np.ndarray, cache: dict) -> tuple[np.ndarray, ...]:
    """Gradients aligned with ``(sequence, projection, context)``."""
    sequence, weights, proj = cache["sequence"], cache["weights"], cache["proj"]
    batch, timesteps, hidden = sequence.shape

    d_weights = np.einsum("bh,bth->bt", grad, sequence)
    d_sequence = weights[:, :, None] * grad[:, None, :]
    # Softmax backward over the time axis.
    d_scores = weights * (d_weights - (d_weights * weights).sum(axis=1, keepdims=True))
    d_scores_flat = d_scores.reshape(batch * timesteps, 1)
    d_context = proj.T @ d_scores_flat
    d_proj_pre = (d_scores_flat @ cache["context"].T) * (1.0 - proj * proj)
    d_projection = cache["flat"].T @ d_proj_pre
    d_sequence = d_sequence + (d_proj_pre @ cache["projection"].T).reshape(
        batch, timesteps, hidden
    )
    return (d_sequence, d_projection, d_context)


# ---------------------------------------------------------------------------
# Prediction heads (paper §3.2)
# ---------------------------------------------------------------------------
def hadamard_head(v_d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``y' = Σ v_d ⊙ C`` (eq. 2) — row-wise dot product."""
    return np.einsum("ij,ij->i", v_d, c)


def hadamard_head_backward(grad: np.ndarray, v_d: np.ndarray, c: np.ndarray):
    """``(d_v_d, d_c)``, both scratch (see :func:`_scratch`)."""
    g = grad[:, None]
    return (
        np.multiply(g, c, out=_scratch("head_dv", *c.shape)),
        np.multiply(g, v_d, out=_scratch("head_dc", *c.shape)),
    )


def bilinear_head(v_d: np.ndarray, r: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``y' = v_d · R · C``; also returns the intermediate ``v_d @ R``."""
    projected = v_d @ r
    return np.einsum("ij,ij->i", projected, c), projected


def bilinear_head_backward(
    grad: np.ndarray, v_d: np.ndarray, r: np.ndarray, c: np.ndarray, projected: np.ndarray
):
    """``(d_v_d, d_r, d_c)``; ``d_v_d`` and ``d_c`` are scratch."""
    g = grad[:, None]
    d_projected = np.multiply(g, c, out=_scratch("head_dp", *c.shape))
    return (
        np.matmul(d_projected, r.T, out=_scratch("head_dv", *v_d.shape)),
        v_d.T @ d_projected,
        np.multiply(g, projected, out=_scratch("head_dc", *c.shape)),
    )


# ---------------------------------------------------------------------------
# Recurrent sequences: one kernel pair per cell type, shared by training
# (a single tape node per layer) and the compiled inference runners
# ---------------------------------------------------------------------------
# Process-wide scratch for the compiled runners. At small batch sizes
# they are dispatch-bound: allocating the input rows, projection, gate
# and state buffers, and slicing every timestep's views out of them,
# costs as much as the math. So a run over at most ``_CACHED_ROWS`` rows
# (timesteps × batch) keeps all of that, views included, per shape; a
# larger run allocates afresh, which its math dwarfs. Scratch carries no
# state between calls (every element is written before it is read), and
# each process runs its kernels on one thread. The one aliasing rule this
# imposes: anything a runner *returns* must be a fresh array — otherwise
# a caller running two sequences back to back (e.g. the bidirectional
# encoder) would watch its first result mutate. The newest
# ``_WORKSPACE_KEYS`` shapes are kept: a campaign scores executions of
# many lengths, and keeping 64 shapes cost it ~9 MiB of peak RSS for no
# measurable speed.
_SCRATCH: dict[tuple, object] = {}
_WORKSPACE_KEYS = 16
_CACHED_ROWS = 1024


def _workspace(key: tuple, builder):
    ws = _SCRATCH.get(key)
    if ws is None:
        if len(_SCRATCH) >= _WORKSPACE_KEYS:
            del _SCRATCH[next(iter(_SCRATCH))]  # oldest first
        ws = _SCRATCH[key] = builder()
    return ws


def _scratch(name: str, *shape: int) -> np.ndarray:
    """A float64 training temporary, valid until the next request for
    ``name`` with the same shape. The training kernels draw their
    projection and backward temporaries from here: fresh arrays of these
    sizes cost ~20 % more encoder time (EXPERIMENTS.md, "Training step"),
    while the saved activations, which outlive the call, are plain
    arrays."""
    return _workspace((name, shape), lambda: np.empty(shape))


def _runner_scratch(builder, timesteps: int, batch: int, *shape) -> tuple:
    """``builder(timesteps, batch, *shape)``, cached for small runs."""
    if timesteps * batch > _CACHED_ROWS:
        return builder(timesteps, batch, *shape)
    return _workspace((builder, timesteps, batch, *shape), lambda: builder(timesteps, batch, *shape))


def _every_step(buffer: np.ndarray, timesteps: int) -> np.ndarray:
    """``buffer`` seen as ``timesteps`` aliases of itself (stride 0 on time).

    Training hands the step views full ``(timesteps, ...)`` arrays, which
    become the backward's tape; inference hands them these, so the same
    loop overwrites one step's worth of scratch in place.
    """
    return np.lib.stride_tricks.as_strided(
        buffer, (timesteps,) + buffer.shape, (0,) + buffer.strides
    )


def _augmented_rows(sequence: np.ndarray, dtype=np.float64) -> np.ndarray:
    """``[x | 1]``: time-major ``(T * B, K + 1)`` input rows plus a ones column.

    One batched GEMM of these rows against the stacked ``[[W_k], [b_k]]``
    blocks is the whole input projection, bias included, and their
    transpose against the gate gradients is the weight and bias gradient
    at once. A K=1 input (the RU-history hot path) thus never meets
    numpy's broadcast machinery, whose 16-element inner loops over
    thousands of rows cost several times the GEMM.
    """
    batch, timesteps, width = sequence.shape
    rows = np.empty((timesteps, batch, width + 1), dtype=dtype)
    rows[:, :, :width] = sequence.transpose(1, 0, 2)
    rows[:, :, width] = 1.0
    return rows.reshape(timesteps * batch, width + 1)


def _input_rows(timesteps: int, batch: int, width: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Scratch :func:`_augmented_rows` (2-D, plus its ``(T, B, K + 1)``
    view), ones column filled once: a call only writes ``[..., :K]``."""
    rows = np.empty((timesteps, batch, width + 1), dtype=dtype)
    rows[:, :, width] = 1.0
    return rows.reshape(timesteps * batch, width + 1), rows


def _stack_gates(ws, us, bs) -> dict[str, np.ndarray]:
    """Per-gate kernels as ``wb`` ``(gates, K + 1, H)`` (bias as the last
    row) and ``u`` ``(gates, H, H)``, the layout the sequence kernels take,
    in the operands' dtype."""
    width, hidden = ws[0].shape
    wb = np.empty((len(ws), width + 1, hidden), dtype=np.result_type(*ws, *bs))
    for k, (w, b) in enumerate(zip(ws, bs)):
        wb[k, :width] = w
        wb[k, width] = b
    return {"wb": wb, "u": np.stack(us), "hidden": hidden}


def _run_dtype(sequence: np.ndarray, fused: dict) -> np.dtype:
    # Short-circuit the common float64 case before paying np.result_type
    # (~1us); a float64 sequence always promotes the pair to float64.
    if sequence.dtype == np.float64:
        return sequence.dtype
    return np.result_type(sequence.dtype, fused["u"].dtype)


def fuse_gru_weights(w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h) -> dict[str, np.ndarray]:
    """Stack per-gate GRU kernels (z, r, h) for :func:`gru_sequence_forward`
    and the compiled runner: ``wb`` ``(3, K + 1, H)``, ``u`` ``(3, H, H)``."""
    return _stack_gates((w_z, w_r, w_h), (u_z, u_r, u_h), (b_z, b_r, b_h))


def _gru_step_views(xw: np.ndarray, hs: np.ndarray, zr: np.ndarray, cand: np.ndarray) -> list:
    """Every operand of GRU step ``t``, sliced once: ``(x_zr, x_h, zr, z,
    r, cand, h_prev, h)``, each a contiguous ``(B, H)`` block (``(2, B,
    H)`` for the gate pair) of the gate-major projection ``xw`` ``(3, T,
    B, H)``, the gates ``zr`` ``(T, 2, B, H)``, ``cand`` and the states
    ``hs`` ``(T + 1, B, H)``."""
    return [
        (xw[:2, t], xw[2, t], zr[t], zr[t, 0], zr[t, 1], cand[t], hs[t], hs[t + 1])
        for t in range(xw.shape[1])
    ]


def _gru_sequence_steps(steps: list, u3, act_fn, zero_start, hu_h, products) -> None:
    """The GRU recurrence of Appendix A over :func:`_gru_step_views`.

    ``u3`` is the stacked ``(3, H, H)`` recurrent kernels (z, r, h; the
    input projection already holds the biases). Step ``t`` writes the
    update and reset gates, the activated candidate and the new state
    ``h``, reading ``h_prev``; ``products`` (``(3, B, H)``) is scratch for
    ``h_prev @ U_k``. Training also keeps ``h_prev @ U_h`` in ``hu_h[t]``
    for the backward; inference passes None. Every matmul and ufunc
    writes through ``out=``: the loop allocates nothing (lint rule
    REP012). Runs under the caller's ``np.errstate(over="ignore")``.
    """
    start = 0
    if zero_start:
        # t = 0 from the zero state: the recurrent matmul vanishes, and the
        # zero hu_h keeps the reset gate's gradient exactly zero there.
        x_zr, x_h, zr, z, _, cand, _, h = steps[0]
        if hu_h is not None:
            hu_h[0].fill(0.0)
        _sigmoid_into(x_zr, zr)
        if act_fn is None:
            np.copyto(cand, x_h)
        else:
            act_fn(x_h, cand)
        np.subtract(1.0, z, out=h)
        h *= cand
        start = 1
    products_zr, products_h = products[:2], products[2]
    for t in range(start, len(steps)):
        x_zr, x_h, zr, z, r, cand, h_prev, h = steps[t]
        np.matmul(h_prev, u3, out=products)
        if hu_h is not None:
            np.copyto(hu_h[t], products_h)
        np.add(x_zr, products_zr, out=zr)
        _sigmoid_into(zr, zr)
        # cand = act(x W_h + b_h + r * (h U_h))
        np.multiply(r, products_h, out=cand)
        cand += x_h
        if act_fn is not None:
            act_fn(cand, cand)
        # h = (1 - z) * cand + z * h_prev, as cand + z * (h_prev - cand);
        # in place is safe when h aliases h_prev (inference).
        np.subtract(h_prev, cand, out=h)
        h *= z
        h += cand


def gru_sequence_forward(
    sequence: np.ndarray,
    wb: np.ndarray,
    u3: np.ndarray,
    act: str = "relu",
    return_sequences: bool = False,
    h0: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Whole-sequence GRU over ``(batch, timesteps, input)``: one tape node.

    ``wb`` ``(3, input + 1, hidden)`` and ``u3`` ``(3, hidden, hidden)``
    stack the z, r and h kernels (bias as ``wb``'s last row; see
    :func:`_stack_gates`); ``h0`` is the initial state (zeros when
    omitted). Returns the last state, or all states ``(batch, timesteps,
    hidden)`` under ``return_sequences``, plus the cache
    :func:`gru_sequence_backward` needs: every gate activation, saved
    gate-major so each per-step operand is a contiguous ``(batch,
    hidden)`` block. The recurrence is the compiled runner's
    (:func:`gru_sequence`), so compiled float64 equals this bitwise.
    """
    batch, timesteps, width = sequence.shape
    hidden = u3.shape[1]
    act_fn = _resolve_act(act)
    rows = _augmented_rows(sequence)
    hs = np.empty((timesteps + 1, batch, hidden))
    zr = np.empty((timesteps, 2, batch, hidden))
    hu_h = np.empty((timesteps, batch, hidden))
    cand = np.empty((timesteps, batch, hidden))
    hs[0] = 0.0 if h0 is None else h0
    if timesteps:
        xw = np.matmul(rows, wb, out=_scratch("gru_xw", 3, timesteps * batch, hidden))
        with np.errstate(over="ignore"):
            _gru_sequence_steps(
                _gru_step_views(xw.reshape(3, timesteps, batch, hidden), hs, zr, cand),
                u3, act_fn, h0 is None, hu_h, _scratch("gru_products", 3, batch, hidden),
            )
    out = (hs[1:].transpose(1, 0, 2) if return_sequences else hs[timesteps]).copy()
    cache = {
        "rows": rows, "width": width, "wb": wb, "u3": u3, "act": act,
        "zero_start": h0 is None, "return_sequences": return_sequences,
        "hs": hs, "zr": zr, "hu_h": hu_h, "cand": cand,
    }
    return out, cache


def _sequence_grads(d: np.ndarray, cache: dict, recurrent: slice, inputs: slice, input_grad: bool):
    """All-timestep GEMMs turning gate gradients ``d`` ``(G, T, B, H)`` into
    ``(d_sequence, d_wb, d_u3)``.

    ``d[recurrent]`` pairs with the stacked recurrent kernels and
    ``d[inputs]`` with the input kernels (GRU reads them in different
    gate orders). ``d_wb`` carries the bias gradient as its last row.
    """
    rows, width, hs = cache["rows"], cache["width"], cache["hs"]
    gates, timesteps, batch, hidden = d.shape
    flat = d.reshape(gates, timesteps * batch, hidden)
    d_wb = np.matmul(rows.T, flat[inputs])
    d_u3 = np.matmul(hs[:timesteps].reshape(timesteps * batch, hidden).T, flat[recurrent])
    d_sequence = None
    if input_grad:
        per_gate = np.matmul(flat[inputs], cache["wb"][:, :width].transpose(0, 2, 1))
        d_sequence = per_gate.sum(axis=0).reshape(timesteps, batch, width).transpose(1, 0, 2)
    return d_sequence, d_wb, d_u3


def gru_sequence_backward(
    grad: np.ndarray, cache: dict, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients ``(d_sequence, d_h0, d_wb, d_u3)`` of :func:`gru_sequence_forward`.

    ``d_wb``/``d_u3`` are stacked z, r, h like the forward's kernels. The
    per-element factors are formed for all timesteps at once; the reverse
    loop then runs only the recurrent GEMM and a few multiplies per step,
    each into a contiguous ``(batch, hidden)`` block, and the weight and
    bias gradients are single all-timestep GEMMs (:func:`_sequence_grads`).
    ``d_sequence`` is skipped (None) unless ``input_grad``; ``d_h0`` is
    None when the forward started from zeros. Products associate
    differently from a per-step backward, so gradients agree with one to
    ~1e-15 relative, not bitwise.
    """
    hs, zr, hu_h, cand, u3 = cache["hs"], cache["zr"], cache["hu_h"], cache["cand"], cache["u3"]
    timesteps, _, batch, hidden = zr.shape
    zero_start = cache["zero_start"]
    z, r = zr[:, 0], zr[:, 1]
    # dh -> dcand_pre (f_c), dh -> dz_pre (f_z) and dcand_pre -> dr_pre
    # (f_r), for all timesteps, in scratch.
    shape = (timesteps, batch, hidden)
    one_minus_z = np.subtract(1.0, z, out=_scratch("gru_1mz", *shape))
    f_c = one_minus_z
    act = cache["act"]
    if act != "linear":
        f_c = _scratch("gru_fc", *shape)
        if act == "relu":
            np.multiply(one_minus_z, cand > 0.0, out=f_c)
        elif act == "tanh":
            np.multiply(cand, cand, out=f_c)
            np.subtract(1.0, f_c, out=f_c)
            f_c *= one_minus_z
        else:  # sigmoid
            np.subtract(1.0, cand, out=f_c)
            f_c *= cand
            f_c *= one_minus_z
    f_z = np.subtract(hs[:timesteps], cand, out=_scratch("gru_fz", *shape))
    f_z *= z
    f_z *= one_minus_z
    f_r = np.subtract(1.0, r, out=_scratch("gru_fr", *shape))
    f_r *= r
    f_r *= hu_h
    # d = [d hu_h, dz_pre, dr_pre, dcand_pre]: d[:3] pairs with the
    # recurrent kernels in (h, z, r) order, d[1:] with the input kernels.
    d = _scratch("gru_d", 4, *shape)
    d_hu, d_z, d_r, d_c = d
    u_hzr_t = np.ascontiguousarray(u3[[2, 0, 1]].transpose(0, 2, 1))
    dh = np.empty((batch, hidden))
    products = _scratch("gru_products", 3, batch, hidden)
    if cache["return_sequences"]:
        g = grad.transpose(1, 0, 2)
        dh[...] = g[timesteps - 1] if timesteps else 0.0
    else:
        g = None
        dh[...] = grad
    for t in range(timesteps - 1, -1, -1):
        np.multiply(dh, f_c[t], out=d_c[t])
        np.multiply(dh, f_z[t], out=d_z[t])
        np.multiply(d_c[t], f_r[t], out=d_r[t])
        np.multiply(d_c[t], r[t], out=d_hu[t])
        if t == 0 and zero_start:
            break
        # dh_prev = dh * z + d hu_h U_h^T + dz_pre U_z^T + dr_pre U_r^T
        np.matmul(d[:3, t], u_hzr_t, out=products)
        dh *= z[t]
        dh += products[0]
        dh += products[1]
        dh += products[2]
        if g is not None and t:
            dh += g[t - 1]
    d_sequence, d_wb, d_u_hzr = _sequence_grads(d, cache, slice(0, 3), slice(1, 4), input_grad)
    return d_sequence, None if zero_start else dh, d_wb, d_u_hzr[[1, 2, 0]]


def _gru_scratch(timesteps: int, batch: int, width: int, hidden: int, dtype, keep_states: bool) -> tuple:
    """Inference buffers for :func:`gru_sequence`: the input rows, the
    projection, one step of gates (every step's states under
    ``keep_states``, else one) and the step views over them."""
    rows, rows3 = _input_rows(timesteps, batch, width, dtype)
    xw = np.empty((3, timesteps * batch, hidden), dtype=dtype)
    step = (batch, hidden)
    if keep_states:
        hs = np.empty((timesteps + 1, *step), dtype=dtype)
    else:
        hs = _every_step(np.empty(step, dtype=dtype), timesteps + 1)
    steps = _gru_step_views(
        xw.reshape(3, timesteps, *step), hs,
        _every_step(np.empty((2, *step), dtype=dtype), timesteps),
        _every_step(np.empty(step, dtype=dtype), timesteps),
    )
    return rows, rows3, xw, hs, steps, np.empty((3, *step), dtype=dtype)


def gru_sequence(
    sequence: np.ndarray, fused: dict[str, np.ndarray], act: str, return_sequences: bool = False
) -> np.ndarray:
    """Run a fused GRU over ``(batch, timesteps, input)`` without a tape.

    This is :func:`_gru_sequence_steps`, the recurrence training uses,
    over scratch (see DESIGN.md §6) in the promoted dtype of
    the input and the weights: float64 outputs are bitwise equal to the
    autograd forward, and float32 operands run the same recurrence in
    single precision. Returned arrays are always fresh.

    Zero timesteps returns the zero initial state (what the autograd GRU
    yields when its loop never runs): ``(batch, hidden)`` zeros, or the
    empty ``(batch, 0, hidden)`` state sequence under
    ``return_sequences``.
    """
    batch, timesteps, width = sequence.shape
    hidden = fused["hidden"]
    if timesteps == 0:
        shape = (batch, 0, hidden) if return_sequences else (batch, hidden)
        return np.zeros(shape, dtype=fused["u"].dtype)
    dtype = _run_dtype(sequence, fused)
    act_fn = _resolve_act(act)
    rows, rows3, xw, hs, steps, products = _runner_scratch(
        _gru_scratch, timesteps, batch, width, hidden, dtype, return_sequences
    )
    rows3[:, :, :width] = sequence.transpose(1, 0, 2)
    np.matmul(rows, fused["wb"], out=xw)
    with np.errstate(over="ignore"):
        _gru_sequence_steps(steps, fused["u"], act_fn, True, None, products)
    return (hs[1:].transpose(1, 0, 2) if return_sequences else hs[timesteps]).copy()


def fuse_lstm_weights(
    w_i, u_i, b_i, w_f, u_f, b_f, w_o, u_o, b_o, w_g, u_g, b_g
) -> dict[str, np.ndarray]:
    """Stack per-gate LSTM kernels (i, f, o, g) like :func:`fuse_gru_weights`."""
    return _stack_gates((w_i, w_f, w_o, w_g), (u_i, u_f, u_o, u_g), (b_i, b_f, b_o, b_g))


def _lstm_step_views(xw: np.ndarray, hs: np.ndarray, cs: np.ndarray, gates: np.ndarray, tc: np.ndarray) -> list:
    """Every operand of LSTM step ``t``, sliced once: ``(x, gates, ifo,
    i, f, o, g, tanh_c, c_prev, c, h_prev, h)`` over the gate-major
    projection ``xw`` ``(4, T, B, H)``, the activated gates ``(T, 4, B,
    H)``, ``tanh(c)`` ``tc`` and the states ``hs``/``cs`` ``(T + 1, B,
    H)``."""
    return [
        (xw[:, t], gates[t], gates[t, :3], gates[t, 0], gates[t, 1], gates[t, 2], gates[t, 3],
         tc[t], cs[t], cs[t + 1], hs[t], hs[t + 1])
        for t in range(xw.shape[1])
    ]


def _lstm_sequence_steps(steps: list, u3, zero_start, products, tmp) -> None:
    """The LSTM recurrence over :func:`_lstm_step_views`.

    Step ``t`` writes the activated ``i, f, o, g``, ``tanh(c_t)`` and the
    new cell and hidden states; ``products`` (``(4, B, H)``) and ``tmp``
    (``(B, H)``) are plain scratch. Allocation-free like the GRU loop,
    and run under the caller's ``np.errstate(over="ignore")``.
    """
    start = 0
    if zero_start:
        # t = 0 from the zero state: the recurrent matmul and f * c vanish.
        x, _, ifo, i, _, o, g, tanh_c, _, c, _, h = steps[0]
        _sigmoid_into(x[:3], ifo)
        np.tanh(x[3], out=g)
        np.multiply(i, g, out=c)
        np.tanh(c, out=tanh_c)
        np.multiply(o, tanh_c, out=h)
        start = 1
    for t in range(start, len(steps)):
        x, gates, ifo, i, f, o, g, tanh_c, c_prev, c, h_prev, h = steps[t]
        np.matmul(h_prev, u3, out=products)
        np.add(x, products, out=gates)
        _sigmoid_into(ifo, ifo)
        np.tanh(g, out=g)
        # c = f * c_prev + i * g (in place when c aliases c_prev)
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=tmp)
        c += tmp
        # h = o * tanh(c)
        np.tanh(c, out=tanh_c)
        np.multiply(o, tanh_c, out=h)


def lstm_sequence_forward(
    sequence: np.ndarray,
    wb: np.ndarray,
    u3: np.ndarray,
    return_sequences: bool = False,
    h0: np.ndarray | None = None,
    c0: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Whole-sequence LSTM, the counterpart of :func:`gru_sequence_forward`.

    ``wb``/``u3`` stack the i, f, o, g kernels. ``h0`` and ``c0`` are
    given together or not at all. The final cell state is
    ``cache["c_last"]``.
    """
    batch, timesteps, width = sequence.shape
    hidden = u3.shape[1]
    zero_start = h0 is None
    rows = _augmented_rows(sequence)
    hs = np.empty((timesteps + 1, batch, hidden))
    cs = np.empty((timesteps + 1, batch, hidden))
    gates = np.empty((timesteps, 4, batch, hidden))
    tc = np.empty((timesteps, batch, hidden))
    hs[0] = 0.0 if zero_start else h0
    cs[0] = 0.0 if zero_start else c0
    if timesteps:
        xw = np.matmul(rows, wb, out=_scratch("lstm_xw", 4, timesteps * batch, hidden))
        with np.errstate(over="ignore"):
            _lstm_sequence_steps(
                _lstm_step_views(xw.reshape(4, timesteps, batch, hidden), hs, cs, gates, tc),
                u3, zero_start, _scratch("lstm_products", 4, batch, hidden),
                _scratch("lstm_tmp", batch, hidden),
            )
    out = (hs[1:].transpose(1, 0, 2) if return_sequences else hs[timesteps]).copy()
    cache = {
        "rows": rows, "width": width, "wb": wb, "u3": u3,
        "zero_start": zero_start, "return_sequences": return_sequences,
        "hs": hs, "cs": cs, "gates": gates, "tc": tc, "c_last": cs[timesteps].copy(),
    }
    return out, cache


def lstm_sequence_backward(
    grad: np.ndarray, cache: dict, input_grad: bool = True, grad_c: np.ndarray | None = None
) -> tuple:
    """Gradients ``(d_sequence, d_h0, d_c0, d_wb, d_u3)`` of :func:`lstm_sequence_forward`.

    ``grad_c`` is an extra gradient on the final cell state (the one-step
    :class:`repro.nn.lstm.LSTMCell` exposes it). Same structure and
    gradient bound as :func:`gru_sequence_backward`; ``d_h0``/``d_c0``
    are None when the forward started from zeros.
    """
    hs, cs, gates, tc, u3 = cache["hs"], cache["cs"], cache["gates"], cache["tc"], cache["u3"]
    timesteps, _, batch, hidden = gates.shape
    zero_start = cache["zero_start"]
    i, f, o, g = gates[:, 0], gates[:, 1], gates[:, 2], gates[:, 3]
    shape = (timesteps, batch, hidden)
    # Per-element factors for all timesteps, in scratch:
    # dh -> do_pre, dh -> dc, and dc -> di_pre / df_pre / dg_pre.
    q_o = np.subtract(1.0, o, out=_scratch("lstm_qo", *shape))
    q_o *= o
    q_o *= tc
    q_c = np.multiply(tc, tc, out=_scratch("lstm_qc", *shape))
    np.subtract(1.0, q_c, out=q_c)
    q_c *= o
    q_i = np.subtract(1.0, i, out=_scratch("lstm_qi", *shape))
    q_i *= i
    q_i *= g
    q_f = np.subtract(1.0, f, out=_scratch("lstm_qf", *shape))
    q_f *= f
    q_f *= cs[:timesteps]
    q_g = np.multiply(g, g, out=_scratch("lstm_qg", *shape))
    np.subtract(1.0, q_g, out=q_g)
    q_g *= i
    d = _scratch("lstm_d", 4, *shape)  # i, f, o, g pre-activations
    d_i, d_f, d_o, d_g = d
    u3_t = np.ascontiguousarray(u3.transpose(0, 2, 1))
    dh = np.empty((batch, hidden))
    dc = np.zeros((batch, hidden))
    tmp = _scratch("lstm_tmp", batch, hidden)
    products = _scratch("lstm_products", 4, batch, hidden)
    if grad_c is not None:
        dc += grad_c
    if cache["return_sequences"]:
        g_out = grad.transpose(1, 0, 2)
        dh[...] = g_out[timesteps - 1] if timesteps else 0.0
    else:
        g_out = None
        dh[...] = grad
    for t in range(timesteps - 1, -1, -1):
        np.multiply(dh, q_o[t], out=d_o[t])
        np.multiply(dh, q_c[t], out=tmp)
        dc += tmp
        np.multiply(dc, q_i[t], out=d_i[t])
        np.multiply(dc, q_f[t], out=d_f[t])
        np.multiply(dc, q_g[t], out=d_g[t])
        if t == 0 and zero_start:
            break
        dc *= f[t]
        # dh_prev = sum over gates of d_k U_k^T
        np.matmul(d[:, t], u3_t, out=products)
        np.add(products[0], products[1], out=dh)
        dh += products[2]
        dh += products[3]
        if g_out is not None and t:
            dh += g_out[t - 1]
    d_sequence, d_wb, d_u3 = _sequence_grads(d, cache, slice(0, 4), slice(0, 4), input_grad)
    if zero_start:
        return d_sequence, None, None, d_wb, d_u3
    return d_sequence, dh, dc, d_wb, d_u3


def _lstm_scratch(timesteps: int, batch: int, width: int, hidden: int, dtype, keep_states: bool) -> tuple:
    """Inference buffers for :func:`lstm_sequence` (see :func:`_gru_scratch`)."""
    rows, rows3 = _input_rows(timesteps, batch, width, dtype)
    xw = np.empty((4, timesteps * batch, hidden), dtype=dtype)
    step = (batch, hidden)
    if keep_states:
        hs = np.empty((timesteps + 1, *step), dtype=dtype)
    else:
        hs = _every_step(np.empty(step, dtype=dtype), timesteps + 1)
    steps = _lstm_step_views(
        xw.reshape(4, timesteps, *step), hs,
        _every_step(np.empty(step, dtype=dtype), timesteps + 1),
        _every_step(np.empty((4, *step), dtype=dtype), timesteps),
        _every_step(np.empty(step, dtype=dtype), timesteps),
    )
    return (
        rows, rows3, xw, hs, steps,
        np.empty((4, *step), dtype=dtype), np.empty(step, dtype=dtype),
    )


def lstm_sequence(
    sequence: np.ndarray, fused: dict[str, np.ndarray], return_sequences: bool = False
) -> np.ndarray:
    """Run a fused LSTM over ``(batch, timesteps, input)`` without a tape.

    Same structure and contract as :func:`gru_sequence`, over the
    training recurrence :func:`_lstm_sequence_steps`. Zero timesteps
    returns the zero initial state.
    """
    batch, timesteps, width = sequence.shape
    hidden = fused["hidden"]
    if timesteps == 0:
        shape = (batch, 0, hidden) if return_sequences else (batch, hidden)
        return np.zeros(shape, dtype=fused["u"].dtype)
    dtype = _run_dtype(sequence, fused)
    rows, rows3, xw, hs, steps, products, tmp = _runner_scratch(
        _lstm_scratch, timesteps, batch, width, hidden, dtype, return_sequences
    )
    rows3[:, :, :width] = sequence.transpose(1, 0, 2)
    np.matmul(rows, fused["wb"], out=xw)
    with np.errstate(over="ignore"):
        _lstm_sequence_steps(steps, fused["u"], True, products, tmp)
    return (hs[1:].transpose(1, 0, 2) if return_sequences else hs[timesteps]).copy()
