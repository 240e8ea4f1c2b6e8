"""Benchmark — autograd forward vs. the compiled tape-free inference engine.

The paper's serving loop (§3 steps 3-5) predicts RU once per timestep per
running testbed, i.e. batch-size-1 streaming, where tape bookkeeping and
Tensor allocation dominate the numpy math. The campaign/calibration path
(and every serve micro-batch) is the opposite shape: one vectorized call
over hundreds of rows, where the BLAS kernels dominate. This benchmark
measures both shapes on a trained Env2Vec model through two contenders:

- the autograd forward under ``no_grad`` (baseline);
- the compiled engine (float64, byte-identical to the autograd forward).

Timing keeps the original best-of-rounds discipline: every contender is
warmed up first, then each (shape, contender) cell is the *minimum* over
interleaved rounds — interference (host steal, cache pollution from a
neighbouring contender, a GC pause) only ever adds time, so the minimum
is the standard estimator of the true per-call cost, and round-level
interleaving keeps slow drift from biasing one contender. A per-op
profile of the compiled forward at batch 256 is recorded alongside the
speedups so EXPERIMENTS.md's table can be regenerated from the JSON: after
the timed rounds, the plan's stages are wrapped from outside in
:func:`repro.obs.span` and read back from ``repro_span_duration_seconds``,
so the floors always time unpatched code. Results go to
``benchmarks/results/BENCH_inference.json``.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from conftest import emit
from repro.core.model import Env2VecRegressor
from repro.data import Environment
from repro.nn import ops
from repro.nn.inference import CompiledDense
from repro.obs import get_observability, span

RESULTS_DIR = Path(__file__).parent / "results"

#: Acceptance floors: the compiled engine must beat the no_grad autograd
#: forward by at least this factor on batch-1 streaming, and must never
#: lose to autograd on the batch-256 path.
MIN_STREAMING_SPEEDUP = 3.0
MIN_BATCH_SPEEDUP_F64 = 1.0

#: Timing rounds per (shape, contender) cell; the minimum is reported.
ROUNDS = 7

#: Span names of the compiled plan's stages in the per-op table.
STAGES = ("fnn", "encoder", "combine", "env_rows", "head")


def _trained_regressor(seed: int = 0) -> Env2VecRegressor:
    rng = np.random.default_rng(seed)
    environments = [
        Environment(f"Testbed_{i % 5:02d}", f"SUT_{i % 3}", f"Testcase_{i % 4}", f"Build_{i % 6}")
        for i in range(240)
    ]
    X = rng.standard_normal((240, 6))
    history = rng.standard_normal((240, 3))
    y = X @ rng.standard_normal(6) + 0.5 * history.sum(axis=1)
    regressor = Env2VecRegressor(
        n_lags=3, embedding_dim=10, fnn_hidden=64, gru_hidden=16,
        max_epochs=2, batch_size=64, seed=seed,
    )
    return regressor.fit(environments, X, history, y)


def _time_contenders(fns: list, repeats: int, rounds: int = ROUNDS) -> list[float]:
    """Best-of-``rounds`` wall time per contender, interleaved + warmed.

    One warmup pass per contender first (pays lazy allocations, cache
    fills, and BLAS thread spin-up outside the timed region). Each
    contender then runs its ``repeats`` calls as one contiguous block
    per round — a block is long enough for the contender's own working
    set to be cache-resident, which is exactly the steady state the
    floors are about — and rounds interleave the contenders so slow
    drift (thermal, host load) lands on all of them. The reported cell
    is the *minimum* across rounds: interference only ever adds time,
    so the fastest round is the closest observation of the true cost.
    """
    for fn in fns:
        fn()  # warmup
    samples: list[list[float]] = [[] for _ in fns]
    for _ in range(rounds):
        for slot, fn in enumerate(fns):
            start = time.perf_counter()
            for _ in range(repeats):
                fn()
            samples[slot].append(time.perf_counter() - start)
    return [min(times) for times in samples]


def _in_span(fn, name: str):
    def timed(*args, **kwargs):
        with span(name):
            return fn(*args, **kwargs)

    return timed


@contextmanager
def _stage_spans(n_features: int):
    """Time the compiled Env2Vec plan's stages in spans, then unpatch.

    ``CompiledDense`` serves both the FNN and the combine layer; an
    input ``n_features`` wide is the FNN.
    """
    dense_call = CompiledDense.__call__

    def dense(self, x):
        with span("fnn" if x.shape[1] == n_features else "combine"):
            return dense_call(self, x)

    patches = [
        (ops, "gru_sequence", _in_span(ops.gru_sequence, "encoder")),
        (CompiledDense, "__call__", dense),
        (ops, "stacked_embedding_forward", _in_span(ops.stacked_embedding_forward, "env_rows")),
        (ops, "hadamard_head", _in_span(ops.hadamard_head, "head")),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, wrapped in patches:
            setattr(owner, name, wrapped)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def _profile_batch(engine, batch, repeats: int = 50) -> dict:
    """Per-op microseconds-per-call for one engine on one batch shape."""
    durations = get_observability().registry.get("repro_span_duration_seconds")
    stages = {op: durations.labels(span=op) for op in STAGES}
    before = {op: (h.sum, h.count) for op, h in stages.items()}
    with _stage_spans(batch["cf"].shape[1]):
        for _ in range(repeats):
            engine(**batch)
    table = {}
    for op, h in stages.items():
        calls = h.count - before[op][1]
        if calls:
            table[op] = {"us_per_call": 1e6 * (h.sum - before[op][0]) / calls, "calls": calls}
    return table


def run_inference_bench(n_stream: int = 300) -> dict:
    regressor = _trained_regressor()
    engine = regressor.compile()
    model = regressor.model
    model.eval()
    rng = np.random.default_rng(1)

    environment = Environment("Testbed_00", "SUT_0", "Testcase_0", "Build_0")
    stream_batch = regressor._batch([environment], rng.standard_normal((1, 6)),
                                    rng.standard_normal((1, 3)))
    big_batch = regressor._batch([environment] * 256, rng.standard_normal((256, 6)),
                                 rng.standard_normal((256, 3)))

    engine.assert_close(stream_batch)   # default: 1e-10
    engine.assert_close(big_batch)

    from repro.nn import no_grad

    def autograd_forward(batch):
        with no_grad():
            return model(**batch).numpy()

    results = {}
    for name, batch, repeats in (
        ("batch1_streaming", stream_batch, n_stream),
        ("batch256_throughput", big_batch, max(1, n_stream // 5)),
    ):
        autograd_s, f64_s = _time_contenders(
            [lambda b=batch: autograd_forward(b), lambda b=batch: engine(**b)], repeats
        )
        results[name] = {
            "calls": repeats,
            "timing": f"best of {ROUNDS} interleaved rounds after warmup",
            "autograd_no_grad_us_per_call": 1e6 * autograd_s / repeats,
            "compiled_us_per_call": 1e6 * f64_s / repeats,
            "speedup": autograd_s / f64_s,
        }
    results["per_op_batch256"] = _profile_batch(engine, big_batch)
    return results


def _render(results: dict) -> str:
    lines = [
        "Inference engine — autograd no_grad vs compiled f64 (trained Env2Vec,"
        f" best of {ROUNDS} rounds)"
    ]
    for name in ("batch1_streaming", "batch256_throughput"):
        row = results[name]
        lines.append(
            f"  {name:<22} autograd={row['autograd_no_grad_us_per_call']:9.1f}us  "
            f"f64={row['compiled_us_per_call']:8.1f}us ({row['speedup']:4.1f}x)"
        )
    cells = "  ".join(
        f"{op}={row['us_per_call']:.0f}" for op, row in results["per_op_batch256"].items()
    )
    lines.append(f"  per-op @256 (us/call): {cells}")
    return "\n".join(lines)


def _check_floors(results: dict) -> None:
    assert results["batch1_streaming"]["speedup"] >= MIN_STREAMING_SPEEDUP, (
        f"compiled batch-1 inference is only "
        f"{results['batch1_streaming']['speedup']:.2f}x faster; need {MIN_STREAMING_SPEEDUP}x"
    )
    assert results["batch256_throughput"]["speedup"] >= MIN_BATCH_SPEEDUP_F64, (
        "compiled batched inference must not be slower than autograd"
    )


def test_bench_inference(benchmark):
    results = benchmark.pedantic(run_inference_bench, rounds=1, iterations=1)
    emit("inference", _render(results))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_inference.json").write_text(json.dumps(results, indent=2) + "\n")
    _check_floors(results)


if __name__ == "__main__":
    bench_results = run_inference_bench()
    print(_render(bench_results))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_inference.json").write_text(json.dumps(bench_results, indent=2) + "\n")
    _check_floors(bench_results)
