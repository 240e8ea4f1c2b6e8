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

The autograd forward is no fixed yardstick: each faster autograd step
shrinks the speedups, so the batch-1 3× floor now fails on every tree.
With ``--baseline-src <other checkout>/src`` the engine is gated
against the other tree's engine instead (:func:`compare_engines`),
both imported into one process (the other as ``repro_baseline``) and
trained alike: over :data:`ENGINE_BLOCKS` short interleaved blocks per
shape, the order alternating block by block, the batch-1 median ratio
of this tree's time to the other's must stay under
:data:`ENGINE_CEILING` (batch 256 is reported without a gate).
``--inject-cost 0.03`` busy-waits 3 % of a baseline call in every call
of this tree's engine, to show that the gate fails on such a cost. The
comparison goes to ``benchmarks/results/BENCH_inference_engine.json``
(not with an injected cost), and the run exits 1 when the gate fails.
"""

import argparse
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from conftest import alternate, emit, import_tree, spin
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

#: The engine gate: at batch 1, this tree's engine over the baseline
#: tree's, as the median ratio of interleaved blocks, stays under this.
#: Batch 256 is reported beside it without a gate: its ratio moved
#: between 0.97 and 1.05 from run to run on two identical engines, more
#: than the 3 % cost a gate must catch.
ENGINE_CEILING = 1.02
ENGINE_GATED = ("batch1_streaming",)
#: Interleaved blocks per shape, and calls per block and tree.
ENGINE_BLOCKS = 401
ENGINE_BLOCK_CALLS = {"batch1_streaming": 50, "batch256_throughput": 5}


def _trained_regressor(seed: int = 0, pkg: str = "repro"):
    core = importlib.import_module(pkg + ".core")
    data = importlib.import_module(pkg + ".data")
    rng = np.random.default_rng(seed)
    environments = [
        data.Environment(f"Testbed_{i % 5:02d}", f"SUT_{i % 3}", f"Testcase_{i % 4}", f"Build_{i % 6}")
        for i in range(240)
    ]
    X = rng.standard_normal((240, 6))
    history = rng.standard_normal((240, 3))
    y = X @ rng.standard_normal(6) + 0.5 * history.sum(axis=1)
    regressor = core.Env2VecRegressor(
        n_lags=3, embedding_dim=10, fnn_hidden=64, gru_hidden=16,
        max_epochs=2, batch_size=64, seed=seed,
    )
    return regressor.fit(environments, X, history, y)


def _engine_batches(pkg: str) -> tuple:
    """One tree's compiled engine and its batch-1 and batch-256 inputs."""
    regressor = _trained_regressor(pkg=pkg)
    environment = importlib.import_module(pkg + ".data").Environment("Testbed_00", "SUT_0", "Testcase_0", "Build_0")
    rng = np.random.default_rng(1)
    batches = {
        shape: regressor._batch([environment] * n, rng.standard_normal((n, 6)), rng.standard_normal((n, 3)))
        for shape, n in (("batch1_streaming", 1), ("batch256_throughput", 256))
    }
    return regressor.compile(), batches


def compare_engines(
    baseline_src: str, blocks: int = ENGINE_BLOCKS, inject_cost: float = 0.0
) -> dict:
    """This tree's engine against ``baseline_src``'s, in one process.

    Both trees train the same regressor and must answer every batch with
    the same bytes. Each block runs ``ENGINE_BLOCK_CALLS[shape]`` calls
    of one engine and then of the other, the order alternating, and
    yields one ratio (this tree's time over the baseline's). With
    ``inject_cost`` every call of this tree's engine busy-waits that
    share of a baseline call, sized from the warm-up blocks.
    """
    pkgs = {"baseline": import_tree(baseline_src), "change": "repro"}
    trees = {label: _engine_batches(pkg) for label, pkg in pkgs.items()}
    result = {"ceiling": ENGINE_CEILING, "blocks": blocks, "inject_cost": inject_cost}
    for shape, calls in ENGINE_BLOCK_CALLS.items():
        outputs = [engine(**batches[shape]) for engine, batches in trees.values()]
        if outputs[0].tobytes() != outputs[1].tobytes():
            raise AssertionError(f"the two engines answer {shape} with different bytes")

        def block(label: str, extra_s: float = 0.0) -> float:
            engine, batches = trees[label]
            batch = batches[shape]
            start = time.perf_counter()
            for _ in range(calls):
                engine(**batch)
                if extra_s:
                    spin(extra_s)
            return time.perf_counter() - start

        baseline_s = statistics.median(block("baseline") for _ in range(21)) / calls
        extra = {"baseline": 0.0, "change": inject_cost * baseline_s}
        for label in pkgs:
            block(label, extra[label])  # warm-up
        ratios, per_call = [], {label: [] for label in pkgs}
        for index in range(blocks):
            seconds = {label: block(label, extra[label]) for label in alternate(pkgs, index)}
            ratios.append(seconds["change"] / seconds["baseline"])
            for label, value in seconds.items():
                per_call[label].append(1e6 * value / calls)
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        result[shape] = {
            "calls_per_block": calls,
            "baseline_us_per_call": statistics.median(per_call["baseline"]),
            "change_us_per_call": statistics.median(per_call["change"]),
            "injected_us_per_call": 1e6 * extra["change"],
            "ratio": median,
            "ratio_q1": q1,
            "ratio_q3": q3,
            "gated": shape in ENGINE_GATED,
            "pass": median < ENGINE_CEILING,
        }
    return result


def _render_engines(result: dict) -> str:
    lines = [
        f"Engine gate — this tree over the baseline tree, median of {result['blocks']} "
        f"interleaved blocks (ceiling {result['ceiling']:.2f})"
    ]
    for shape in ENGINE_BLOCK_CALLS:
        row = result[shape]
        lines.append(
            f"  {shape:<22} baseline={row['baseline_us_per_call']:8.1f}us  "
            f"change={row['change_us_per_call']:8.1f}us  ratio {row['ratio']:.4f} "
            f"[{row['ratio_q1']:.4f}, {row['ratio_q3']:.4f}]  "
            f"{('pass' if row['pass'] else 'FAIL') if row['gated'] else 'no gate'}"
            + (f"  ({row['injected_us_per_call']:.2f}us injected per call)" if row["injected_us_per_call"] else "")
        )
    return "\n".join(lines)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-src", help="gate the engine against this checkout's src/")
    parser.add_argument(
        "--inject-cost", type=float, default=0.0,
        help="busy-wait this share of a baseline call in every call of this tree's engine",
    )
    args = parser.parse_args(argv)
    if not args.baseline_src:
        bench_results = run_inference_bench()
        print(_render(bench_results))
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_inference.json").write_text(json.dumps(bench_results, indent=2) + "\n")
        _check_floors(bench_results)
        return 0
    result = compare_engines(args.baseline_src, inject_cost=args.inject_cost)
    print(_render_engines(result))
    failed = [shape for shape in ENGINE_GATED if not result[shape]["pass"]]
    print(f"gate (< {ENGINE_CEILING:.2f}): {'FAIL: ' + ', '.join(failed) if failed else 'pass'}")
    if not args.inject_cost:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_inference_engine.json").write_text(json.dumps(result, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
