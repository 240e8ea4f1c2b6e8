"""Benchmark — observability overhead on the prediction hot path.

The obs layer promises to be effectively free when disabled and cheap when
enabled. This benchmark measures the batch-1 streaming forward (the
production monitoring pattern, where per-call overhead matters most) three
ways on one compiled Env2Vec engine:

- **raw**: the pre-instrumentation ``InferenceModel.__call__`` — a plain
  wrapper around the compiled plan (``return self._forward(**inputs)``),
  i.e. exactly what every call site paid before this layer existed;
- **disabled**: ``engine(**batch)`` with the global registry switched off —
  the instrumented entry point degenerating to one flag check;
- **enabled**: ``engine(**batch)`` with metrics on — two clock reads, one
  histogram observe, and the cache-delta counter sync per call.

Acceptance: disabled ≤2% over raw, enabled ≤10% over raw. Span overhead is
reported alongside (one ``with span(...)`` per call, enabled vs disabled).
Results go to ``benchmarks/results/BENCH_observability.json``.
"""

import json
import time
from pathlib import Path

import numpy as np

from conftest import emit
from repro.core.model import Env2VecRegressor
from repro.data import Environment
from repro.obs import get_observability

_OBS = get_observability()

RESULTS_DIR = Path(__file__).parent / "results"

#: Acceptance ceilings on the batch-1 streaming hot path.
MAX_DISABLED_OVERHEAD = 0.02
MAX_ENABLED_OVERHEAD = 0.10


def _trained_engine(seed: int = 0):
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
    regressor.fit(environments, X, history, y)
    engine = regressor.compile()
    batch = regressor._batch(
        [environments[0]], rng.standard_normal((1, 6)), rng.standard_normal((1, 3))
    )
    return engine, batch


def run_observability_bench(repeats: int = 1000) -> dict:
    engine, batch = _trained_engine()
    _OBS.reset()

    # The pre-instrumentation __call__, verbatim: one wrapper frame and one
    # kwargs repack around the compiled plan.
    def _pre_pr_call(**inputs):
        return engine._forward(**inputs)

    def raw():
        _pre_pr_call(**batch)

    def instrumented():
        engine(**batch)

    def disabled():
        with _OBS.disabled():
            for _ in range(repeats):
                instrumented()

    # Warm the embedding cache and JIT-ish numpy paths off the clock.
    for _ in range(50):
        raw()

    # raw vs disabled vs enabled, interleaved. The disabled contender wraps
    # its whole inner loop in _OBS.disabled() so the toggle itself is not on
    # the per-call clock (production flips the switch once, not per call).
    # Best-of-many: the fixed per-call overhead is deterministic, so each
    # contender's floor is its true cost; the round count mostly buys
    # convergence against scheduler noise on the ~40us numpy forward.
    best = [np.inf, np.inf, np.inf]
    for _ in range(25):
        start = time.perf_counter()
        for _ in range(repeats):
            raw()
        best[0] = min(best[0], time.perf_counter() - start)
        start = time.perf_counter()
        disabled()
        best[1] = min(best[1], time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(repeats):
            instrumented()
        best[2] = min(best[2], time.perf_counter() - start)
    raw_s, disabled_s, enabled_s = best

    # Span overhead: one nested-free span per call, enabled vs disabled.
    def span_enabled():
        with _OBS.span("bench.noop"):
            pass

    def span_disabled():
        with _OBS.disabled():
            for _ in range(repeats):
                span_enabled()

    span_on_s, span_off_s = np.inf, np.inf
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(repeats):
            span_enabled()
        span_on_s = min(span_on_s, time.perf_counter() - start)
        start = time.perf_counter()
        span_disabled()
        span_off_s = min(span_off_s, time.perf_counter() - start)

    results = {
        "calls": repeats,
        "batch1_streaming": {
            "raw_us_per_call": 1e6 * raw_s / repeats,
            "disabled_us_per_call": 1e6 * disabled_s / repeats,
            "enabled_us_per_call": 1e6 * enabled_s / repeats,
            "disabled_overhead": disabled_s / raw_s - 1.0,
            "enabled_overhead": enabled_s / raw_s - 1.0,
        },
        "span": {
            "enabled_us_per_call": 1e6 * span_on_s / repeats,
            "disabled_us_per_call": 1e6 * span_off_s / repeats,
        },
        "acceptance": {
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
            "max_enabled_overhead": MAX_ENABLED_OVERHEAD,
        },
    }
    _OBS.reset()
    return results


def _render(results: dict) -> str:
    row = results["batch1_streaming"]
    span = results["span"]
    return "\n".join([
        "Observability overhead — batch-1 streaming forward (compiled Env2Vec)",
        f"  raw (uninstrumented)   {row['raw_us_per_call']:9.2f} us/call",
        f"  instrumented, disabled {row['disabled_us_per_call']:9.2f} us/call "
        f"({100 * row['disabled_overhead']:+.2f}%)",
        f"  instrumented, enabled  {row['enabled_us_per_call']:9.2f} us/call "
        f"({100 * row['enabled_overhead']:+.2f}%)",
        f"  span enter/exit: enabled {span['enabled_us_per_call']:.2f} us, "
        f"disabled {span['disabled_us_per_call']:.2f} us",
    ])


def test_bench_observability(benchmark):
    results = benchmark.pedantic(run_observability_bench, rounds=1, iterations=1)
    emit("observability", _render(results))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_observability.json").write_text(json.dumps(results, indent=2) + "\n")

    row = results["batch1_streaming"]
    assert row["disabled_overhead"] < MAX_DISABLED_OVERHEAD, (
        f"disabled instrumentation costs {100 * row['disabled_overhead']:.2f}% "
        f"on the hot path; ceiling is {100 * MAX_DISABLED_OVERHEAD:.0f}%"
    )
    assert row["enabled_overhead"] < MAX_ENABLED_OVERHEAD, (
        f"enabled instrumentation costs {100 * row['enabled_overhead']:.2f}% "
        f"on the hot path; ceiling is {100 * MAX_ENABLED_OVERHEAD:.0f}%"
    )


if __name__ == "__main__":
    bench_results = run_observability_bench()
    print(_render(bench_results))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_observability.json").write_text(
        json.dumps(bench_results, indent=2) + "\n"
    )
