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
- **enabled**: ``engine(**batch)`` with metrics on — two clock reads and
  one histogram observe per call.

Acceptance: disabled ≤2% over raw, enabled ≤10% over raw, each as the
median ratio of short interleaved blocks: every block runs each
contender for a few hundred calls, the order rotating from block to
block, so all three see the same host episodes and a slow stretch
shifts a few block ratios instead of one best-of time. The quartiles of
the block ratios are reported as the spread. ``--inject-cost 0.03`` adds
a busy wait of 3% of a raw call to every instrumented call, to show that
the gates fail on such a cost. Span overhead is reported alongside (one
``with span(...)`` per call, enabled vs disabled). Results go to
``benchmarks/results/BENCH_observability.json``.
"""

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

from conftest import emit, spin
from repro.core.model import Env2VecRegressor
from repro.data import Environment
from repro.obs import get_observability

_OBS = get_observability()

RESULTS_DIR = Path(__file__).parent / "results"

#: Acceptance ceilings on the batch-1 streaming hot path.
MAX_DISABLED_OVERHEAD = 0.02
MAX_ENABLED_OVERHEAD = 0.10

#: Interleaved blocks per run, and calls of each contender per block.
N_BLOCKS = 241
BLOCK_CALLS = 50


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


def _block_ratios(contenders: dict, blocks: int, calls: int) -> tuple[list[float], dict]:
    """Raw seconds per call, and every other contender's seconds over
    raw's, per interleaved block; the order rotates from block to block."""
    labels = list(contenders)
    raw_per_call: list[float] = []
    ratios: dict[str, list[float]] = {label: [] for label in labels if label != "raw"}
    for block in range(blocks):
        shift = block % len(labels)
        seconds = {}
        for label in labels[shift:] + labels[:shift]:
            start = time.perf_counter()
            contenders[label](calls)
            seconds[label] = time.perf_counter() - start
        raw_per_call.append(seconds["raw"] / calls)
        for label, values in ratios.items():
            values.append(seconds[label] / seconds["raw"])
    return raw_per_call, ratios


def run_observability_bench(
    blocks: int = N_BLOCKS, calls: int = BLOCK_CALLS, inject_cost: float = 0.0
) -> dict:
    engine, batch = _trained_engine()
    _OBS.reset()

    # The pre-instrumentation __call__, verbatim: one wrapper frame and one
    # kwargs repack around the compiled plan.
    def _pre_pr_call(**inputs):
        return engine._forward(**inputs)

    def raw(n: int) -> None:
        for _ in range(n):
            _pre_pr_call(**batch)

    # Warm numpy's paths off the clock, and size the injected cost from
    # raw's own per-call time.
    raw_s = min(_timed(raw, calls) for _ in range(5)) / calls
    injected_s = inject_cost * raw_s

    def enabled(n: int) -> None:
        for _ in range(n):
            engine(**batch)
        if injected_s:
            spin(injected_s * n)

    # The disabled contender flips the switch once around its whole loop
    # (production flips it once, not per call).
    def disabled(n: int) -> None:
        with _OBS.disabled():
            enabled(n)

    raw_per_call, ratios = _block_ratios(
        {"raw": raw, "disabled": disabled, "enabled": enabled}, blocks, calls
    )
    raw_us = 1e6 * statistics.median(raw_per_call)
    streaming = {
        "blocks": blocks,
        "calls_per_block": calls,
        "injected_us_per_call": 1e6 * injected_s,
        "raw_us_per_call": raw_us,
    }
    for label, values in ratios.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        streaming[f"{label}_us_per_call"] = raw_us * statistics.median(values)
        streaming[f"{label}_overhead"] = statistics.median(values) - 1.0
        streaming[f"{label}_overhead_q1"] = q1 - 1.0
        streaming[f"{label}_overhead_q3"] = q3 - 1.0

    # Span overhead: one nested-free span per call, enabled vs disabled.
    def span_enabled():
        with _OBS.span("bench.noop"):
            pass

    def span_disabled():
        with _OBS.disabled():
            for _ in range(calls):
                span_enabled()

    span_on_s, span_off_s = np.inf, np.inf
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(calls):
            span_enabled()
        span_on_s = min(span_on_s, time.perf_counter() - start)
        start = time.perf_counter()
        span_disabled()
        span_off_s = min(span_off_s, time.perf_counter() - start)

    results = {
        "batch1_streaming": streaming,
        "span": {
            "enabled_us_per_call": 1e6 * span_on_s / calls,
            "disabled_us_per_call": 1e6 * span_off_s / calls,
        },
        "acceptance": {
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
            "max_enabled_overhead": MAX_ENABLED_OVERHEAD,
        },
    }
    _OBS.reset()
    return results


def _timed(fn, n: int) -> float:
    start = time.perf_counter()
    fn(n)
    return time.perf_counter() - start


def _failures(results: dict) -> list[str]:
    """One message per ceiling the median block ratio does not stay under."""
    row = results["batch1_streaming"]
    return [
        f"{label} instrumentation costs {100 * row[f'{label}_overhead']:.2f}% "
        f"on the hot path; ceiling is {100 * ceiling:.0f}%"
        for label, ceiling in (("disabled", MAX_DISABLED_OVERHEAD), ("enabled", MAX_ENABLED_OVERHEAD))
        if row[f"{label}_overhead"] >= ceiling
    ]


def _render(results: dict) -> str:
    row = results["batch1_streaming"]
    span = results["span"]
    lines = [
        "Observability overhead — batch-1 streaming forward (compiled Env2Vec)",
        f"  raw (uninstrumented)   {row['raw_us_per_call']:9.2f} us/call",
    ]
    for label in ("disabled", "enabled"):
        lines.append(
            f"  instrumented, {label:<8} {row[f'{label}_us_per_call']:9.2f} us/call "
            f"({100 * row[f'{label}_overhead']:+.2f}%; quartiles "
            f"{100 * row[f'{label}_overhead_q1']:+.2f}% .. {100 * row[f'{label}_overhead_q3']:+.2f}%)"
        )
    lines.append(
        f"  (medians of {row['blocks']} interleaved blocks of {row['calls_per_block']} calls"
        + (f"; {row['injected_us_per_call']:.2f} us injected per instrumented call)"
           if row["injected_us_per_call"] else ")")
    )
    lines.append(
        f"  span enter/exit: enabled {span['enabled_us_per_call']:.2f} us, "
        f"disabled {span['disabled_us_per_call']:.2f} us"
    )
    return "\n".join(lines)


def test_bench_observability(benchmark):
    results = benchmark.pedantic(run_observability_bench, rounds=1, iterations=1)
    emit("observability", _render(results))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_observability.json").write_text(json.dumps(results, indent=2) + "\n")
    failures = _failures(results)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--inject-cost",
        type=float,
        default=0.0,
        help="busy-wait this fraction of a raw call in every instrumented call",
    )
    args = parser.parse_args()
    bench_results = run_observability_bench(inject_cost=args.inject_cost)
    print(_render(bench_results))
    failures = _failures(bench_results)
    print(
        f"gates (disabled < {100 * MAX_DISABLED_OVERHEAD:.0f}%, enabled < "
        f"{100 * MAX_ENABLED_OVERHEAD:.0f}%): {'FAIL: ' + '; '.join(failures) if failures else 'pass'}"
    )
    if not args.inject_cost:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_observability.json").write_text(
            json.dumps(bench_results, indent=2) + "\n"
        )
    raise SystemExit(1 if failures else 0)
