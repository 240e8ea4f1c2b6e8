"""Benchmark — resilience overhead on the clean collection path.

The resilience layer (retry-wrapped writes, gap accounting, grid-aligned
read-back, chaos hooks) promises to cost essentially nothing when the
testbed is healthy. This benchmark replays 40 telecom executions two ways:

- **baseline**: the pre-resilience collector path, verbatim — one
  ``collector.collect`` span, the three legacy ingestion counters, a
  direct ``tsdb.write_array`` per series, and an exact ``query_one``
  read-back per execution;
- **clean**: :class:`~repro.workflow.MetricCollector` with no
  :class:`~repro.resilience.ChaosProfile` attached — the full degradation
  ladder armed (retry policy on every write, expected-grid bookkeeping,
  quarantine thresholds) but never triggered.

Acceptance: the clean path costs ≤3% over baseline, as the median
ratio of short interleaved blocks: each block runs a few rounds of one
collector and then of the other, the order alternating from block to
block (``conftest.alternate``), so both see the same host episodes and
a slow stretch shifts a few block ratios instead of one best-of time.
``--inject-clean-cost 0.03`` adds a busy wait of 3% of a baseline round
to every clean round, to show that the gate fails on such a cost. A
micro section
reports the per-call price of each policy primitive in the form its
production caller runs it (``Retry.call`` as the collector does,
``CircuitBreaker.allow`` + ``record_success`` as the service does)
against a direct call, for the record rather than for a hard gate. Results go to
``benchmarks/results/BENCH_resilience.json``.
"""

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

from conftest import alternate, emit, spin
from repro.data import TelecomConfig, generate_telecom
from repro.obs import get_observability
from repro.resilience import CircuitBreaker, Retry
from repro.workflow import EMRegistry, MetricCollector, TimeSeriesDB

RESULTS_DIR = Path(__file__).parent / "results"

#: Acceptance ceiling: clean-path collection+read-back vs the
#: pre-resilience collector.
MAX_CLEAN_OVERHEAD = 0.03

#: Executions replayed per timed round (grid interval matches production).
N_EXECUTIONS = 40
INTERVAL = 900.0

#: Interleaved blocks per run, and rounds of each collector per block.
N_BLOCKS = 61
BLOCK_ROUNDS = 2

_OBS = get_observability()
_M_EXECUTIONS = _OBS.counter(
    "repro_executions_collected_total", "Test executions replayed into the TSDB."
)
_M_SERIES = _OBS.counter(
    "repro_series_ingested_total", "Series written per collected execution."
)
_M_SAMPLES = _OBS.counter(
    "repro_samples_ingested_total", "Samples written into the workload TSDB."
)


def _corpus():
    dataset = generate_telecom(
        TelecomConfig(
            n_chains=8,
            n_testbeds=4,
            builds_per_chain=(3, 4),
            timesteps_per_build=(50, 60),
            n_focus=2,
            include_rare_testbed=False,
            fault_magnitude=(14.0, 25.0),
            seed=4,
        )
    )
    executions = [e for chain in dataset.chains for e in chain.executions]
    executions = executions[:N_EXECUTIONS]
    names = [f"feature_{i:02d}" for i in range(executions[0].features.shape[1])]
    return executions, names


def _baseline_round(executions, names):
    """The pre-resilience collector, replicated verbatim: span + legacy
    counters + direct per-series writes, then an exact read-back."""
    tsdb = TimeSeriesDB()
    registry = EMRegistry()
    ids = []
    for i, execution in enumerate(executions):
        with _OBS.span("collector.collect"):
            record_id = registry.register(execution.environment)
            labels = {"env": record_id}
            n = execution.n_timesteps
            timestamps = i * 1e6 + INTERVAL * np.arange(n)
            rows = np.column_stack([execution.features, execution.cpu])
            for column, name in enumerate(names):
                tsdb.write_array(name, labels, timestamps, rows[:, column])
            tsdb.write_array("cpu_usage", labels, timestamps, rows[:, -1])
            _M_EXECUTIONS.inc()
            _M_SERIES.inc(len(names) + 1)
            _M_SAMPLES.inc(n * (len(names) + 1))
        ids.append(record_id)
    for record_id in ids:
        labels = {"env": record_id}
        _, cpu = tsdb.query_one("cpu_usage", labels).as_arrays()
        columns = [tsdb.query_one(name, labels).as_arrays()[1] for name in names]
        np.stack(columns, axis=1)


def _clean_round(executions, names):
    """The resilience-era collector with the ladder armed but untriggered."""
    tsdb = TimeSeriesDB()
    collector = MetricCollector(
        tsdb, EMRegistry(), feature_names=names, interval=INTERVAL
    )
    ids = [
        collector.collect(execution, start_time=i * 1e6)
        for i, execution in enumerate(executions)
    ]
    for record_id in ids:
        collector.read_back(record_id)


def _best_of(rounds, *contenders):
    best = [np.inf] * len(contenders)
    for _ in range(rounds):
        for slot, contender in enumerate(contenders):
            start = time.perf_counter()
            contender()
            best[slot] = min(best[slot], time.perf_counter() - start)
    return best


def _policy_micro(repeats: int = 20000) -> dict:
    """Per-call cost of each policy primitive around a trivial workload."""

    def work():
        return 1 + 1

    retry = Retry(max_attempts=5, name="bench-retry")
    breaker = CircuitBreaker(failure_threshold=5, name="bench-breaker")

    def direct():
        for _ in range(repeats):
            work()

    def retried():
        for _ in range(repeats):
            retry.call(work)

    def breakered():
        for _ in range(repeats):
            breaker.allow()
            work()
            breaker.record_success()

    direct_s, retry_s, breaker_s = _best_of(9, direct, retried, breakered)
    return {
        "calls": repeats,
        "direct_us_per_call": 1e6 * direct_s / repeats,
        "retry_call_us_per_call": 1e6 * retry_s / repeats,
        "breaker_allow_record_us_per_call": 1e6 * breaker_s / repeats,
    }


def _block_ratios(baseline, clean, blocks: int, block_rounds: int) -> list[float]:
    """clean/baseline seconds of each interleaved block."""
    ratios = []
    for block in range(blocks):
        seconds = {}
        for label in alternate(("baseline", "clean"), block):
            run = baseline if label == "baseline" else clean
            start = time.perf_counter()
            for _ in range(block_rounds):
                run()
            seconds[label] = time.perf_counter() - start
        ratios.append(seconds["clean"] / seconds["baseline"])
    return ratios


def run_resilience_bench(
    blocks: int = N_BLOCKS, block_rounds: int = BLOCK_ROUNDS, inject_clean_cost: float = 0.0
) -> dict:
    executions, names = _corpus()

    def baseline():
        _baseline_round(executions, names)

    # Warm numpy dispatch and the metric-handle caches off the clock,
    # and size the injected cost from the baseline's own round time.
    baseline_s = min(_best_of(5, baseline))
    injected_s = inject_clean_cost * baseline_s

    def clean():
        _clean_round(executions, names)
        if injected_s:
            spin(injected_s)

    clean()
    ratios = _block_ratios(baseline, clean, blocks, block_rounds)
    quartiles = statistics.quantiles(ratios, n=4)
    total_samples = sum(e.n_timesteps for e in executions)
    results = {
        "collection": {
            "executions": len(executions),
            "samples": total_samples,
            "blocks": blocks,
            "rounds_per_block": block_rounds,
            "baseline_ms_per_round": 1e3 * baseline_s,
            "injected_ms_per_clean_round": 1e3 * injected_s,
            "clean_overhead": statistics.median(ratios) - 1.0,
            "clean_overhead_q1": quartiles[0] - 1.0,
            "clean_overhead_q3": quartiles[2] - 1.0,
        },
        "policy_micro": _policy_micro(),
        "acceptance": {"max_clean_overhead": MAX_CLEAN_OVERHEAD},
    }
    return results


def _render(results: dict) -> str:
    col = results["collection"]
    micro = results["policy_micro"]
    return "\n".join([
        "Resilience overhead — clean collection path "
        f"({col['executions']} executions, {col['samples']} samples)",
        f"  pre-resilience baseline {col['baseline_ms_per_round']:8.2f} ms/round (best of 5)",
        f"  collector, ladder armed {100 * col['clean_overhead']:+.2f}% over baseline "
        f"(median of {col['blocks']} interleaved blocks of {col['rounds_per_block']} rounds; "
        f"quartiles {100 * col['clean_overhead_q1']:+.2f}% .. {100 * col['clean_overhead_q3']:+.2f}%)",
        "Policy primitives (per call, trivial workload)",
        f"  direct call      {micro['direct_us_per_call']:6.3f} us",
        f"  Retry.call       {micro['retry_call_us_per_call']:6.3f} us",
        f"  CircuitBreaker   {micro['breaker_allow_record_us_per_call']:6.3f} us",
    ])


def test_bench_resilience(benchmark):
    results = benchmark.pedantic(run_resilience_bench, rounds=1, iterations=1)
    emit("resilience", _render(results))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_resilience.json").write_text(json.dumps(results, indent=2) + "\n")

    overhead = results["collection"]["clean_overhead"]
    assert overhead < MAX_CLEAN_OVERHEAD, (
        f"clean-path resilience costs {100 * overhead:.2f}% over the "
        f"pre-resilience collector; ceiling is {100 * MAX_CLEAN_OVERHEAD:.0f}%"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--inject-clean-cost",
        type=float,
        default=0.0,
        help="busy-wait this fraction of a baseline round in every clean round",
    )
    args = parser.parse_args()
    bench_results = run_resilience_bench(inject_clean_cost=args.inject_clean_cost)
    print(_render(bench_results))
    overhead = bench_results["collection"]["clean_overhead"]
    passed = overhead < MAX_CLEAN_OVERHEAD
    print(f"gate (< {100 * MAX_CLEAN_OVERHEAD:.0f}%): {'pass' if passed else 'FAIL'}")
    if not args.inject_clean_cost:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_resilience.json").write_text(
            json.dumps(bench_results, indent=2) + "\n"
        )
    raise SystemExit(0 if passed else 1)
