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

Acceptance: the clean path costs ≤3% over baseline. A micro section
reports the per-call price of each policy primitive in the form its
production caller runs it (``Retry.call`` as the collector does,
``CircuitBreaker.allow`` + ``record_success`` as the service does)
against a direct call, for the record rather than for a hard gate. Results go to
``benchmarks/results/BENCH_resilience.json``.
"""

import json
import time
from pathlib import Path

import numpy as np

from conftest import emit
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


def run_resilience_bench(rounds: int = 21) -> dict:
    executions, names = _corpus()

    # Warm numpy dispatch and the metric-handle caches off the clock.
    _baseline_round(executions, names)
    _clean_round(executions, names)

    base_s, clean_s = _best_of(
        rounds,
        lambda: _baseline_round(executions, names),
        lambda: _clean_round(executions, names),
    )
    total_samples = sum(e.n_timesteps for e in executions)
    results = {
        "collection": {
            "executions": len(executions),
            "samples": total_samples,
            "rounds": rounds,
            "baseline_ms_per_round": 1e3 * base_s,
            "clean_ms_per_round": 1e3 * clean_s,
            "clean_overhead": clean_s / base_s - 1.0,
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
        f"  pre-resilience baseline {col['baseline_ms_per_round']:8.2f} ms/round",
        f"  collector, ladder armed {col['clean_ms_per_round']:8.2f} ms/round "
        f"({100 * col['clean_overhead']:+.2f}%)",
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
    bench_results = run_resilience_bench()
    print(_render(bench_results))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_resilience.json").write_text(
        json.dumps(bench_results, indent=2) + "\n"
    )
