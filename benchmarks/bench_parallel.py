"""Benchmark — coalesced campaign scoring vs the per-execution loop.

A campaign day scores a fleet of pending executions that all share one
published model version. The per-execution loop pays three redundant
costs per execution: it recalibrates the chain's error model
(re-predicting every prior build, one forward each), rebuilds identical
windows, and issues one small forward per execution. The pipeline path
calibrates each chain once with one coalesced forward over its history
(:meth:`~repro.workflow.PredictionPipeline.history_error_model`) and
scores the whole fleet with one :meth:`~repro.workflow.PredictionPipeline.execute`.

Contenders, per round over the same fleet, both pushing their alarms to a
fresh store:

- **per-execution**: the loop transcribed — predict, recalibrate,
  detect, push, for every pending execution;
- **coalesced**: one calibration per chain, then one ``execute``.

Acceptance: the coalesced path reaches ≥2x the per-execution throughput
*and* its reports and alarms are byte-identical. The gain is algorithmic
(work eliminated), so it holds on any core count; earlier thread fan-out
on top of coalescing measured no further gain and was removed.
Results go to ``benchmarks/results/BENCH_parallel.json``.
"""

import json
import time
from pathlib import Path

import numpy as np

from conftest import emit
from repro.core.anomaly import ContextualAnomalyDetector, GaussianErrorModel
from repro.data import TelecomConfig, generate_telecom
from repro.data.windows import build_windows
from repro.workflow import AlarmStore, ModelStore, PredictBatch, PredictionPipeline, TrainingPipeline

RESULTS_DIR = Path(__file__).parent / "results"

#: Acceptance floor: coalesced throughput over the per-execution loop.
MIN_SPEEDUP = 2.0

N_LAGS = 3
GAMMA, ABS_THRESHOLD = 2.5, 5.0
#: Pending (to-score) executions per chain — the tail of each chain.
K_PENDING = 3


def _fleet():
    """(store, model, executions, history) — one campaign day at fleet scale."""
    dataset = generate_telecom(
        TelecomConfig(
            n_chains=16,
            n_focus=4,
            builds_per_chain=(7, 9),
            timesteps_per_build=(40, 60),
            include_rare_testbed=False,
            seed=3,
        )
    )
    store = ModelStore()
    pipeline = TrainingPipeline(
        store,
        n_lags=N_LAGS,
        model_params={"max_epochs": 3, "batch_size": 256, "dropout": 0.0},
        seed=0,
    )
    model = pipeline.train(dataset.history_training_series()).model
    model.compile()
    executions, history = [], {}
    for chain in dataset.chains:
        history[chain.key] = list(chain.executions[:-K_PENDING])
        executions.extend(chain.executions[-K_PENDING:])
    return store, model, executions, history


def _per_execution_round(model, executions, history):
    """Predict, recalibrate, detect and push, one execution at a time."""
    detector = ContextualAnomalyDetector(gamma=GAMMA, abs_threshold=ABS_THRESHOLD)
    alarms = AlarmStore()

    def predict(execution):
        X, h, y = build_windows(execution.features, execution.cpu, N_LAGS)
        return model.predict([execution.environment] * len(y), X, h), y

    def error_model(chain_key):
        errors = []
        for execution in history.get(chain_key, []):
            if execution.n_timesteps <= N_LAGS + 1:
                continue
            predictions, observed = predict(execution)
            errors.append(predictions - observed)
        if not errors:
            return None
        return GaussianErrorModel.fit(np.concatenate(errors))

    reports = []
    for execution in executions:
        predictions, observed = predict(execution)
        em = error_model(execution.environment.chain_key)
        if em is None:
            report = detector.detect_self_calibrated(predictions, observed)
        else:
            report = detector.detect(predictions, observed, em)
        for alarm in report.alarms:
            alarms.push(
                environment=execution.environment,
                start_step=alarm.start + N_LAGS,
                end_step=alarm.end + N_LAGS,
                peak_deviation=alarm.peak_deviation,
                gamma=GAMMA,
            )
        reports.append(report)
    return reports, alarms


def _coalesced_round(store, model, executions, history):
    """One calibration per chain, then one coalesced execute."""
    alarms = AlarmStore()
    pipeline = PredictionPipeline(store, alarms, gamma=GAMMA, abs_threshold=ABS_THRESHOLD)
    calibrated = {
        key: pipeline.history_error_model(model, previous) for key, previous in history.items()
    }
    batch = PredictBatch(
        executions, [calibrated[e.environment.chain_key] for e in executions]
    )
    runs = pipeline.execute(batch, model=model, model_version=store.latest_version)
    return [run.report for run in runs], alarms


def _best_of(rounds, *contenders):
    best = [np.inf] * len(contenders)
    for _ in range(rounds):
        for slot, contender in enumerate(contenders):
            start = time.perf_counter()
            contender()
            best[slot] = min(best[slot], time.perf_counter() - start)
    return best


def _alarm_rows(alarms):
    return [
        (r.environment, r.start_step, r.end_step, r.peak_deviation, r.gamma)
        for r in alarms.fetch()
    ]


def _assert_byte_identical(reference, coalesced):
    (ref_reports, ref_alarms), (reports, alarms) = reference, coalesced
    assert len(ref_reports) == len(reports)
    for expected, actual in zip(ref_reports, reports):
        assert actual.flags.tobytes() == expected.flags.tobytes()
        assert actual.errors.tobytes() == expected.errors.tobytes()
        assert actual.alarms == expected.alarms
    assert _alarm_rows(alarms) == _alarm_rows(ref_alarms)


def run_parallel_bench(rounds: int = 7) -> dict:
    store, model, executions, history = _fleet()

    # Correctness gate first: the coalesced path is bitwise the loop.
    _assert_byte_identical(
        _per_execution_round(model, executions, history),
        _coalesced_round(store, model, executions, history),
    )

    per_execution_s, coalesced_s = _best_of(
        rounds,
        lambda: _per_execution_round(model, executions, history),
        lambda: _coalesced_round(store, model, executions, history),
    )
    return {
        "fleet": {
            "executions": len(executions),
            "chains": len(history),
            "pending_per_chain": K_PENDING,
            "rounds": rounds,
        },
        "per_execution": {
            "ms_per_round": 1e3 * per_execution_s,
            "executions_per_second": len(executions) / per_execution_s,
        },
        "coalesced": {
            "ms_per_round": 1e3 * coalesced_s,
            "executions_per_second": len(executions) / coalesced_s,
            "speedup_vs_per_execution": per_execution_s / coalesced_s,
        },
        "byte_identical": True,
        "acceptance": {"min_speedup": MIN_SPEEDUP},
    }


def _render(results: dict) -> str:
    fleet = results["fleet"]
    per_execution, coalesced = results["per_execution"], results["coalesced"]
    return "\n".join(
        [
            "Campaign scoring — "
            f"{fleet['executions']} executions over {fleet['chains']} chains "
            f"({fleet['pending_per_chain']} pending each)",
            f"  per-execution loop   {per_execution['ms_per_round']:8.1f} ms/round "
            f"({per_execution['executions_per_second']:7.1f} exec/s)",
            f"  coalesced pipeline   {coalesced['ms_per_round']:8.1f} ms/round "
            f"({coalesced['executions_per_second']:7.1f} exec/s, "
            f"{coalesced['speedup_vs_per_execution']:.2f}x)",
            f"  reports and alarms byte-identical: {results['byte_identical']}",
        ]
    )


def test_bench_parallel(benchmark):
    results = benchmark.pedantic(run_parallel_bench, rounds=1, iterations=1)
    emit("parallel", _render(results))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_parallel.json").write_text(json.dumps(results, indent=2) + "\n")

    speedup = results["coalesced"]["speedup_vs_per_execution"]
    assert results["byte_identical"]
    assert speedup >= MIN_SPEEDUP, (
        f"coalesced campaign scoring reached only {speedup:.2f}x over the "
        f"per-execution loop; floor is {MIN_SPEEDUP:.1f}x"
    )


if __name__ == "__main__":
    bench_results = run_parallel_bench()
    print(_render(bench_results))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_parallel.json").write_text(
        json.dumps(bench_results, indent=2) + "\n"
    )
