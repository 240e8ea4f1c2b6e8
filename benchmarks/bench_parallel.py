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

The run also splits one ``PredictionPipeline.calibrate`` call into
stages, on the end-to-end rescore workload's corpus shape: windowing,
environment encoding, input scaling, the compiled forward and the
error-model fit, each timed by wrapping the callable at the name the
pipeline looks it up by, with ``other`` the rest of the call (list
building, concatenation, the split back per execution). With
``--baseline-src`` the same table is taken for another checkout's
``src`` tree in the same process, imported as ``repro_baseline``, the
trees alternating round by round::

    PYTHONPATH=src:benchmarks python benchmarks/bench_parallel.py \\
        --baseline-src ../parent/src

A standalone run writes ``benchmarks/results/BENCH_parallel.json``; the
pytest run checks the same gates and floor without writing it.
"""

import argparse
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from conftest import alternate, emit, import_tree
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

#: The rescore workload's corpus shape (``benchmarks/e2e``), on fewer
#: chains: a calibrate call windows ~3-5 builds of 100-140 steps.
STAGE_CORPUS = dict(
    n_chains=40, n_testbeds=25, builds_per_chain=(4, 6), timesteps_per_build=(100, 140),
    n_focus=6, include_rare_testbed=False, seed=1,
)
#: Timed passes over every chain's calibrate call, per tree.
STAGE_ROUNDS = 7
#: (stage, module, attribute path) — each wrapped where the pipeline
#: looks it up while timing the stages. A tree that lacks one of the
#: names (older trees window per execution with ``build_windows``) skips it.
STAGES = (
    ("windows", "workflow.prediction_pipeline", "build_windows"),
    ("windows", "workflow.prediction_pipeline", "build_windows_multi"),
    ("encode", "core.embeddings", "EnvironmentVocabulary.encode"),
    ("scale", "core.model", "Env2VecRegressor._scale_inputs"),
    ("forward", "nn.inference", "InferenceModel.predict"),
    ("error_model_fit", "core.anomaly", "GaussianErrorModel.fit"),
)


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


class _StageClock:
    """Wraps the :data:`STAGES` callables of one tree with timers."""

    def __init__(self, pkg: str):
        self.seconds = dict.fromkeys((name for name, _, _ in STAGES), 0.0)
        self._patches = []
        for name, module, path in STAGES:
            owner = importlib.import_module(f"{pkg}.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self._patches.append((owner, attr, original))
            is_classmethod = isinstance(original, classmethod)
            setattr(owner, attr, self._timed(name, original, is_classmethod))

    def _timed(self, name, original, is_classmethod):
        fn = original.__func__ if is_classmethod else original

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - start

        return classmethod(timed) if is_classmethod else timed

    def reset(self) -> None:
        self.seconds = dict.fromkeys(self.seconds, 0.0)

    def restore(self) -> None:
        for owner, attr, original in self._patches:
            setattr(owner, attr, original)


class _CalibrateSession:
    """One tree's published rescore model and chains, for calibrate calls."""

    def __init__(self, pkg: str):
        data = importlib.import_module(pkg + ".data")
        workflow = importlib.import_module(pkg + ".workflow")
        dataset = data.generate_telecom(data.TelecomConfig(**STAGE_CORPUS))
        store = workflow.ModelStore()
        workflow.TrainingPipeline(
            store, n_lags=N_LAGS, model_params={"max_epochs": 1, "batch_size": 512}, seed=0
        ).train([(e.environment, e.features, e.cpu) for c in dataset.chains for e in c.history])
        self.pkg = pkg
        self.chains = dataset.chains
        self.pipeline = workflow.PredictionPipeline(store, workflow.AlarmStore())
        self.digest = self._pass()  # warm-up: fetch, compile, caches

    def _pass(self) -> bytes:
        return b"".join(
            np.array([m.mu, m.sigma]).tobytes()
            for m in (self.pipeline.calibrate(chain) for chain in self.chains)
        )

    def timed_pass(self) -> list[float]:
        """Seconds of every chain's calibrate call, uninstrumented."""
        calls = []
        for chain in self.chains:
            start = time.perf_counter()
            self.pipeline.calibrate(chain)
            calls.append(time.perf_counter() - start)
        return calls

    def staged_pass(self) -> list[dict]:
        """Every chain's calibrate call split into stages, in seconds."""
        clock = _StageClock(self.pkg)
        calls = []
        try:
            for chain in self.chains:
                clock.reset()
                start = time.perf_counter()
                self.pipeline.calibrate(chain)
                total = time.perf_counter() - start
                calls.append({**clock.seconds, "other": total - sum(clock.seconds.values()), "total": total})
        finally:
            clock.restore()
        return calls


def calibrate_stages(pkgs: dict[str, str]) -> dict:
    """Median milliseconds per stage of one calibrate call, per tree.

    The trees alternate pass by pass, an instrumented pass (the stage
    split) and an uninstrumented one (``calibrate_p50_ms``, the number
    the e2e rescore workload's ``p50_ms`` reads) each round. The
    calibrated error models must be bytewise equal across trees.
    """
    sessions = {label: _CalibrateSession(pkg) for label, pkg in pkgs.items()}
    digests = {session.digest for session in sessions.values()}
    staged = {label: [] for label in sessions}
    plain = {label: [] for label in sessions}
    for round_ in range(STAGE_ROUNDS):
        for label in alternate(sessions, round_):
            staged[label].extend(sessions[label].staged_pass())
            plain[label].append(statistics.median(sessions[label].timed_pass()))
    windows = [
        sum(e.n_timesteps - N_LAGS for e in chain.history) for chain in next(iter(sessions.values())).chains
    ]
    result = {
        label: {
            **{f"{key}_ms": 1e3 * statistics.median(call[key] for call in calls) for key in calls[0]},
            "calibrate_p50_ms": 1e3 * min(plain[label]),
        }
        for label, calls in staged.items()
    }
    result["config"] = {
        "corpus": STAGE_CORPUS, "rounds": STAGE_ROUNDS, "chains": len(windows),
        "windows_per_call_median": statistics.median(windows), "cores": os.cpu_count(),
    }
    result["error_models_identical"] = len(digests) == 1
    return result


def _render_stages(stages: dict) -> str:
    labels = [label for label in ("baseline", "change") if label in stages]
    config = stages["config"]
    lines = [
        f"One calibrate call by stage — median ms over {config['chains']} chains x "
        f"{config['rounds']} rounds (~{config['windows_per_call_median']:.0f} windows per call, "
        f"{config['cores']} cores)",
        "  " + f"{'stage':<18}" + "".join(f"{label:>10}" for label in labels),
    ]
    keys = [*dict.fromkeys(name for name, _, _ in STAGES), "other", "total", "calibrate_p50"]
    for key in keys:
        lines.append(
            "  " + f"{key:<18}" + "".join(f"{stages[label][key + '_ms']:10.3f}" for label in labels)
        )
    if len(labels) == 2:
        base, change = stages["baseline"]["calibrate_p50_ms"], stages["change"]["calibrate_p50_ms"]
        lines.append(f"  calibrate p50 speedup {base / change:.2f}x")
    lines.append(f"  error models bytewise equal across trees: {stages['error_models_identical']}")
    return "\n".join(lines)


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
            "",
            _render_stages(results["calibrate_stages"]),
        ]
    )


def run(pkgs: dict[str, str]) -> dict:
    return {**run_parallel_bench(), "calibrate_stages": calibrate_stages(pkgs)}


def test_bench_parallel(benchmark):
    """The floor and the byte-identity gates on this tree; ``main`` writes
    ``BENCH_parallel.json``, with ``--baseline-src`` for the stage table."""
    results = benchmark.pedantic(run, args=({"change": "repro"},), rounds=1, iterations=1)
    emit("parallel", _render(results))

    speedup = results["coalesced"]["speedup_vs_per_execution"]
    assert results["byte_identical"]
    assert results["calibrate_stages"]["error_models_identical"]
    assert speedup >= MIN_SPEEDUP, (
        f"coalesced campaign scoring reached only {speedup:.2f}x over the "
        f"per-execution loop; floor is {MIN_SPEEDUP:.1f}x"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline-src", help="another checkout's src/ to compare against")
    args = parser.parse_args(argv)
    pkgs = {"change": "repro"}
    if args.baseline_src:
        pkgs = {"baseline": import_tree(args.baseline_src), **pkgs}
    results = run(pkgs)
    text = _render(results)
    emit("parallel", text)
    (RESULTS_DIR / "BENCH_parallel.json").write_text(json.dumps(results, indent=2) + "\n")
    failures = []
    if not results["byte_identical"] or not results["calibrate_stages"]["error_models_identical"]:
        failures.append("scoring is not byte-identical")
    if results["coalesced"]["speedup_vs_per_execution"] < MIN_SPEEDUP:
        failures.append(f"coalesced speedup is below its {MIN_SPEEDUP}x floor")
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
