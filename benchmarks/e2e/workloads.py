"""The four workloads of the end-to-end benchmark.

Each workload makes its corpus from the benchmark seed, sets the program
up :data:`SETUP_REPEATS` times (reporting the median), measures for the
requested seconds, and checks the program's outputs outside the timed
sections. Model-training seeds stay fixed at 0: the benchmark seed picks
inputs and arrival schedules only.

In a traced run the measured time is split in two halves: the first
runs the program untouched and the second under the tracer, so the
difference between them is the tracing overhead. Set-up is traced too,
so every layer the workload touches has a non-zero share.
"""

from __future__ import annotations

import asyncio
import hashlib
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.data import TelecomConfig, generate_telecom
from repro.data.chains import TestExecution
from repro.serve import Env2VecService, PredictRequest, ServeConfig
from repro.workflow import (
    AlarmStore,
    ModelStore,
    PredictBatch,
    PredictionPipeline,
    TestingCampaign,
    TrainingPipeline,
)

from .loadgen import best, closed_loop, open_loop, percentile, poisson_offsets, summarize

__all__ = ["WORKLOADS", "Context", "Result"]

clock = time.perf_counter

SETUP_REPEATS = 7
#: Campaigns per untraced run at least; each adds a set-up sample.
MIN_CAMPAIGNS = 3
N_LAGS = 3

#: Execution-level alarm quality floors for the campaign (days 1+). Over
#: seeds 1-20 precision was 0.062-0.075 (most executions raise some
#: alarm) and recall 1.0 (every faulty execution alarmed).
CAMPAIGN_PRECISION_FLOOR = 0.04
CAMPAIGN_RECALL_FLOOR = 0.6


@dataclass(frozen=True)
class Corpus:
    """A synthetic telecom testing corpus, generated from the seed."""

    n_chains: int
    builds: tuple[int, int]
    steps: tuple[int, int]
    n_focus: int
    n_testbeds: int = 25

    def generate(self, seed: int):
        return generate_telecom(
            TelecomConfig(
                n_chains=self.n_chains,
                n_testbeds=self.n_testbeds,
                builds_per_chain=self.builds,
                timesteps_per_build=self.steps,
                n_focus=self.n_focus,
                include_rare_testbed=False,
                seed=seed,
            )
        )


@dataclass(frozen=True)
class CampaignSize:
    corpus: Corpus
    epochs: int


@dataclass(frozen=True)
class RescoreSize:
    corpus: Corpus
    epochs: int
    n_sampled: int


@dataclass(frozen=True)
class ServeSize:
    corpus: Corpus
    n_train_chains: int
    epochs: int
    tail: int
    clients: int
    rate: float


CAMPAIGN = {
    False: CampaignSize(Corpus(12, (5, 5), (100, 140), n_focus=3), epochs=10),
    True: CampaignSize(Corpus(6, (2, 3), (40, 50), n_focus=2), epochs=2),
}
RESCORE = {
    False: RescoreSize(Corpus(200, (4, 6), (100, 140), n_focus=6), epochs=1, n_sampled=16),
    True: RescoreSize(Corpus(20, (2, 3), (40, 50), n_focus=2), epochs=1, n_sampled=4),
}
SERVE = {
    False: ServeSize(
        Corpus(1000, (2, 3), (40, 50), n_focus=4, n_testbeds=30),
        n_train_chains=100, epochs=4, tail=8, clients=256, rate=3000.0,
    ),
    True: ServeSize(
        Corpus(100, (2, 3), (40, 50), n_focus=2, n_testbeds=30),
        n_train_chains=20, epochs=1, tail=8, clients=32, rate=500.0,
    ),
}
SERVE_CONFIG = {"max_batch": 64, "max_wait": 0.002, "max_queue_depth": 4096}
#: Serve run shape: a warm-up share of the run, then alternating
#: saturated and open-loop windows (half as many per phase when traced).
SERVE_WARMUP_SHARE = 0.05
SERVE_SATURATED_SHARE = 0.45
SERVE_WINDOWS = 16


@dataclass
class Context:
    seed: int
    seconds: float
    smoke: bool = False
    tracer: object | None = None

    def phases(self) -> list[tuple[bool, float]]:
        """(traced?, seconds) for each measured phase."""
        if self.tracer is None:
            return [(False, self.seconds)]
        return [(False, self.seconds / 2), (True, self.seconds / 2)]

    def traced(self, on: bool = True, **instances):
        """Trace a block when this is a traced run and ``on`` is set."""
        if self.tracer is None or not on:
            return nullcontext()
        return self.tracer.active(**instances)


@dataclass
class Result:
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gates: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self) -> bool:
        return all(gate["ok"] for gate in self.gates)


def _train(store: ModelStore, records, epochs: int, dropout=None) -> None:
    params = {"max_epochs": epochs, "batch_size": 512}
    if dropout is not None:
        params["dropout"] = dropout
    TrainingPipeline(store, n_lags=N_LAGS, model_params=params, seed=0).train(records)


def _history(chains) -> list:
    return [(e.environment, e.features, e.cpu) for chain in chains for e in chain.history]


# -- campaign -------------------------------------------------------------


def _campaign_setup(size: CampaignSize, days: list, tracer):
    """A fresh campaign through day 0: construction plus the first train."""
    params = {"max_epochs": size.epochs, "batch_size": 256, "patience": size.epochs}
    start = clock()
    campaign = TestingCampaign(use_collector=True, model_params=params)
    if tracer is not None:
        tracer.trace_id = "day-0"
    report = campaign.run_day(0, days[0])
    return campaign, report, clock() - start


def _campaign_rep(size: CampaignSize, days: list, tracer) -> dict:
    """One fresh campaign: set-up, then every later day timed."""
    campaign, report, setup = _campaign_setup(size, days, tracer)
    reports = [report]
    day_times = []
    for day in range(1, len(days)):
        if tracer is not None:
            tracer.trace_id = f"day-{day}"
        started = clock()
        reports.append(campaign.run_day(day, days[day]))
        day_times.append(clock() - started)
    # Only the quality numbers outlive the campaign, so memory does not
    # grow with the number of campaigns a faster build fits in the run.
    quality = _campaign_quality(days, campaign)
    return {"setup": setup, "day_times": day_times, "reports": reports, "quality": quality}


def _campaign_quality(days: list, campaign) -> tuple[float, float]:
    """Execution-level precision and recall of the alarms, monitored days only."""
    monitored = {e.environment: e for day in days[1:] for e in day}
    alarmed = {record.environment for record in campaign.alarm_store.fetch()} & set(monitored)
    problems = {env for env, e in monitored.items() if e.has_performance_problem}
    hits = len(alarmed & problems)
    precision = hits / len(alarmed) if alarmed else 0.0
    recall = hits / len(problems) if problems else 1.0
    return precision, recall


def run_campaign(ctx: Context) -> Result:
    size = CAMPAIGN[ctx.smoke]
    dataset = size.corpus.generate(ctx.seed)
    n_days = max(len(chain) for chain in dataset.chains)
    days = [[c.executions[d] for c in dataset.chains if d < len(c)] for d in range(n_days)]
    result = Result()
    setups = [_campaign_setup(size, days, None)[2] for _ in range(SETUP_REPEATS)]
    reps = []
    for traced, budget in ctx.phases():
        min_reps = 1 if ctx.tracer is not None else MIN_CAMPAIGNS
        started, done = clock(), 0
        while done < min_reps or clock() - started < budget:
            with ctx.traced(traced):
                rep = _campaign_rep(size, days, ctx.tracer if traced else None)
            rep["traced"] = traced
            reps.append(rep)
            if not traced:
                setups.append(rep["setup"])
            done += 1

    reference = reps[0]["reports"]
    balanced = rising = True
    for rep in reps:
        for day, report in enumerate(rep["reports"]):
            scheduled = len(days[day])
            balanced &= report.executions_run + len(report.quarantined_environments) == scheduled
            rising &= not report.training_diverged
            if day:
                rising &= report.model_version > rep["reports"][day - 1].model_version
        result.attempted += sum(len(day) for day in days)
        result.failed += sum(len(r.quarantined_environments) for r in rep["reports"])
    result.gate("ledger_balances", balanced, "executions_run + quarantined == scheduled, every day")
    result.gate("model_version_rises", rising, "a new version every day, no divergence")
    same = all(rep["reports"] == reference for rep in reps)
    result.gate("reports_identical", same, f"{len(reps)} campaigns (traced and untraced) agree")
    precision, recall = reps[0]["quality"]
    same_quality = all(rep["quality"] == reps[0]["quality"] for rep in reps)
    result.gate("quality_identical", same_quality, "every campaign raises the same alarms")
    result.gate("precision_floor", precision >= CAMPAIGN_PRECISION_FLOOR, f"{precision:.3f}")
    result.gate("recall_floor", recall >= CAMPAIGN_RECALL_FLOOR, f"{recall:.3f}")

    monitored = sum(len(day) for day in days[1:])

    def best_days(traced: bool) -> list[float]:
        """Each day's fastest time over the campaigns: all repeat the same work."""
        return [min(times) for times in zip(*(r["day_times"] for r in reps if r["traced"] == traced))]

    day_s = best_days(False)
    result.e2e = {
        "setup_s": statistics.median(setups),
        "executions_per_s": monitored / sum(day_s),
        "p50_ms": percentile(day_s, 50) * 1e3,
    }
    result.diagnostics = {
        "p90_ms": percentile(day_s, 90) * 1e3,
        "campaigns": sum(not rep["traced"] for rep in reps),
        "setup_samples_s": setups,
        "days_per_campaign": n_days,
        "best_day_s": day_s,
        "day_s": [rep["day_times"] for rep in reps if not rep["traced"]],
        "precision": precision,
        "recall": recall,
        "executions_per_campaign": sum(len(day) for day in days),
    }
    if ctx.tracer is not None:
        traced_best = best_days(True)
        result.layers = _batch_layers(
            ctx.tracer,
            overhead=sum(traced_best) / sum(day_s) - 1.0,
            p90_ms=percentile(traced_best, 90) * 1e3,
            p99_ms=percentile(traced_best, 99) * 1e3,
            quarantined=sum(len(r.quarantined_environments) for rep in reps if rep["traced"] for r in rep["reports"]),
        )
    return result


# -- rescore --------------------------------------------------------------


def _rescore_pass(store: ModelStore, chains, currents):
    """One re-verdict of every chain; also returns per-chain calibration times."""
    pipeline = PredictionPipeline(store, AlarmStore())
    error_models, calibration_s = [], []
    for chain in chains:
        started = clock()
        error_models.append(pipeline.calibrate(chain))
        calibration_s.append(clock() - started)
    return error_models, pipeline.execute(PredictBatch(currents, error_models)), calibration_s


def _run_bytes(run) -> bytes:
    alarms = [(a.start, a.end, a.peak_deviation) for a in run.report.alarms]
    return run.predictions.tobytes() + run.observations.tobytes() + repr(alarms).encode()


def _pass_digest(error_models, runs) -> str:
    digest = hashlib.sha256()
    for model, run in zip(error_models, runs):
        digest.update(np.array([model.mu, model.sigma]).tobytes())
        digest.update(_run_bytes(run))
        digest.update(repr(run.alarm_ids).encode())
    return digest.hexdigest()


def run_rescore(ctx: Context) -> Result:
    size = RESCORE[ctx.smoke]
    dataset = size.corpus.generate(ctx.seed)
    chains = dataset.chains
    history = _history(chains)
    currents = tuple(chain.current for chain in chains)
    result = Result()

    setups, blobs = [], []
    for _ in range(SETUP_REPEATS):
        with ctx.traced():
            started = clock()
            store = ModelStore()
            _train(store, history, size.epochs)
            setups.append(clock() - started)
        blobs.append(store.fetch_latest()[0])
    result.gate("setup_deterministic", len(set(blobs)) == 1, "same seed, same model bytes")

    first_models, first_runs, _ = _rescore_pass(store, chains, currents)  # warm-up
    reference = _pass_digest(first_models, first_runs)
    passes = {False: [], True: []}
    mismatched = raised = 0
    for traced, budget in ctx.phases():
        started, attempts = clock(), 0
        while not attempts or clock() - started < budget:
            attempts += 1
            with ctx.traced(traced):
                if ctx.tracer is not None:
                    ctx.tracer.trace_id = f"pass-{attempts}"
                t0 = clock()
                try:
                    error_models, runs, calibration_s = _rescore_pass(store, chains, currents)
                except Exception as error:  # noqa: BLE001 - a raising pass is a counted failure
                    raised += 1
                    result.diagnostics.setdefault("errors", []).append(repr(error))
                    runs = None
                elapsed = clock() - t0
            result.attempted += len(chains)
            if runs is None:
                result.failed += len(chains)
                continue
            passes[traced].append((elapsed, summarize(calibration_s)))
            mismatched += _pass_digest(error_models, runs) != reference
    result.gate("passes_identical", mismatched == 0 and raised == 0, f"{mismatched} differing, {raised} raised")

    rng = np.random.default_rng([ctx.seed, 1])
    sample = sorted(rng.choice(len(chains), size=min(size.n_sampled, len(chains)), replace=False).tolist())
    single = PredictionPipeline(store, AlarmStore())
    differing = [
        index
        for index in sample
        if _run_bytes(single.execute(PredictBatch((currents[index],), (first_models[index],)))[0])
        != _run_bytes(first_runs[index])
    ]
    result.gate("batch_equals_single", not differing, f"{len(sample)} sampled chains, differing: {differing}")

    def rate(traced: bool) -> float:
        return len(chains) / best([t for t, _ in passes[traced]], "lower")

    def calibration(traced: bool, key: str) -> float:
        return best([summary[key] for _, summary in passes[traced]], "lower")

    result.e2e = {
        "setup_s": statistics.median(setups),
        "executions_per_s": rate(False),
        "p50_ms": calibration(False, "p50_ms"),
    }
    result.diagnostics.update({
        "p90_ms": calibration(False, "p90_ms"),
        "passes": len(passes[False]),
        "chains": len(chains),
        "pass_s": [t for t, _ in passes[False]],
        "calibration_p50_ms": [summary["p50_ms"] for _, summary in passes[False]],
        "calibration_p90_ms": [summary["p90_ms"] for _, summary in passes[False]],
        "setup_samples_s": setups,
    })
    if ctx.tracer is not None:
        result.layers = _batch_layers(
            ctx.tracer,
            overhead=rate(False) / rate(True) - 1.0,
            p90_ms=calibration(True, "p90_ms"),
            p99_ms=calibration(True, "p99_ms"),
            quarantined=0,
        )
    return result


def _batch_layers(tracer, *, overhead: float, p90_ms: float, p99_ms: float, quarantined: int) -> dict:
    layers = tracer.layer_metrics()
    layers.update({
        "obs.trace_overhead_frac": overhead,
        "loadgen.p90_ms": p90_ms,
        "loadgen.p99_ms": p99_ms,
        "workflow.quarantined": quarantined,
        "serve.rejected": 0,
        "serve.supervisor.inflight_mean": 0.0,
        "serve.supervisor.restarts": 0,
    })
    return layers


# -- serving --------------------------------------------------------------


class RequestStream:
    """Seeded request source: a fresh request and execution per send.

    The arrays are shared with the chain's tail, so requests cost no
    copying, but no two in-flight requests share an execution object —
    which is what lets the tracer link a request to the batch that
    scored it.
    """

    #: Chain picks drawn up front and cycled through.
    CYCLE = 1 << 16

    def __init__(self, tails: list, seed: int):
        self._tails = tails
        self._picks = np.random.default_rng([seed, 2]).integers(0, len(tails), size=self.CYCLE).tolist()
        self._sent = 0

    def next(self):
        chain = self._picks[self._sent % len(self._picks)]
        self._sent += 1
        tail = self._tails[chain]
        execution = TestExecution(environment=tail.environment, features=tail.features, cpu=tail.cpu)
        return PredictRequest(execution=execution, request_id=str(self._sent)), chain


class _Checker:
    """Collects ``ok`` predictions during a window; compares them after."""

    def __init__(self, reference: list[bytes]):
        self.reference = reference
        self.pending: list = []
        self.checked = 0
        self.mismatched = 0

    def add(self, chain: int, response) -> None:
        self.pending.append((chain, response.run.predictions))

    def check(self) -> None:
        for chain, predictions in self.pending:
            self.mismatched += predictions.tobytes() != self.reference[chain]
        self.checked += len(self.pending)
        self.pending.clear()


async def _serve(ctx: Context, n_workers: int) -> Result:
    size = SERVE[ctx.smoke]
    dataset = size.corpus.generate(ctx.seed)
    corpus = _history(dataset.chains[: size.n_train_chains])
    tails = [
        TestExecution(
            environment=chain.current.environment,
            features=chain.current.features[-size.tail:],
            cpu=chain.current.cpu[-size.tail:],
        )
        for chain in dataset.chains
    ]
    config = ServeConfig(n_workers=n_workers, **SERVE_CONFIG)
    result = Result()
    tracer = ctx.tracer
    setups = []
    service = None
    try:
        for _ in range(SETUP_REPEATS):
            if service is not None:
                await service.stop()
            with ctx.traced():
                started = clock()
                store = ModelStore()
                _train(store, corpus, size.epochs, dropout=0.0)
                service = Env2VecService(store, config=config)
                with tracer.suspended() if tracer is not None else nullcontext():
                    await service.__aenter__()
                client = service.client()
                while not (await client.health()).ready:
                    await asyncio.sleep(0.001)
                setups.append(clock() - started)
        with ctx.traced():
            runs = PredictionPipeline(store, AlarmStore()).execute(PredictBatch(tuple(tails)))
        checker = _Checker([run.predictions.tobytes() for run in runs])
        stream = RequestStream(tails, ctx.seed)
        await closed_loop(client, stream, size.clients, ctx.seconds * SERVE_WARMUP_SHARE, on_ok=checker.add)
        checker.check()

        windows = {False: {"saturated": [], "steady": []}, True: {"saturated": [], "steady": []}}
        n_windows = SERVE_WINDOWS if tracer is None else SERVE_WINDOWS // 2
        traced_wall = 0.0
        for traced, budget in ctx.phases():
            budget *= 1.0 - SERVE_WARMUP_SHARE
            hooks = tracer if traced else None
            # Saturated and open-loop windows alternate, so both see the
            # same share of any slow period on the machine.
            for window in range(n_windows):
                seconds = budget * SERVE_SATURATED_SHARE / n_windows
                with ctx.traced(traced, service=service, stream=stream):
                    started = clock()
                    out = await closed_loop(client, stream, size.clients, seconds, on_ok=checker.add, hooks=hooks)
                    traced_wall += (clock() - started) if traced else 0.0
                checker.check()
                windows[traced]["saturated"].append(_window_stats(out))

                seconds = budget * (1.0 - SERVE_SATURATED_SHARE) / n_windows
                offsets = poisson_offsets(size.rate, seconds, np.random.default_rng([ctx.seed, 3, int(traced), window]))
                with ctx.traced(traced, service=service, stream=stream):
                    if traced:
                        tracer.collect_stages = True
                    started = clock()
                    out = await open_loop(client, stream, offsets, on_ok=checker.add, hooks=hooks)
                    traced_wall += (clock() - started) if traced else 0.0
                    if traced:
                        tracer.collect_stages = False
                checker.check()
                windows[traced]["steady"].append(_window_stats(out, latency=True))
        health = await client.health()
        restarts = sum(worker.epoch - 1 for worker in health.workers)
    finally:
        if service is not None:
            await service.stop()

    for phase in windows.values():
        for stats in phase["saturated"] + phase["steady"]:
            result.attempted += stats["sent"]
            result.failed += stats["failed"]
    result.gate(
        "responses_match_reference",
        checker.mismatched == 0 and checker.checked > 0,
        f"{checker.checked} ok responses checked, {checker.mismatched} differ",
    )

    def best_window(traced: bool, kind: str, key: str, better: str = "lower") -> float:
        return best([stats[key] for stats in windows[traced][kind]], better)

    result.e2e = {
        "setup_s": statistics.median(setups),
        "executions_per_s": best_window(False, "saturated", "throughput", "higher"),
        "p50_ms": best_window(False, "steady", "p50_ms"),
    }
    result.diagnostics = {
        "p90_ms": best_window(False, "steady", "p90_ms"),
        "setup_samples_s": setups,
        "steady_rate": size.rate,
        "windows": windows[False],
        "restarts": restarts,
    }
    if tracer is not None:
        traced_rate = best_window(True, "saturated", "throughput", "higher")
        layers = tracer.layer_metrics(max_batch=config.max_batch)
        layers.update({
            "obs.trace_overhead_frac": result.e2e["executions_per_s"] / traced_rate - 1.0,
            "loadgen.p90_ms": best_window(True, "steady", "p90_ms"),
            "loadgen.p99_ms": best_window(True, "steady", "p99_ms"),
            "workflow.quarantined": 0,
            "serve.rejected": sum(stats["rejected"] for kind in windows[True].values() for stats in kind),
            "serve.supervisor.inflight_mean": tracer.counts["serve.supervisor.score_s"] / traced_wall,
            "serve.supervisor.restarts": restarts,
        })
        result.layers = layers
        result.diagnostics["stages"] = tracer.stage_summary()
    return result


def _window_stats(out, latency: bool = False) -> dict:
    """What one window is reported by; the raw samples are dropped here."""
    stats = {
        "sent": out.sent,
        "failed": out.failed,
        "rejected": out.rejected,
        "throughput": out.throughput,
        "errors": out.errors,
    }
    if latency:
        stats.update(summarize(out.latencies))
        stats["lateness_p99_ms"] = percentile(out.lateness, 99) * 1e3
    return stats


def run_serve_stream(ctx: Context) -> Result:
    return asyncio.run(_serve(ctx, n_workers=0))


def run_serve_workers(ctx: Context) -> Result:
    return asyncio.run(_serve(ctx, n_workers=2))


WORKLOADS = {
    "campaign": run_campaign,
    "rescore": run_rescore,
    "serve_stream": run_serve_stream,
    "serve_workers": run_serve_workers,
}
