"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro table4            # KDN method comparison (§4.1)
    python -m repro figure1           # per-chain linear models (motivation)
    python -m repro figure3           # Env2Vec vs Ridge_ts per chain
    python -m repro figure4           # MAE CDF over chains
    python -m repro table5            # anomaly detection, with-history
    python -m repro table6            # unseen environments (§4.3)
    python -m repro table7            # coverage analysis
    python -m repro figure6           # embedding-space PCA
    python -m repro holdout           # §6 hold-out contribution analysis
    python -m repro campaign          # multi-day workflow simulation
    python -m repro corpus            # EM coverage/balance statistics
    python -m repro calibration       # §3.2 Gaussian-error assumption check
    python -m repro all               # everything above, in order
    python -m repro analyze src       # repro.analysis lint engine (REP rules)
    python -m repro serve             # always-on serving demo (repro.serve)

Options: ``--full`` uses the paper-scale training protocol (slower);
``--seed N`` reseeds the synthetic corpora; ``--chains N`` resizes the
telecom corpus. ``repro serve --workers N`` runs the serving demo on N
supervised worker processes.
"""

from __future__ import annotations

import argparse
import sys
import time

from .data.kdn import load_all_kdn
from .data.telecom import TelecomConfig, generate_telecom

EXPERIMENTS = (
    "table4",
    "figure1",
    "figure3",
    "figure4",
    "table5",
    "table6",
    "table7",
    "figure6",
    "holdout",
    "campaign",
    "corpus",
    "calibration",
)

__all__ = ["main", "EXPERIMENTS"]

# Explicit module-level caches, keyed by the corpus-defining CLI options.
# These used to be mutable default arguments (``def _f(args, cache={})``),
# which ruff B006 now forbids: a default-arg dict is invisible at the call
# site, survives for the life of the process, and cannot be cleared without
# reaching into ``__defaults__`` — stale entries leaked across programmatic
# ``main()`` invocations in one process. (``functools.lru_cache`` does not
# fit directly: an argparse ``Namespace`` is unhashable.)
_CONTEXT_CACHE: dict[tuple, tuple] = {}
_CHAIN_MAE_CACHE: dict[tuple, object] = {}


def _cache_key(args) -> tuple:
    return (args.seed, args.chains, args.full)


def _telecom_context(args):
    """Dataset + trained pooled models, built once per process."""
    key = _cache_key(args)
    if key not in _CONTEXT_CACHE:
        from .eval import train_env2vec_telecom, train_rfnn_all_telecom

        n_focus = min(11, max(2, args.chains // 4))
        dataset = generate_telecom(
            TelecomConfig(n_chains=args.chains, n_focus=n_focus, seed=args.seed)
        )
        env2vec = train_env2vec_telecom(dataset, fast=not args.full)
        rfnn_all = train_rfnn_all_telecom(dataset, fast=not args.full)
        _CONTEXT_CACHE[key] = (dataset, env2vec, rfnn_all)
    return _CONTEXT_CACHE[key]


def _run_table4(args) -> str:
    from .eval import run_kdn_comparison

    result = run_kdn_comparison(seed=args.seed, n_nn_runs=10 if args.full else 2, fast=not args.full)
    lines = [result.table4(), "", "Table 3 splits:"]
    for name, dataset in load_all_kdn(seed=args.seed).items():
        train, val, test = dataset.split()
        lines.append(f"  {name:<9} {len(train)}/{len(val)}/{len(test)}")
    return "\n".join(lines)


def _run_figure1(args) -> str:
    from .eval import run_figure1
    from .eval.plots import ascii_heatmap

    dataset, _, _ = _telecom_context(args)
    result = run_figure1(dataset)
    return "\n".join([result.summary(), "", ascii_heatmap(result.weights)])


def _chain_mae(args):
    key = _cache_key(args)
    if key not in _CHAIN_MAE_CACHE:
        from .eval import run_chain_mae

        dataset, env2vec, rfnn_all = _telecom_context(args)
        _CHAIN_MAE_CACHE[key] = run_chain_mae(dataset, env2vec, rfnn_all)
    return _CHAIN_MAE_CACHE[key]


def _run_figure3(args) -> str:
    result = _chain_mae(args)
    improvement = result.improvement("env2vec", "ridge_ts")
    return "\n".join(
        [
            result.mean_table(),
            f"Env2Vec vs Ridge_ts: mean per-chain MAE improvement {improvement.mean():+.3f}",
        ]
    )


def _run_figure4(args) -> str:
    from .eval.plots import ascii_cdf

    result = _chain_mae(args)
    return ascii_cdf({m: v for m, v in result.per_chain_mae.items()})


def _run_table5(args) -> str:
    from .eval import run_anomaly_table

    dataset, env2vec, rfnn_all = _telecom_context(args)
    result = run_anomaly_table(dataset, env2vec, rfnn_all)
    return result.table("Table 5 — performance problems detected")


def _run_table6(args) -> str:
    from .eval import run_unseen_table

    dataset, _, _ = _telecom_context(args)
    result = run_unseen_table(dataset, fast=not args.full, seed=args.seed)
    return result.table("Table 6 — unseen environments")


def _run_table7(args) -> str:
    from .eval import run_anomaly_table, run_coverage_table

    dataset, env2vec, _ = _telecom_context(args)
    table5 = run_anomaly_table(
        dataset, env2vec, None, gammas=(1.0,), include_htm=False, include_ridge=False
    )
    return run_coverage_table(dataset, table5).table()


def _run_figure6(args) -> str:
    from .eval import run_embedding_pca
    from .eval.plots import ascii_scatter

    dataset, env2vec, _ = _telecom_context(args)
    result = run_embedding_pca(env2vec, dataset)
    header = (
        f"Figure 6 — embedding PCA over {len(result.environments)} environments; "
        f"build-type cluster ratio {result.cluster_ratio():.3f}"
    )
    return "\n".join([header, ascii_scatter(result.coordinates, result.build_types)])


def _run_holdout(args) -> str:
    from .eval import cf_group_holdout, em_field_holdout

    dataset, _, _ = _telecom_context(args)
    cf = cf_group_holdout(dataset, fast=not args.full, seed=args.seed)
    em = em_field_holdout(dataset, fast=not args.full, seed=args.seed)
    return "\n\n".join(
        [cf.table("§6 holdout — contextual feature groups"), em.table("§6 holdout — EM fields")]
    )


def _run_campaign(args) -> str:
    from .workflow import TestingCampaign, observability_summary

    dataset, _, _ = _telecom_context(args)
    campaign = TestingCampaign(model_params={"max_epochs": 15, "batch_size": 256})
    reports = campaign.run(dataset)
    lines = ["Multi-day testing campaign (collect -> monitor -> mask -> retrain):"]
    for report in reports:
        lines.append(
            f"  day {report.day}: {report.executions_run} executions, "
            f"{report.alarms_raised} alarms, {len(report.flagged_environments)} newly "
            f"flagged, model v{report.model_version}"
        )
    lines.append(f"  masked environments at end: {len(campaign.masked_environments)}")
    lines.append("")
    lines.append(observability_summary(campaign))
    return "\n".join(lines)


def _run_corpus(args) -> str:
    from .data import corpus_stats

    dataset, _, _ = _telecom_context(args)
    return corpus_stats(dataset).table()


def _run_calibration(args) -> str:
    import numpy as np

    from .core import calibration_report
    from .eval.telecom_experiments import _predict_execution

    dataset, env2vec, _ = _telecom_context(args)
    errors = []
    for chain in dataset.focus_chains:
        for execution in chain.history:
            predicted, observed = _predict_execution(env2vec, execution, env2vec.n_lags)
            errors.append(predicted - observed)
    report = calibration_report(np.concatenate(errors))
    return "§3.2 Gaussian-error assumption check\n" + report.table()


def _serve_main(argv: list[str]) -> int:
    """``repro serve``: load-generate against a live Env2VecService.

    Trains a quick model over a small telecom corpus, starts the serving
    layer, replays a seeded bursty predict workload through the
    :class:`~repro.serve.ServeClient` facade, and prints both the
    client-side latency report and the service's own dogfooded metrics
    (PromQL quantiles over the exported ``repro_serve_*`` histograms).
    """
    import asyncio

    parser = argparse.ArgumentParser(
        prog="repro serve", description="always-on serving layer demo + load generator"
    )
    parser.add_argument("--chains", type=int, default=24, help="telecom corpus size")
    parser.add_argument("--requests", type=int, default=200, help="predict requests to replay")
    parser.add_argument("--seed", type=int, default=7, help="corpus + arrival seed")
    parser.add_argument("--max-batch", type=int, default=32, help="micro-batch size cap")
    parser.add_argument(
        "--max-wait",
        type=float,
        default=0.002,
        help="most seconds a micro-batch keeps topping up while requests arrive",
    )
    parser.add_argument("--depth", type=int, default=256, help="admission queue depth bound")
    parser.add_argument(
        "--burst", type=float, default=16.0, help="mean requests per arrival burst"
    )
    parser.add_argument(
        "--gap", type=float, default=0.005, help="mean seconds between bursts"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="supervised worker processes (0 = execute on the event loop)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request deadline budget in seconds (default: none)",
    )
    parser.add_argument(
        "--kill-rate",
        type=float,
        default=0.0,
        help="seeded chaos: probability a worker dies mid-batch",
    )
    parser.add_argument(
        "--stall-rate",
        type=float,
        default=0.0,
        help="seeded chaos: probability a worker hangs past its heartbeat",
    )
    args = parser.parse_args(argv)

    from .serve import (
        Env2VecService,
        LoadProfile,
        PredictRequest,
        ServeConfig,
        arrival_offsets,
        run_load,
    )
    from .workflow import ModelStore, TrainingPipeline, promql_query

    n_focus = min(11, max(2, args.chains // 4))
    dataset = generate_telecom(
        TelecomConfig(n_chains=args.chains, n_focus=n_focus, seed=args.seed)
    )
    store = ModelStore()
    TrainingPipeline(
        store, n_lags=3, model_params={"max_epochs": 10, "batch_size": 256}, seed=args.seed
    ).train(dataset.history_training_series())

    executions = [chain.current for chain in dataset.chains]
    requests = [
        PredictRequest(
            execution=executions[i % len(executions)],
            request_id=str(i),
            deadline_seconds=args.deadline,
        )
        for i in range(args.requests)
    ]
    profile = LoadProfile(
        n_requests=args.requests,
        burst_size=args.burst,
        burst_gap=args.gap,
        seed=args.seed,
    )
    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        max_queue_depth=args.depth,
        n_workers=args.workers,
    )
    chaos = None
    if args.kill_rate or args.stall_rate:
        from .resilience import ChaosProfile

        chaos = ChaosProfile(
            seed=args.seed,
            worker_kill_rate=args.kill_rate,
            worker_stall_rate=args.stall_rate,
        )

    async def scenario():
        service = Env2VecService(store, config=config, self_monitor=True, chaos=chaos)
        async with service:
            report = await run_load(
                service.client(), requests, arrival_offsets(profile)
            )
            health = service.health()
        return service, report, health

    service, report, health = asyncio.run(scenario())
    summary = report.summary()
    print(f"### serve — {args.requests} requests over {args.chains} chains")
    print(
        f"throughput {summary['throughput_rps']:.1f} req/s over "
        f"{summary['makespan_seconds']:.2f}s; "
        f"{summary['n_completed']} ok, {summary['n_rejected']} rejected, "
        f"{summary['n_failed']} failed"
    )
    print(
        f"client latency p50/p95/p99: {summary['p50_seconds'] * 1e3:.2f} / "
        f"{summary['p95_seconds'] * 1e3:.2f} / {summary['p99_seconds'] * 1e3:.2f} ms"
    )
    alarms = service.alarm_store.fetch()
    print(f"alarms raised while serving: {len(alarms)}")
    print(
        f"health: live={health.live} ready={health.ready} "
        f"degraded={health.degraded} breaker={health.breaker_state} "
        f"workers={health.workers_ready}/{health.n_workers} "
        f"model_version={health.model_version}"
    )
    if service.supervisor is not None:
        supervisor = service.supervisor
        print(
            f"supervisor: {supervisor.restarts} restarts, "
            f"{supervisor.reenqueued} in-flight batches re-enqueued, "
            f"{service.admission.shed} deadline-shed, "
            f"{len(service.dead_letters)} dead-lettered"
        )

    at = service.exporter.last_scrape
    tsdb = service.exporter.tsdb
    print("dogfooded metrics (PromQL over the serve observability TSDB):")
    for quantile in (0.5, 0.95, 0.99):
        samples = promql_query(
            tsdb,
            f'histogram_quantile({quantile}, repro_serve_request_seconds_bucket{{kind="predict"}})',
            at,
        )
        for sample in samples:
            print(f"  p{int(quantile * 100):<2} repro_serve_request_seconds: {sample.value * 1e3:.2f} ms")
    for expr in ("repro_serve_batches_total", "repro_serve_rejected_total"):
        for sample in promql_query(tsdb, expr, at):
            print(f"  {expr}: {sample.value:.0f}")
    return 0


_RUNNERS = {
    "table4": _run_table4,
    "figure1": _run_figure1,
    "figure3": _run_figure3,
    "figure4": _run_figure4,
    "table5": _run_table5,
    "table6": _run_table6,
    "table7": _run_table7,
    "figure6": _run_figure6,
    "holdout": _run_holdout,
    "campaign": _run_campaign,
    "corpus": _run_corpus,
    "calibration": _run_calibration,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Env2Vec (EuroSys 2020) reproduction — regenerate paper tables/figures.",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + ("all",),
        help="which table/figure to regenerate",
    )
    parser.add_argument("--full", action="store_true", help="paper-scale training protocol")
    parser.add_argument("--seed", type=int, default=7, help="corpus seed (default 7)")
    parser.add_argument(
        "--chains", type=int, default=125, help="telecom corpus size (default 125)"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "analyze":
        # The lint engine owns its own argparse surface (paths,
        # --list-rules); dispatch before the experiment parser rejects it.
        from .analysis import main as analysis_main

        return analysis_main(argv[1:])
    if argv and argv[0] == "serve":
        # Same pattern: the serving demo owns its own knobs (--requests,
        # --max-batch, ...), so dispatch before the experiment parser.
        return _serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in names:
        start = time.perf_counter()
        output = _RUNNERS[name](args)
        elapsed = time.perf_counter() - start
        print(f"\n### {name} ({elapsed:.1f}s)\n{output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
