#!/usr/bin/env python3
"""A monitoring console session: PromQL queries + engineer reports.

Shows the observability surface around Env2Vec: test executions stream
into the TSDB (step 1), the operator explores them with PromQL exactly as
they would against Prometheus, the prediction pipeline monitors a new
build, and the final test report + alarm dashboard are rendered.

Run:  python examples/monitoring_console.py
"""

from repro.data import FEATURE_NAMES, TelecomConfig, corpus_stats, generate_telecom
from repro.workflow import (
    AlarmStore,
    EMRegistry,
    MetricCollector,
    ModelStore,
    PredictBatch,
    PredictionPipeline,
    TimeSeriesDB,
    TrainingPipeline,
    campaign_summary,
    promql_query,
)


def main() -> None:
    dataset = generate_telecom(
        TelecomConfig(
            n_chains=10,
            n_testbeds=5,
            n_focus=2,
            include_rare_testbed=False,
            fault_magnitude=(14.0, 25.0),
            seed=12,
        )
    )
    print(corpus_stats(dataset).table())

    # Ingest everything into the TSDB.
    tsdb = TimeSeriesDB()
    registry = EMRegistry()
    collector = MetricCollector(tsdb, registry, feature_names=FEATURE_NAMES)
    record_ids = {}
    for chain in dataset.chains:
        for execution in chain.executions:
            record_ids[execution.environment] = collector.collect(execution)

    # Explore with PromQL, as an engineer would against Prometheus.
    chain = dataset.focus_chains[0]
    record_id = record_ids[chain.current.environment]
    horizon = 900.0 * chain.current.n_timesteps
    print(f"\n$ promql> cpu_usage{{env=\"{record_id}\"}}")
    (latest,) = promql_query(tsdb, f'cpu_usage{{env="{record_id}"}}', at=horizon)
    print(f"  -> {latest.value:.1f}% at t={latest.timestamp:.0f}s")
    for expression in (
        f'avg_over_time(cpu_usage{{env="{record_id}"}}[{int(2 * horizon)}s])',
        f'max_over_time(cpu_usage{{env="{record_id}"}}[{int(2 * horizon)}s])',
        f'rate(net_tx{{env="{record_id}"}}[{int(2 * horizon)}s])',
    ):
        (sample,) = promql_query(tsdb, expression, at=horizon)
        print(f"$ promql> {expression}\n  -> {sample.value:.3f}")

    # Train and monitor; render the engineer's report.
    store = ModelStore()
    TrainingPipeline(
        store, n_lags=3, model_params={"max_epochs": 30, "batch_size": 256}
    ).train(dataset.history_training_series())
    alarms = AlarmStore()
    pipeline = PredictionPipeline(store, alarms, gamma=2.5)

    print()
    chains = dataset.focus_chains
    error_models = [pipeline.calibrate(focus_chain) for focus_chain in chains]
    runs = pipeline.execute(PredictBatch([c.current for c in chains], error_models))
    for focus_chain, run in zip(chains, runs):
        print(pipeline.report(focus_chain.current, run))
        print()

    print(campaign_summary(alarms))


if __name__ == "__main__":
    main()
