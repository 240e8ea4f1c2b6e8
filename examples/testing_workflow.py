#!/usr/bin/env python3
"""The full Figure 2 testing workflow, end to end.

Walks through the paper's five workflow steps with the real substrates:

  (1) the metric collector replays test executions into the TSDB with EM
      labels and registers endpoints in the Prometheus service-discovery
      JSON;
  (2) the training pipeline masks flagged executions, trains the single
      Env2Vec model, and publishes the serialized artifact;
  (3) the prediction pipeline fetches the model, reads the running build,
      builds the Table 2 dataframe, and infers resource usage;
  (4) detected deviations become alarms in the (sqlite) alarm store, with
      the early-termination hook;
  (5) the prediction pipeline always fetches the latest published model.

Run:  python examples/testing_workflow.py
"""

import tempfile
from pathlib import Path

from repro.data import FEATURE_NAMES, TelecomConfig, generate_telecom
from repro.workflow import (
    AlarmStore,
    EMRegistry,
    MetricCollector,
    ModelStore,
    PredictBatch,
    PredictionPipeline,
    ServiceDiscovery,
    TimeSeriesDB,
    TrainingPipeline,
    build_prediction_frame,
)


def main() -> None:
    dataset = generate_telecom(
        TelecomConfig(n_chains=12, n_testbeds=5, n_focus=2, include_rare_testbed=False, seed=7)
    )
    workdir = Path(tempfile.mkdtemp(prefix="env2vec-workflow-"))

    # ------------------------------------------------------------------
    # Step 1 — testbed data collection into the TSDB.
    # ------------------------------------------------------------------
    tsdb = TimeSeriesDB()
    registry = EMRegistry()
    discovery = ServiceDiscovery(workdir / "prometheus_sd.json")
    collector = MetricCollector(tsdb, registry, discovery=discovery, feature_names=FEATURE_NAMES)
    for chain in dataset.chains:
        for execution in chain.executions:
            collector.collect(execution)
    print(
        f"step 1: collected {tsdb.n_series():,} series / {tsdb.n_samples():,} samples "
        f"into the TSDB; {len(discovery)} service-discovery targets"
    )
    print(f"        discovery entry example: {discovery.targets()[0]}")

    # ------------------------------------------------------------------
    # Step 2 — daily model training (current builds held out), publish.
    # ------------------------------------------------------------------
    store = ModelStore(workdir / "models")
    trainer = TrainingPipeline(
        store, n_lags=3, model_params={"max_epochs": 40, "batch_size": 256}
    )
    result = trainer.train(dataset.history_training_series())
    print(
        f"step 2: trained on {result.n_examples:,} examples "
        f"({result.epochs_run} epochs); published model v{result.version.version} "
        f"({result.version.size_bytes / 1024:.0f} KiB)"
    )

    # ------------------------------------------------------------------
    # Steps 3-5 — monitor every chain's current build.
    # ------------------------------------------------------------------
    alarms = AlarmStore(workdir / "alarms.sqlite")
    pipeline = PredictionPipeline(store, alarms, gamma=3.0, termination_threshold=3)

    frame = build_prediction_frame(dataset.chains[0].current, n_lags=3, feature_names=FEATURE_NAMES)
    print(f"step 3: Table 2 dataframe for one execution: {frame.shape[0]} rows x "
          f"{frame.shape[1]} columns ({', '.join(frame.columns[:4])}, ...)")

    error_models = [pipeline.calibrate(chain) for chain in dataset.chains]
    runs = pipeline.execute(
        PredictBatch([chain.current for chain in dataset.chains], error_models)
    )
    flagged = [(chain, run) for chain, run in zip(dataset.chains, runs) if run.report.n_alarms]

    print(f"step 4: {alarms.count()} alarms persisted across "
          f"{len(flagged)} flagged executions")
    for chain, run in flagged:
        records = alarms.fetch(environment=chain.current.environment)
        truth = chain.current.has_performance_problem
        terminated = " [early termination triggered]" if run.terminated_early else ""
        print(
            f"        {chain.key} build {chain.current.environment.build}: "
            f"{len(records)} alarm(s), ground truth problem={truth}{terminated}"
        )
        for record in records[:2]:
            print(f"          interval [{record.start_step}, {record.end_step}) "
                  f"peak {record.peak_deviation:.1f}% CPU")

    blob, version = store.fetch_latest()
    print(f"step 5: prediction pipeline served model v{version.version} "
          f"({len(blob) / 1024:.0f} KiB) for every run")

    focus_keys = {chain.key for chain in dataset.focus_chains}
    caught = sum(1 for chain, _ in flagged if chain.key in focus_keys)
    print(f"\nsummary: {caught}/{len(focus_keys)} problem builds flagged; "
          f"{sum(1 for c, _ in flagged if c.key not in focus_keys)} clean builds flagged")


if __name__ == "__main__":
    main()
