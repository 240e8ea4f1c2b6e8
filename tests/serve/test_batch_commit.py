"""A served micro-batch commits per batch and counts like per-request runs.

The single-loop service scores a coalesced batch as arrays and commits
it once: one ``fan_in``, one increment per run counter, one response per
request. Counting per batch must not change what the counters add up
to, so serving generated rows at the micro-batcher's ``max_batch``
boundaries leaves every ``repro_*`` counter that counts rows exactly
where one :meth:`~repro.workflow.PredictionPipeline.execute` call per
row leaves it, the request counter and the latency histogram still see
every request, and the responses stay byte-equal.
"""

import asyncio
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import TelecomConfig, generate_telecom
from repro.obs import get_observability
from repro.serve import Env2VecService, PredictRequest, ServeConfig
from repro.workflow import (
    AlarmStore,
    ModelStore,
    PredictBatch,
    PredictionPipeline,
    TrainingPipeline,
)
from tests.strategies import DERANDOMIZED, MAX_BATCH, environment_pool, scoring_rows

pytestmark = pytest.mark.serving

N_LAGS = 3

#: Counters that count forwards or fetches, not rows, so batching moves
#: them by design: the serve layer's own (``repro_serve_*``) and model
#: fetches (once per served batch, once per ``execute`` call).
_PER_CALL_PREFIXES = ("repro_serve_", "repro_model_cache_")

_REQUEST_IDS = itertools.count()


@pytest.fixture(scope="module")
def served():
    """A trained store and the environments its model knows."""
    dataset = generate_telecom(
        TelecomConfig(
            n_chains=6,
            n_testbeds=3,
            builds_per_chain=(3, 4),
            timesteps_per_build=(50, 60),
            n_focus=2,
            include_rare_testbed=False,
            seed=29,
        )
    )
    store = ModelStore()
    TrainingPipeline(
        store,
        n_lags=N_LAGS,
        model_params={"max_epochs": 3, "batch_size": 256, "dropout": 0.0},
        seed=0,
    ).train(dataset.history_training_series())
    known = [chain.current.environment for chain in dataset.chains]
    return store, environment_pool(known), dataset.chains[0].current.features.shape[1]


def _counter_totals(registry) -> dict:
    return {
        (sample.name, tuple(sorted(sample.labels.items()))): sample.value
        for metric in registry.collect()
        if metric.kind == "counter"
        for sample in metric.samples()
    }


def _deltas(registry, run) -> tuple[object, dict]:
    """``run()``'s result and what it added to the per-row counters."""
    before = _counter_totals(registry)
    result = run()
    after = _counter_totals(registry)
    moved = {key: after[key] - before.get(key, 0.0) for key in after}
    return result, {
        key: delta
        for key, delta in moved.items()
        if delta and not key[0].startswith(_PER_CALL_PREFIXES)
    }


@DERANDOMIZED
@given(data=st.data())
def test_served_batch_counts_like_per_request_execute(served, data):
    store, pool, n_features = served
    rows = data.draw(scoring_rows(pool, n_features=n_features, n_lags=N_LAGS))
    registry = get_observability().registry
    was_enabled, registry.enabled = registry.enabled, True
    try:

        async def serve():
            config = ServeConfig(max_batch=MAX_BATCH, max_wait=0.05)
            async with Env2VecService(store, alarm_store=AlarmStore(), config=config) as service:
                return await asyncio.gather(
                    *(
                        service.submit_predict(
                            PredictRequest(
                                execution=execution,
                                error_model=error_model,
                                request_id=str(next(_REQUEST_IDS)),
                            )
                        )
                        for execution, error_model in rows
                    )
                )

        latency = registry.get("repro_serve_request_seconds").labels(kind="predict")
        ok = registry.get("repro_serve_requests_total").labels(kind="predict", status="ok")
        observed_before, ok_before = latency.count, ok.value

        def per_request():
            pipeline = PredictionPipeline(store, AlarmStore())
            return [
                pipeline.execute(PredictBatch((execution,), (error_model,)))[0]
                for execution, error_model in rows
            ]

        responses, served_counts = _deltas(registry, lambda: asyncio.run(serve()))
        assert latency.count - observed_before == len(rows)
        assert ok.value - ok_before == len(rows)
        runs, executed_counts = _deltas(registry, per_request)
    finally:
        registry.enabled = was_enabled

    assert served_counts == executed_counts
    # ... and those totals are the rows' own counts, not batch counts.
    assert served_counts[("repro_prediction_runs_total", ())] == len(rows)
    assert served_counts[("repro_prediction_windows_total", ())] == sum(
        len(run.observations) for run in runs
    )
    assert served_counts.get(("repro_alarms_raised_total", ()), 0) == sum(
        len(run.alarm_ids) for run in runs
    )
    for response, run in zip(responses, runs):
        assert response.status == "ok"
        assert response.run.predictions.tobytes() == run.predictions.tobytes()
        assert response.run.report.flags.tobytes() == run.report.flags.tobytes()
        assert response.run.report.alarms == run.report.alarms
        assert response.run.alarm_ids == run.alarm_ids
