"""End-to-end serving tests: byte-identity, backpressure, outages, retrains.

The serve layer's whole contract is that going through admission +
micro-batching changes *when* work runs, never *what* it computes:
responses must be byte-identical to batch
:meth:`~repro.workflow.PredictionPipeline.execute` on the same model
version, backpressure must be an explicit typed rejection, and a TSDB
outage must trip the service breaker instead of hanging traffic.
"""

import asyncio

import numpy as np
import pytest

from repro.data import FEATURE_NAMES, TelecomConfig, generate_telecom
from repro.resilience import BREAKER_OPEN, ChaosProfile, SimulatedClock
from repro.serve import (
    Env2VecService,
    PredictRequest,
    ScrapeRequest,
    ServeConfig,
    ServiceOverloaded,
)
from repro.serve._internal.admission import _M_REJECTED
from repro.workflow import (
    AlarmStore,
    EMRegistry,
    MetricCollector,
    ModelStore,
    PredictBatch,
    PredictionPipeline,
    TimeSeriesDB,
    TrainingPipeline,
)
from repro.workflow.prediction_pipeline import _M_CACHE_MISSES

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def dataset():
    return generate_telecom(
        TelecomConfig(
            n_chains=8,
            n_testbeds=3,
            builds_per_chain=(3, 4),
            timesteps_per_build=(60, 80),
            n_focus=2,
            include_rare_testbed=False,
            seed=11,
        )
    )


def _train(store: ModelStore, dataset, max_epochs: int = 4):
    return TrainingPipeline(
        store,
        n_lags=3,
        model_params={"max_epochs": max_epochs, "batch_size": 256, "dropout": 0.0},
        seed=0,
    ).train(dataset.history_training_series())


def _assert_same_run(response, run):
    assert response.status == "ok"
    assert response.run.predictions.tobytes() == run.predictions.tobytes()
    assert response.run.observations.tobytes() == run.observations.tobytes()
    assert response.run.model_version == run.model_version
    assert response.run.alarm_ids == run.alarm_ids
    assert response.run.terminated_early == run.terminated_early
    np.testing.assert_array_equal(response.run.report.flags, run.report.flags)


class TestServeByteIdentity:
    def test_concurrent_chains_match_batch_execute(self, dataset):
        """N chains served concurrently == one batch execute, byte for byte."""
        store = ModelStore()
        _train(store, dataset)
        executions = [chain.current for chain in dataset.chains]

        reference = PredictionPipeline(store, AlarmStore()).execute(
            PredictBatch(tuple(executions))
        )

        async def scenario():
            service = Env2VecService(
                store, config=ServeConfig(max_batch=3, max_wait=0.001)
            )
            async with service:
                client = service.client()
                return await asyncio.gather(
                    *(
                        client.predict(
                            PredictRequest(execution=execution, request_id=str(i))
                        )
                        for i, execution in enumerate(executions)
                    )
                )

        responses = asyncio.run(scenario())
        assert [r.request_id for r in responses] == [str(i) for i in range(len(executions))]
        for response, run in zip(responses, reference):
            _assert_same_run(response, run)
        # Coalescing actually happened (the point of the micro-batcher)...
        assert any(r.batch_size > 1 for r in responses)
        # ...and no response ever observed a partial batch's side effects:
        # alarm ids line up with the serial reference exactly.

    def test_batch_boundaries_do_not_leak_into_results(self, dataset):
        """Same traffic under different batching knobs -> same bytes."""
        executions = [chain.current for chain in dataset.chains]

        def serve_all(config: ServeConfig):
            store = ModelStore()
            _train(store, dataset)

            async def scenario():
                service = Env2VecService(store, config=config)
                async with service:
                    client = service.client()
                    return await client.predict_many(
                        [PredictRequest(execution=e) for e in executions]
                    )

            return asyncio.run(scenario())

        per_request = serve_all(ServeConfig(max_batch=1, max_wait=0.0))
        coalesced = serve_all(ServeConfig(max_batch=64, max_wait=0.002))
        for a, b in zip(per_request, coalesced):
            assert a.run.predictions.tobytes() == b.run.predictions.tobytes()
            assert a.run.alarm_ids == b.run.alarm_ids


class TestBackpressure:
    def test_overload_rejects_with_retry_after_and_counts(self, dataset):
        store = ModelStore()
        _train(store, dataset)
        executions = [chain.current for chain in dataset.chains]

        async def scenario():
            service = Env2VecService(
                store, config=ServeConfig(max_queue_depth=2, max_wait=0.0)
            )
            # The batcher is deliberately not started: the queue cannot
            # drain, so the third submit must be rejected deterministically.
            rejected_before = _M_REJECTED.value
            futures = [
                service.submit_predict(PredictRequest(execution=executions[i]))
                for i in range(2)
            ]
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.submit_predict(PredictRequest(execution=executions[2]))
            assert excinfo.value.retry_after > 0
            assert _M_REJECTED.value == rejected_before + 1
            assert service.admission.depth == 2
            await service.stop()  # fails the still-queued futures explicitly
            for future in futures:
                with pytest.raises(RuntimeError, match="service stopped"):
                    await future

        asyncio.run(scenario())

    def test_predict_many_withdraws_partial_group_on_overload(self, dataset):
        store = ModelStore()
        _train(store, dataset)
        executions = [chain.current for chain in dataset.chains]

        async def scenario():
            service = Env2VecService(
                store, config=ServeConfig(max_queue_depth=3, max_wait=0.0)
            )
            client = service.client()
            with pytest.raises(ServiceOverloaded):
                await client.predict_many(
                    [PredictRequest(execution=e) for e in executions[:5]]
                )
            # The rejected group left nothing behind.
            assert service.admission.depth == 0
            await service.stop()

        asyncio.run(scenario())


class TestTSDBOutage:
    def _outage_service(self, store) -> Env2VecService:
        chaos = ChaosProfile(seed=3, tsdb_failure_rate=1.0)
        collector = MetricCollector(
            TimeSeriesDB(name="serve-workload"),
            EMRegistry(),
            feature_names=FEATURE_NAMES,
            chaos=chaos,
        )
        return Env2VecService(
            store,
            collector=collector,
            config=ServeConfig(breaker_failures=3, breaker_recovery=300.0),
            breaker_clock=SimulatedClock(),
        )

    def test_breaker_opens_under_injected_outage(self, dataset):
        store = ModelStore()
        _train(store, dataset)
        service = self._outage_service(store)
        execution = dataset.chains[0].current

        for _ in range(3):
            response = service.scrape(ScrapeRequest(execution=execution))
            assert response.status == "unavailable"
        assert service.tsdb_breaker.state == BREAKER_OPEN

        response = service.scrape(ScrapeRequest(execution=execution))
        assert response.status == "circuit_open"
        assert 0 < response.retry_after <= 300.0

        # After recovery time the half-open trial runs (and fails again
        # under total outage, re-opening the circuit).
        service.tsdb_breaker.clock.advance(300.0)
        response = service.scrape(ScrapeRequest(execution=execution))
        assert response.status == "unavailable"
        assert service.tsdb_breaker.state == BREAKER_OPEN

    def test_record_id_requests_skip_while_breaker_open(self, dataset):
        store = ModelStore()
        _train(store, dataset)
        service = self._outage_service(store)
        execution = dataset.chains[0].current
        for _ in range(3):
            service.scrape(ScrapeRequest(execution=execution))
        assert service.tsdb_breaker.state == BREAKER_OPEN

        async def scenario():
            async with service:
                response = await service.client().predict(
                    PredictRequest(
                        record_id="em-000001", environment=execution.environment
                    )
                )
            return response

        response = asyncio.run(scenario())
        assert response.status == "skipped"
        assert response.skipped.reason == "tsdb_circuit_open"


class TestRecordIdRequests:
    def test_never_collected_record_id_is_a_series_missing_skip(self, dataset):
        store = ModelStore()
        _train(store, dataset)
        collector = MetricCollector(
            TimeSeriesDB(name="serve-workload"), EMRegistry(), feature_names=FEATURE_NAMES
        )
        service = Env2VecService(store, collector=collector)
        execution = dataset.chains[0].current
        record_id = service.scrape(ScrapeRequest(execution=execution)).record_id

        async def scenario():
            async with service:
                return await service.client().predict_many(
                    [
                        PredictRequest(record_id=rid, environment=execution.environment)
                        for rid in ("em-999999", record_id)
                    ]
                )

        missing, collected = asyncio.run(scenario())
        assert missing.status == "skipped"
        assert missing.skipped.reason == "series_missing"
        assert "em-999999" in missing.skipped.detail
        assert collected.status == "ok"


class TestRetrainMidTraffic:
    def test_first_post_retrain_request_pays_no_cold_compile(self, dataset):
        store = ModelStore()
        _train(store, dataset)
        executions = [chain.current for chain in dataset.chains]

        async def scenario():
            service = Env2VecService(store, config=ServeConfig(max_batch=4))
            async with service:
                client = service.client()
                wave1 = await client.predict_many(
                    [PredictRequest(execution=e) for e in executions[:4]]
                )
                before = _M_CACHE_MISSES.value
                _train(store, dataset)  # retrain lands mid-traffic
                at_publish = _M_CACHE_MISSES.value
                wave2 = await client.predict_many(
                    [PredictRequest(execution=e) for e in executions[4:]]
                )
                return wave1, wave2, before, at_publish, _M_CACHE_MISSES.value

        wave1, wave2, before, at_publish, after = asyncio.run(scenario())
        assert {r.run.model_version for r in wave1} == {1}
        assert {r.run.model_version for r in wave2} == {2}
        # The publish hook compiled version 2 off the request path: the
        # first post-retrain request never triggers an inline compile.
        assert at_publish == before + 1
        assert after == at_publish


class TestAlarmQueryPath:
    def test_alarms_raised_by_serving_are_queryable(self, dataset):
        """Served alarm ids reach the store, which engineers read, in id order."""
        store = ModelStore()
        _train(store, dataset)
        executions = [chain.current for chain in dataset.chains]

        async def scenario():
            service = Env2VecService(store)
            async with service:
                client = service.client()
                responses = await client.predict_many(
                    [PredictRequest(execution=e) for e in executions]
                )
            return responses, service.alarm_store.fetch()

        responses, alarms = asyncio.run(scenario())
        raised = [aid for r in responses for aid in r.run.alarm_ids]
        assert raised
        assert [record.alarm_id for record in alarms] == sorted(raised)
