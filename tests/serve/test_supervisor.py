"""Supervised multi-process serving: byte-identity, chaos recovery, rollouts.

The supervisor's contract has three legs, and each gets a test leaning
directly on it: (1) with chaos off, N worker processes produce byte-for-
byte the answers of the single-loop service (workers score, the parent
fans in, in dispatch order); (2) with seeded worker kills and stalls, no
acknowledged request is ever lost — every future resolves with the same
bytes an undisturbed run produces, and the supervisor's restart/re-
enqueue counters show the faults actually fired; (3) rolling publishes
swap model versions without the service ever going cold.
"""

import asyncio
import threading

import pytest

from repro.data import TelecomConfig, generate_telecom
from repro.obs import get_observability
from repro.resilience import ChaosProfile
from repro.serve import Env2VecService, PredictRequest, ServeConfig
from repro.serve._internal.supervisor import MAX_DISPATCH_ATTEMPTS
from repro.workflow import (
    AlarmStore,
    ModelStore,
    PredictBatch,
    PredictionPipeline,
    TrainingPipeline,
)

pytestmark = [pytest.mark.serving, pytest.mark.chaos]


@pytest.fixture(scope="module")
def dataset():
    return generate_telecom(
        TelecomConfig(
            n_chains=6,
            n_testbeds=3,
            builds_per_chain=(3, 4),
            timesteps_per_build=(50, 60),
            n_focus=2,
            include_rare_testbed=False,
            seed=23,
        )
    )


def _train(store: ModelStore, dataset, seed: int = 0):
    return TrainingPipeline(
        store,
        n_lags=3,
        model_params={"max_epochs": 3, "batch_size": 256, "dropout": 0.0},
        seed=seed,
    ).train(dataset.history_training_series())


def _reference_runs(store, dataset, executions):
    """What an undisturbed batch execute produces, on a private alarm store."""
    return PredictionPipeline(store, AlarmStore(), gamma=2.0).execute(
        PredictBatch(tuple(executions))
    )


def _assert_bytes_match(responses, reference):
    assert len(responses) == len(reference)
    for response, run in zip(responses, reference):
        assert response.status == "ok"
        assert not response.degraded
        assert response.run.predictions.tobytes() == run.predictions.tobytes()
        assert response.run.observations.tobytes() == run.observations.tobytes()
        assert response.run.alarm_ids == run.alarm_ids
        assert response.run.model_version == run.model_version


def _serve(store, *, config, chaos=None, requests):
    async def scenario():
        service = Env2VecService(
            store, alarm_store=AlarmStore(), config=config, chaos=chaos
        )
        async with service:
            responses = await service.client().predict_many(requests)
            health = service.health()
            stats = None
            if service.supervisor is not None:
                supervisor = service.supervisor
                stats = {
                    "restarts": supervisor.restarts,
                    "reenqueued": supervisor.reenqueued,
                    "recovery": list(supervisor.recovery_seconds),
                    "log": list(supervisor.restart_log),
                }
        return responses, health, stats

    return asyncio.run(scenario())


class TestByteIdentity:
    def test_two_workers_match_single_loop_and_batch(self, dataset):
        store = ModelStore()
        _train(store, dataset)
        executions = [chain.current for chain in dataset.chains] * 2
        reference = _reference_runs(store, dataset, executions)
        requests = [
            PredictRequest(execution=execution, request_id=str(i))
            for i, execution in enumerate(executions)
        ]

        single, _, _ = _serve(
            store, config=ServeConfig(max_batch=4), requests=requests
        )
        multi, health, _ = _serve(
            store, config=ServeConfig(max_batch=4, n_workers=2), requests=requests
        )
        _assert_bytes_match(single, reference)
        _assert_bytes_match(multi, reference)
        assert health.n_workers == 2
        assert health.workers_ready == 2
        assert health.ready and health.live and not health.degraded

    def test_worker_states_visible_in_health(self, dataset):
        store = ModelStore()
        _train(store, dataset)
        requests = [
            PredictRequest(execution=dataset.chains[0].current, request_id="h")
        ]
        _, health, _ = _serve(
            store, config=ServeConfig(n_workers=2), requests=requests
        )
        assert len(health.workers) == 2
        assert {w.phase for w in health.workers} == {"ready"}
        assert all(w.epoch == 1 for w in health.workers)
        assert all(w.model_version == 1 for w in health.workers)


class TestChaosRecovery:
    def test_worker_kills_lose_nothing_and_stay_byte_identical(self, dataset):
        store = ModelStore()
        _train(store, dataset)
        executions = [chain.current for chain in dataset.chains] * 4
        reference = _reference_runs(store, dataset, executions)
        requests = [
            PredictRequest(execution=execution, request_id=str(i))
            for i, execution in enumerate(executions)
        ]
        chaos = ChaosProfile(seed=5, worker_kill_rate=0.25)
        responses, _, stats = _serve(
            store,
            config=ServeConfig(
                max_batch=4,
                n_workers=2,
                heartbeat_interval=0.02,
                worker_stall_timeout=0.5,
            ),
            chaos=chaos,
            requests=requests,
        )
        # The seeded profile must actually have fired, and every kill's
        # in-flight batch must have been re-enqueued and re-scored.
        assert stats["restarts"] > 0
        assert stats["reenqueued"] == stats["restarts"]
        assert len(stats["recovery"]) == stats["restarts"]
        assert all(reason == "crash" for _, _, reason in stats["log"])
        _assert_bytes_match(responses, reference)

    def test_worker_stalls_detected_and_recovered(self, dataset):
        store = ModelStore()
        _train(store, dataset)
        executions = [chain.current for chain in dataset.chains] * 3
        reference = _reference_runs(store, dataset, executions)
        requests = [
            PredictRequest(execution=execution, request_id=str(i))
            for i, execution in enumerate(executions)
        ]
        chaos = ChaosProfile(seed=3, worker_stall_rate=0.3)
        responses, _, stats = _serve(
            store,
            config=ServeConfig(
                max_batch=4,
                n_workers=2,
                heartbeat_interval=0.02,
                worker_stall_timeout=0.15,
            ),
            chaos=chaos,
            requests=requests,
        )
        assert stats["restarts"] > 0
        assert any(reason == "stall" for _, _, reason in stats["log"])
        _assert_bytes_match(responses, reference)

    def test_batch_fails_loudly_after_exhausting_attempts(self, dataset):
        store = ModelStore()
        _train(store, dataset)
        execution = dataset.chains[0].current
        # kill_rate=1.0: every dispatch dies; after MAX_DISPATCH_ATTEMPTS
        # the batch must fail with a clear error, never hang or vanish.
        chaos = ChaosProfile(seed=1, worker_kill_rate=1.0)

        async def scenario():
            service = Env2VecService(
                store,
                alarm_store=AlarmStore(),
                config=ServeConfig(
                    n_workers=1,
                    heartbeat_interval=0.02,
                    worker_stall_timeout=0.5,
                ),
                chaos=chaos,
            )
            async with service:
                with pytest.raises(
                    RuntimeError, match=f"after {MAX_DISPATCH_ATTEMPTS} dispatch attempts"
                ):
                    await service.client().predict(
                        PredictRequest(execution=execution, request_id="doomed")
                    )

        asyncio.run(scenario())


class TestRollingPublish:
    def test_publish_rolls_fleet_without_going_cold(self, dataset):
        store = ModelStore()
        _train(store, dataset, seed=0)
        executions = [chain.current for chain in dataset.chains]

        async def scenario():
            service = Env2VecService(
                store, alarm_store=AlarmStore(), config=ServeConfig(n_workers=2)
            )
            async with service:
                client = service.client()
                wave1 = await client.predict_many(
                    [
                        PredictRequest(execution=execution, request_id=f"a{i}")
                        for i, execution in enumerate(executions)
                    ]
                )
                # Retrain mid-traffic; the rollout drains one worker at a
                # time while the other keeps serving.
                _train(store, dataset, seed=1)
                for task in list(service.supervisor._publish_tasks):
                    await task
                wave2 = await client.predict_many(
                    [
                        PredictRequest(execution=execution, request_id=f"b{i}")
                        for i, execution in enumerate(executions)
                    ]
                )
                states = service.supervisor.worker_states()
            return wave1, wave2, states

        wave1, wave2, states = asyncio.run(scenario())
        assert all(response.status == "ok" for response in wave1 + wave2)
        assert {response.run.model_version for response in wave1} == {1}
        assert {response.run.model_version for response in wave2} == {2}
        # No worker was restarted to get there — the blobs were shipped.
        assert all(state.epoch == 1 for state in states)
        assert all(state.model_version == 2 for state in states)


class TestRowIsolation:
    def test_bad_row_dead_lettered_without_failing_batchmates(self, dataset):
        store = ModelStore()
        _train(store, dataset)
        good = [chain.current for chain in dataset.chains[:3]]
        # Wrong feature width: windows fine, but the coalesced forward
        # cannot consume it — exactly the shape of poison that used to
        # fail the whole batch.
        from dataclasses import replace

        bad = replace(good[1], features=good[1].features[:, :2])
        executions = [good[0], bad, good[2]]
        reference = _reference_runs(store, dataset, [good[0], good[2]])

        async def scenario(n_workers):
            service = Env2VecService(
                store,
                alarm_store=AlarmStore(),
                config=ServeConfig(max_batch=8, n_workers=n_workers),
            )
            async with service:
                futures = [
                    service.submit_predict(
                        PredictRequest(execution=execution, request_id=str(i))
                    )
                    for i, execution in enumerate(executions)
                ]
                results = await asyncio.gather(*futures, return_exceptions=True)
                n_dead = len(service.dead_letters)
                reasons = [record.reason for record in service.dead_letters.records()]
            return results, n_dead, reasons

        for n_workers in (0, 2):
            results, n_dead, reasons = asyncio.run(scenario(n_workers))
            assert isinstance(results[1], RuntimeError)
            assert "dead-lettered" in str(results[1])
            assert n_dead == 1 and reasons == ["serve_row_failure"]
            _assert_bytes_match([results[0], results[2]], reference)


@pytest.fixture
def registry():
    """The global metrics registry, switched on for the test."""
    registry = get_observability().registry
    was_enabled = registry.enabled
    registry.enabled = True
    yield registry
    registry.enabled = was_enabled


#: Counters the scoring half increments, wherever it runs.
_SCORING_COUNTERS = (
    "repro_detector_detections_total",
    "repro_detector_alarms_total",
    "repro_detector_flagged_timesteps_total",
    "repro_detector_filtered_timesteps_total",
    "repro_prediction_row_failures_total",
    "repro_predictions_total",
)


class TestCounterForwarding:
    def test_worker_scoring_counters_reach_the_parent(self, dataset, registry):
        # Workers increment the detector and row-failure counters in
        # their own processes; the parent must end up with the same
        # deltas as the single loop that scores inline.
        from dataclasses import replace

        store = ModelStore()
        _train(store, dataset)
        good = [chain.current for chain in dataset.chains]
        bad = replace(good[1], features=good[1].features[:, :2])
        executions = [*good, bad]
        counters = [registry.get(name) for name in _SCORING_COUNTERS]

        async def scenario(n_workers):
            service = Env2VecService(
                store, alarm_store=AlarmStore(), config=ServeConfig(n_workers=n_workers)
            )
            async with service:
                await asyncio.gather(
                    *(
                        service.submit_predict(
                            PredictRequest(execution=execution, request_id=str(i))
                        )
                        for i, execution in enumerate(executions)
                    ),
                    return_exceptions=True,
                )

        def deltas(n_workers):
            before = [counter.value for counter in counters]
            asyncio.run(scenario(n_workers))
            return [counter.value - b for counter, b in zip(counters, before)]

        single, multi = deltas(0), deltas(2)
        assert single == multi
        detections, alarms, _, _, row_failures, predictions = single
        assert detections == len(good) and row_failures == 1
        assert alarms > 0 and predictions > 0


class _FailFirstBatch:
    """Chaos that kills or stalls the worker on batch id 0 only."""

    def __init__(self, mode: str):
        self.mode = mode

    def worker_kill(self, batch_id) -> bool:
        return self.mode == "kill" and batch_id == 0

    def worker_stall(self, batch_id) -> bool:
        return self.mode == "stall" and batch_id == 0


class TestQueuedBatchChaos:
    @pytest.mark.parametrize("mode", ["kill", "stall"])
    def test_failure_with_successor_queued_resolves_both_once(self, dataset, registry, mode):
        # One worker, two batches in flight: the first batch is on the
        # worker and the second waits in the backlog when the worker dies.
        store = ModelStore()
        _train(store, dataset)
        executions = [chain.current for chain in dataset.chains] * 2
        reference = _reference_runs(store, dataset, executions)
        requests = [
            PredictRequest(execution=execution, request_id=str(i))
            for i, execution in enumerate(executions)
        ]
        answered = registry.get("repro_serve_requests_total").labels(
            kind="predict", status="ok"
        )

        async def scenario():
            service = Env2VecService(
                store,
                alarm_store=AlarmStore(),
                config=ServeConfig(
                    max_batch=4,
                    n_workers=1,
                    heartbeat_interval=0.02,
                    worker_stall_timeout=0.2,
                ),
                chaos=_FailFirstBatch(mode),
            )
            async with service:
                supervisor = service.supervisor
                queued = []
                restart = supervisor._restart

                def spy(worker, *, reason):
                    queued.append(len(supervisor._backlog))
                    restart(worker, reason=reason)

                supervisor._restart = spy
                before = answered.value
                responses = await service.client().predict_many(requests)
                n_answered = answered.value - before
                n_alarms = len(service.alarm_store.fetch())
                reenqueued = supervisor.reenqueued
            return responses, queued, n_answered, n_alarms, reenqueued

        responses, queued, n_answered, n_alarms, reenqueued = asyncio.run(scenario())
        assert len(queued) == 1 and queued[0] >= 1  # the successor was waiting
        assert reenqueued == 1
        assert n_answered == len(requests)  # every request resolved exactly once
        assert n_alarms == sum(len(run.alarm_ids) for run in reference)
        # Byte-identical, alarm ids dense and in dispatch order.
        _assert_bytes_match(responses, reference)


class TestRollingPublishUnderLoad:
    def test_publish_completes_while_batches_stay_queued(self, dataset):
        # With two batches per worker, a finished worker usually finds a
        # queued batch. A publish waiting for a worker to go idle holds
        # new batches off it, so it waits for one batch at most.
        store = ModelStore()
        _train(store, dataset, seed=0)
        # Train the next version off the loop, so the busy workers are
        # never stuck behind a blocked loop; publishing it is instant.
        retrained = ModelStore()
        _train(retrained, dataset, seed=1)
        next_blob, _ = retrained.fetch_latest()
        executions = [chain.current for chain in dataset.chains]

        async def scenario():
            service = Env2VecService(
                store, alarm_store=AlarmStore(), config=ServeConfig(max_batch=2, n_workers=2)
            )
            async with service:
                client = service.client()
                responses, running, sent_while_draining = [], [True], []
                for worker in service.supervisor._workers.values():

                    def spy(message, worker=worker, send=worker.conn.send):
                        if message[0] == "batch" and worker.publish_ack is not None:
                            sent_while_draining.append(worker.worker_id)
                        send(message)

                    worker.conn.send = spy

                async def load(k):
                    sent = 0
                    while running[0]:
                        execution = executions[(k + sent) % len(executions)]
                        responses.append(
                            await client.predict(
                                PredictRequest(execution=execution, request_id=f"{k}-{sent}")
                            )
                        )
                        sent += 1

                clients = [asyncio.ensure_future(load(k)) for k in range(32)]
                await asyncio.sleep(0.2)
                store.publish(next_blob)
                await asyncio.wait_for(
                    asyncio.gather(*service.supervisor._publish_tasks), timeout=10
                )
                published_at = len(responses)
                await asyncio.sleep(0.2)
                running[0] = False
                await asyncio.gather(*clients)
                states = service.supervisor.worker_states()
            return responses, published_at, states, sent_while_draining

        responses, published_at, states, sent_while_draining = asyncio.run(scenario())
        assert sent_while_draining == []
        assert all(response.status == "ok" for response in responses)
        assert len(responses) > published_at  # traffic kept flowing
        assert responses[-1].run.model_version == 2
        assert all(state.epoch == 1 and state.model_version == 2 for state in states)


def _flood(conn, init):
    """A worker that never stops talking: its pipe is always readable."""
    while True:
        conn.send(("pong", 0.0))


class TestPipeOwnership:
    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_kill_respawn_never_races_the_reader(self, monkeypatch):
        # The event loop is each pipe's only reader and only closer.
        # Tearing a flooding worker down mid-stream must close its pipe
        # and stop reading it: a read of a closed pipe would raise inside
        # a loop callback, and no thread may read a pipe.
        from repro.serve._internal import supervisor as module

        monkeypatch.setattr(module, "_worker_main", _flood)

        async def scenario():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _, context: errors.append(context))
            sup = module.WorkerSupervisor(ModelStore(), ServeConfig(n_workers=1))
            sup._loop = loop
            worker = module._Worker(worker_id=0, epoch=0)
            sup._workers[0] = worker
            sup._idle_events[0] = asyncio.Event()
            conns, heard = [], 0
            for _ in range(25):
                sup._spawn(worker)
                spawned_at = worker.last_pong
                for _ in range(1000):  # tear down only once the worker floods
                    await asyncio.sleep(0.001)
                    if worker.last_pong > spawned_at:
                        break
                heard += worker.last_pong > spawned_at
                conns.append(worker.conn)
                sup._teardown(worker)
            sup._stopping = True
            await asyncio.sleep(0.1)
            return errors, conns, heard

        errors, conns, heard = asyncio.run(scenario())
        assert errors == []
        assert all(conn.closed for conn in conns)
        assert heard == 25  # every teardown hit a pipe the loop was reading
        assert not [t for t in threading.enumerate() if t.name.startswith("repro-serve-reader")]
