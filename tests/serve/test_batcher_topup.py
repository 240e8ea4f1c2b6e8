"""The micro-batcher tops a batch up only while requests are arriving.

After the greedy drain the batcher yields one event-loop iteration at a
time and drains what came in; the first iteration that adds nothing
closes the batch. ``max_wait`` bounds the top-up, it is not a timer the
batcher sleeps on: a lone request on an idle service is scored on the
next loop iteration, while closed-loop clients that resubmit on every
response still fill every batch.
"""

import asyncio

import numpy as np
import pytest

from repro.data import Environment, TelecomConfig, TestExecution, generate_telecom
from repro.serve import Env2VecService, PredictRequest, ServeConfig
from repro.serve._internal.admission import AdmissionController
from repro.serve._internal.batcher import MicroBatcher
from repro.workflow import AlarmStore, ModelStore, TrainingPipeline

pytestmark = pytest.mark.serving

MAX_BATCH = 4


@pytest.fixture(scope="module")
def served():
    """A trained store and one current execution per chain."""
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
        n_lags=3,
        model_params={"max_epochs": 3, "batch_size": 256, "dropout": 0.0},
        seed=0,
    ).train(dataset.history_training_series())
    return store, [chain.current for chain in dataset.chains]


def _serve(store, max_wait, scenario):
    async def run():
        config = ServeConfig(max_batch=MAX_BATCH, max_wait=max_wait)
        async with Env2VecService(store, alarm_store=AlarmStore(), config=config) as service:
            return await scenario(service)

    return asyncio.run(run())


def test_lone_request_on_idle_service_is_not_held_for_max_wait(served):
    store, executions = served

    async def scenario(service):
        # Let the batcher settle into its idle wait first.
        await asyncio.sleep(0.01)
        return await service.client().predict(PredictRequest(execution=executions[0]))

    response = _serve(store, 0.05, scenario)
    assert response.status == "ok"
    assert response.batch_size == 1
    assert response.queued_seconds < 0.025


def test_saturating_closed_loop_keeps_every_batch_full(served):
    store, executions = served
    rounds = 5

    async def scenario(service):
        client = service.client()
        sizes: list[int] = []

        async def closed_loop(execution):
            for _ in range(rounds):
                response = await client.predict(PredictRequest(execution=execution))
                sizes.append(response.batch_size)

        await asyncio.gather(
            *(closed_loop(executions[i % len(executions)]) for i in range(2 * MAX_BATCH))
        )
        return sizes

    sizes = _serve(store, 0.05, scenario)
    assert len(sizes) == 2 * MAX_BATCH * rounds
    assert set(sizes) == {MAX_BATCH}


def test_requests_submitted_within_one_tick_form_one_batch(served):
    store, executions = served
    n = MAX_BATCH - 1

    async def scenario(service):
        client = service.client()
        return await asyncio.gather(
            *(client.predict(PredictRequest(execution=e)) for e in executions[:n])
        )

    responses = _serve(store, 0.05, scenario)
    assert [r.batch_size for r in responses] == [n] * n


@pytest.mark.parametrize("max_wait, expected", [(0.05, MAX_BATCH - 1), (0.0, 1)])
def test_arrivals_on_consecutive_iterations_top_the_batch_up(served, max_wait, expected):
    """One request per loop iteration joins the held batch; ``max_wait=0``
    coalesces only what is already queued."""
    store, executions = served
    n = MAX_BATCH - 1

    async def scenario(service):
        futures = []
        for execution in executions[:n]:
            futures.append(service.submit_predict(PredictRequest(execution=execution)))
            await asyncio.sleep(0)
        return await asyncio.gather(*futures)

    responses = _serve(store, max_wait, scenario)
    assert [r.batch_size for r in responses] == [expected] * n


def test_an_idle_iteration_closes_the_batch(served):
    store, executions = served

    async def scenario(service):
        first = service.submit_predict(PredictRequest(execution=executions[0]))
        # Two iterations apart: the batcher's first top-up drain finds
        # nothing and dispatches before the second request arrives.
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        second = service.submit_predict(PredictRequest(execution=executions[1]))
        return await asyncio.gather(first, second)

    responses = _serve(store, 0.05, scenario)
    assert [r.batch_size for r in responses] == [1, 1]


def test_an_arrival_deadline_closes_the_held_batch():
    """A request that joins the batch during the top-up bounds it by its
    deadline, even while a feeder keeps adding a request every loop
    iteration. Without the bound the batch is held until the feeder
    stops, long after the request's deadline."""
    execution = TestExecution(
        environment=Environment("tb", "sut", "tc", "b1"),
        features=np.zeros((10, 3)),
        cpu=np.zeros(10),
    )
    budget, feed_seconds = 0.05, 1.0

    async def scenario():
        loop = asyncio.get_running_loop()
        admission = AdmissionController(max_depth=10**6, default_service_seconds=1e-3)
        dispatched: dict[str, float] = {}

        def execute(batch):
            now = loop.time()
            for pending in batch:
                dispatched[pending.request.request_id] = now
                pending.future.set_result("ok")

        batcher = MicroBatcher(admission, max_batch=10**6, max_wait=5.0, execute=execute)
        batcher.start()
        await asyncio.sleep(0.01)  # the batcher is idle, waiting for work
        feeder = PredictRequest(execution=execution)
        admission.submit(PredictRequest(execution=execution, request_id="first"), now=loop.time())
        for _ in range(3):  # the top-up is under way
            await asyncio.sleep(0)
            admission.submit(feeder, now=loop.time())
        submitted = loop.time()
        urgent = admission.submit(
            PredictRequest(execution=execution, request_id="urgent", deadline_seconds=budget),
            now=submitted,
        )
        while not urgent.done() and loop.time() < submitted + feed_seconds:
            await asyncio.sleep(0)
            admission.submit(feeder, now=loop.time())
        status = await urgent
        await batcher.stop()
        return status, dispatched["urgent"] - submitted, dispatched["first"] - submitted

    status, urgent_after, first_after = asyncio.run(scenario())
    assert status == "ok"
    # It joined the held batch, and that batch closed at its deadline:
    # one loop iteration late at most, far from the feeder's second.
    assert first_after == urgent_after
    assert budget <= urgent_after < budget + 0.25
