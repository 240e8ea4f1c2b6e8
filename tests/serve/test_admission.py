"""Admission control: bounded queue, explicit rejection, FIFO drain."""

import asyncio

import pytest

from repro.serve import PredictRequest, ServiceOverloaded
from repro.serve._internal.admission import AdmissionController
from repro.serve._internal.admission import _M_REJECTED


def _request(i: int, **kwargs) -> PredictRequest:
    import numpy as np

    from repro.data import Environment, TestExecution

    env = Environment("Testbed_1", "SUT_DB", "Testcase_Reg", "Build_1")
    features = np.zeros((10, 3))
    cpu = np.zeros(10)
    return PredictRequest(
        execution=TestExecution(environment=env, features=features, cpu=cpu),
        request_id=str(i),
        **kwargs,
    )


def run(coroutine):
    return asyncio.run(coroutine)


def test_request_rejects_an_error_model_without_mu_and_sigma():
    import numpy as np

    from repro.core import GaussianErrorModel, QuantileErrorModel

    _request(0, error_model=GaussianErrorModel(mu=0.0, sigma=1.0))
    quantile = QuantileErrorModel.fit(np.random.default_rng(0).normal(size=50))
    with pytest.raises(TypeError, match="GaussianErrorModel"):
        _request(1, error_model=quantile)


class TestAdmission:
    def test_rejects_past_depth_bound_and_counts(self):
        async def scenario():
            admission = AdmissionController(max_depth=3, default_service_seconds=0.01)
            before = _M_REJECTED.value
            loop = asyncio.get_running_loop()
            for i in range(3):
                admission.submit(_request(i), now=loop.time())
            assert admission.depth == 3
            with pytest.raises(ServiceOverloaded) as excinfo:
                admission.submit(_request(3), now=loop.time())
            assert excinfo.value.retry_after == pytest.approx(3 * 0.01)
            assert admission.rejected == 1
            assert _M_REJECTED.value == before + 1

        run(scenario())

    def test_drain_preserves_fifo_order(self):
        async def scenario():
            admission = AdmissionController(max_depth=10, default_service_seconds=0.01)
            loop = asyncio.get_running_loop()
            for i in range(5):
                admission.submit(_request(i), now=loop.time())
            first = admission.drain(3)
            rest = admission.drain(10)
            assert [p.request.request_id for p in first] == ["0", "1", "2"]
            assert [p.request.request_id for p in rest] == ["3", "4"]
            assert admission.depth == 0

        run(scenario())

    def test_evict_withdraws_only_named_futures(self):
        async def scenario():
            admission = AdmissionController(max_depth=10, default_service_seconds=0.01)
            loop = asyncio.get_running_loop()
            futures = [admission.submit(_request(i), now=loop.time()) for i in range(4)]
            assert admission.evict([futures[1], futures[3]]) == 2
            remaining = admission.drain(10)
            assert [p.request.request_id for p in remaining] == ["0", "2"]

        run(scenario())

    def test_service_time_ewma_moves_retry_after(self):
        async def scenario():
            admission = AdmissionController(max_depth=8, default_service_seconds=0.01)
            loop = asyncio.get_running_loop()
            for i in range(8):
                admission.submit(_request(i), now=loop.time())
            hint_before = admission.retry_after()
            admission.record_service_time(1.0)
            assert admission.retry_after() > hint_before

        run(scenario())

    def test_wait_nonempty_wakes_on_submit(self):
        async def scenario():
            admission = AdmissionController(max_depth=4, default_service_seconds=0.01)
            loop = asyncio.get_running_loop()

            async def producer():
                await asyncio.sleep(0)
                admission.submit(_request(0), now=loop.time())

            task = loop.create_task(producer())
            await asyncio.wait_for(admission.wait_nonempty(), timeout=1.0)
            await task
            assert admission.depth == 1

        run(scenario())


class TestDeadlines:
    def test_drain_sheds_expired_without_charging_the_limit(self):
        async def scenario():
            from repro.resilience import DeadlineExceeded

            admission = AdmissionController(max_depth=10, default_service_seconds=0.01)
            loop = asyncio.get_running_loop()
            now = loop.time()
            doomed = admission.submit(
                _request(0, deadline_seconds=0.05), now=now - 1.0
            )
            live = [admission.submit(_request(i), now=now) for i in (1, 2)]
            batch = admission.drain(2, now=now)
            # The expired head did not consume a batch slot.
            assert [p.request.request_id for p in batch] == ["1", "2"]
            assert admission.shed == 1
            with pytest.raises(DeadlineExceeded, match="0.05"):
                await doomed
            assert all(not f.done() for f in live)

        run(scenario())

    def test_shed_expired_sweeps_only_the_dead(self):
        async def scenario():
            admission = AdmissionController(max_depth=10, default_service_seconds=0.01)
            loop = asyncio.get_running_loop()
            now = loop.time()
            admission.submit(_request(0, deadline_seconds=0.01), now=now - 1.0)
            admission.submit(_request(1), now=now)
            admission.submit(_request(2, deadline_seconds=60.0), now=now)
            assert admission.shed_expired(now=now) == 1
            assert admission.depth == 2
            survivors = admission.drain(2)
            assert [p.request.request_id for p in survivors] == ["1", "2"]
            assert survivors[1].deadline == pytest.approx(now + 60.0)

        run(scenario())

    def test_drain_without_now_never_sheds(self):
        async def scenario():
            admission = AdmissionController(max_depth=10, default_service_seconds=0.01)
            loop = asyncio.get_running_loop()
            admission.submit(
                _request(0, deadline_seconds=0.01), now=loop.time() - 1.0
            )
            batch = admission.drain(5)
            assert len(batch) == 1 and admission.shed == 0

        run(scenario())


class TestServiceTimeDecay:
    def test_decay_validated(self):
        with pytest.raises(ValueError, match="decay"):
            AdmissionController(max_depth=4, default_service_seconds=0.01, decay=0.0)
        with pytest.raises(ValueError, match="decay"):
            AdmissionController(max_depth=4, default_service_seconds=0.01, decay=1.0)

    def test_decay_constant_controls_ewma_weight(self):
        sluggish = AdmissionController(
            max_depth=4, default_service_seconds=0.01, decay=0.9
        )
        nimble = AdmissionController(
            max_depth=4, default_service_seconds=0.01, decay=0.1
        )
        for admission in (sluggish, nimble):
            admission.record_service_time(1.0)
        assert sluggish._service_seconds == pytest.approx(0.9 * 0.01 + 0.1 * 1.0)
        assert nimble._service_seconds == pytest.approx(0.1 * 0.01 + 0.9 * 1.0)
