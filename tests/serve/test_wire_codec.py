"""The supervisor's packed wire: round trips and served byte identity.

A batch crosses the parent/worker pipe as a few flat blocks instead of
pickled ``TestExecution`` and ``AnomalyReport`` objects. Two properties
hold it to the old contract over generated batches at the serve
micro-batcher's ``max_batch`` boundaries: packing and unpacking (through
pickle, as the pipe does) gives back byte-equal windows and outcomes,
and batches served through two worker processes byte-equal
``PredictionPipeline.execute``, with wrong-width rows dead-lettered
alone.
"""

import asyncio
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import TelecomConfig, generate_telecom
from repro.data.windows import build_windows
from repro.serve import Env2VecService, PredictRequest, ServeConfig
from repro.serve._internal import supervisor as wire
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

#: Request ids stay unique across examples (dead letters are keyed by them).
_REQUEST_IDS = itertools.count()


@pytest.fixture(scope="module")
def served():
    """A trained store, its model, and the known environments."""
    dataset = generate_telecom(
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
    store = ModelStore()
    model = TrainingPipeline(
        store,
        n_lags=N_LAGS,
        model_params={"max_epochs": 3, "batch_size": 256, "dropout": 0.0},
        seed=0,
    ).train(dataset.history_training_series()).model
    model.ensure_compiled()
    known = [chain.current.environment for chain in dataset.chains]
    n_features = dataset.chains[0].current.features.shape[1]
    return store, model, environment_pool(known), n_features


def _over_the_wire(body):
    return pickle.loads(pickle.dumps(body))


def _same_outcome(got, want):
    assert got[0] == want[0]
    if want[0] == "err":
        assert got[1] == want[1]
        return
    _, report, predictions, observations = got
    _, want_report, want_predictions, want_observations = want
    assert predictions.dtype == want_predictions.dtype
    assert predictions.tobytes() == want_predictions.tobytes()
    assert observations.tobytes() == want_observations.tobytes()
    assert report.flags.dtype == want_report.flags.dtype
    assert report.flags.tobytes() == want_report.flags.tobytes()
    assert report.errors.tobytes() == want_report.errors.tobytes()
    assert report.alarms == want_report.alarms
    assert report.gamma == want_report.gamma


class TestRoundTrip:
    @DERANDOMIZED
    @given(data=st.data())
    def test_rows_and_outcomes_round_trip_byte_equal(self, served, data):
        _, model, pool, n_features = served
        rows = data.draw(
            scoring_rows(pool, n_features=n_features, n_lags=N_LAGS, mixed_widths=True)
        )
        executions, error_models = wire._unpack_rows(_over_the_wire(wire._pack_rows(rows)))
        assert len(executions) == len(rows)
        for (execution, error_model), got, got_model in zip(rows, executions, error_models):
            assert got.environment == execution.environment
            assert got.features.shape == execution.features.shape
            for want_block, got_block in zip(
                build_windows(execution.features, execution.cpu, N_LAGS),
                build_windows(got.features, got.cpu, N_LAGS),
            ):
                assert got_block.dtype == want_block.dtype
                assert got_block.tobytes() == want_block.tobytes()
            assert got_model == error_model

        pipeline = PredictionPipeline(None, None)
        outcomes = pipeline.score_with_isolation(
            model, [execution for execution, _ in rows], [m for _, m in rows]
        )
        unpacked = wire._unpack_outcomes(
            _over_the_wire(wire._pack_outcomes(outcomes)), len(outcomes)
        )
        assert len(unpacked) == len(outcomes)
        for got, want in zip(unpacked, outcomes):
            _same_outcome(got, want)

    def test_empty_batch_round_trips(self):
        assert wire._unpack_rows(_over_the_wire(wire._pack_rows([]))) == ([], [])
        assert wire._unpack_outcomes(_over_the_wire(wire._pack_outcomes([])), 0) == []


@pytest.fixture(scope="module")
def service(served):
    """One two-worker service on its own loop, shared by the examples."""
    store = served[0]
    loop = asyncio.new_event_loop()
    service = Env2VecService(
        store, alarm_store=AlarmStore(), config=ServeConfig(max_batch=MAX_BATCH, n_workers=2)
    )
    loop.run_until_complete(service.__aenter__())
    yield loop, service
    loop.run_until_complete(service.stop())
    loop.close()


class TestServedByteIdentity:
    @DERANDOMIZED
    @given(data=st.data())
    def test_two_workers_byte_equal_execute(self, served, service, data):
        store, model, pool, n_features = served
        loop, service = service
        rows = data.draw(
            scoring_rows(pool, n_features=n_features, n_lags=N_LAGS, mixed_widths=True)
        )
        requests = [
            PredictRequest(
                execution=execution, error_model=error_model, request_id=str(next(_REQUEST_IDS))
            )
            for execution, error_model in rows
        ]
        dead_before = len(service.dead_letters)
        first_id = len(service.alarm_store.fetch()) + 1

        async def submit():
            futures = [service.submit_predict(request) for request in requests]
            return await asyncio.gather(*futures, return_exceptions=True)

        responses = loop.run_until_complete(submit())
        good = [
            index for index, (execution, _) in enumerate(rows)
            if execution.features.shape[1] == n_features
        ]
        reference = PredictionPipeline(store, AlarmStore()).execute(
            PredictBatch(
                tuple(rows[i][0] for i in good), tuple(rows[i][1] for i in good)
            )
        )
        assert len(service.dead_letters) - dead_before == len(rows) - len(good)
        for index, response in enumerate(responses):
            if index not in good:
                assert isinstance(response, RuntimeError)
                assert "dead-lettered" in str(response)
        for index, run in zip(good, reference):
            response = responses[index]
            assert response.status == "ok" and not response.degraded
            assert response.run.predictions.tobytes() == run.predictions.tobytes()
            assert response.run.observations.tobytes() == run.observations.tobytes()
            assert response.run.report.flags.tobytes() == run.report.flags.tobytes()
            assert response.run.report.errors.tobytes() == run.report.errors.tobytes()
            assert response.run.report.alarms == run.report.alarms
            # Dense ids in dispatch order: offset by what earlier examples pushed.
            assert [i - first_id + 1 for i in response.run.alarm_ids] == run.alarm_ids
