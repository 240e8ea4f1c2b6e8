"""The single-loop service's model: publish-time compiles, last-good, health.

The service scores with :meth:`PredictionPipeline.latest_model`, and a
publish hook fills that cache before traffic needs the new version. These
tests read the pipeline's own counters: ``repro_model_cache_misses_total``
counts deserialize-and-compile events, and
``repro_resilience_model_fallbacks_total`` counts fetches answered by the
last good model after a corrupt blob.
"""

import asyncio

import pytest

from repro.data import TelecomConfig, generate_telecom
from repro.serve import Env2VecService, PredictRequest, ServeConfig
from repro.workflow import ModelStore, TrainingPipeline
from repro.workflow.prediction_pipeline import _M_CACHE_MISSES, _M_FALLBACKS

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def dataset():
    return generate_telecom(
        TelecomConfig(
            n_chains=4,
            n_testbeds=2,
            builds_per_chain=(3, 3),
            timesteps_per_build=(60, 70),
            n_focus=1,
            include_rare_testbed=False,
            seed=7,
        )
    )


def _train(store: ModelStore, dataset):
    return TrainingPipeline(
        store,
        n_lags=3,
        model_params={"max_epochs": 2, "batch_size": 256, "dropout": 0.0},
        seed=0,
    ).train(dataset.history_training_series())


def _requests(dataset):
    return [PredictRequest(execution=chain.current) for chain in dataset.chains]


class TestPublishHook:
    def test_publish_compiles_off_the_request_path(self, dataset):
        store = ModelStore()

        async def scenario():
            async with Env2VecService(store) as service:
                empty = service.health()
                before = _M_CACHE_MISSES.value
                _train(store, dataset)
                at_publish = _M_CACHE_MISSES.value
                responses = await service.client().predict_many(_requests(dataset))
                return empty, service.health(), responses, before, at_publish

        empty, health, responses, before, at_publish = asyncio.run(scenario())
        assert (empty.ready, empty.model_version) == (False, 0)
        assert at_publish == before + 1
        # The request path found version 1 compiled: no miss of its own.
        assert _M_CACHE_MISSES.value == at_publish
        assert (health.ready, health.model_version) == (True, 1)
        assert {r.run.model_version for r in responses} == {1}

    def test_corrupt_publish_keeps_serving_last_good(self, dataset):
        store = ModelStore()
        _train(store, dataset)

        def tear(record):
            # A torn write: the blob is damaged before the service reads it.
            store._blobs[record.version] = store._blobs[record.version][:-64]

        store.subscribe(tear)

        async def scenario():
            async with Env2VecService(store) as service:
                before = _M_FALLBACKS.value
                _train(store, dataset)  # must not raise into the publisher
                at_publish = _M_FALLBACKS.value
                responses = await service.client().predict_many(_requests(dataset))
                return service.health(), responses, before, at_publish

        health, responses, before, at_publish = asyncio.run(scenario())
        assert store.latest_version == 2
        assert at_publish == before + 1
        assert {r.run.model_version for r in responses} == {1}
        assert (health.ready, health.model_version) == (True, 1)

    def test_publish_after_stop_compiles_nothing(self, dataset):
        store = ModelStore()
        _train(store, dataset)

        async def scenario():
            async with Env2VecService(store):
                pass

        asyncio.run(scenario())
        before = _M_CACHE_MISSES.value
        _train(store, dataset)
        assert _M_CACHE_MISSES.value == before


class TestHealthReadiness:
    def test_single_loop_with_only_a_torn_blob_is_not_ready(self, dataset, tmp_path):
        version = _train(ModelStore(path=tmp_path), dataset).version.version
        blob_file = tmp_path / f"model-{version:06d}.npz"
        blob_file.write_bytes(blob_file.read_bytes()[:-64])

        async def scenario():
            async with Env2VecService(ModelStore(path=tmp_path)) as service:
                return service.health()

        health = asyncio.run(scenario())
        assert health.live
        assert (health.ready, health.model_version) == (False, 0)

    def test_supervised_with_an_empty_store_is_not_ready(self):
        async def scenario():
            service = Env2VecService(ModelStore(), config=ServeConfig(n_workers=1))
            async with service:
                return service.health()

        health = asyncio.run(scenario())
        assert health.live and health.workers_ready == 1
        assert (health.ready, health.model_version) == (False, 0)
