"""Warm-model behaviours of serving: publish-time compiles and last-good.

The single-loop service keeps its compiled model in
:meth:`PredictionPipeline.latest_model`'s one-slot cache, and a publish
hook fills that cache before traffic needs the new version. These tests
pin the behaviours at that level: ``repro_model_cache_misses_total``
counts deserialize-and-compile events and
``repro_resilience_model_fallbacks_total`` counts fetches answered by the
last good model after a corrupt blob. The live-traffic versions are in
``test_model_cache.py`` and ``test_service_e2e.py``.
"""

import asyncio

import pytest

from repro.data import TelecomConfig, generate_telecom
from repro.serve import Env2VecService, PredictRequest
from repro.workflow import AlarmStore, ModelStore, PredictionPipeline, TrainingPipeline
from repro.workflow.prediction_pipeline import _M_CACHE_MISSES, _M_FALLBACKS


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


def _trainer(store: ModelStore) -> TrainingPipeline:
    return TrainingPipeline(
        store,
        n_lags=3,
        model_params={"max_epochs": 2, "batch_size": 256, "dropout": 0.0},
        seed=0,
    )


class TestWarmModelPool:
    def test_retrain_swaps_version_without_cold_compile(self, dataset):
        store = ModelStore()
        trainer = _trainer(store)
        corpus = dataset.history_training_series()
        trainer.train(corpus)
        service = Env2VecService(store)  # compiles v1 at construction
        _, v1 = service.pipeline.latest_model()
        misses_before = _M_CACHE_MISSES.value
        trainer.train(corpus)  # the retrain lands while the service is up
        at_publish = _M_CACHE_MISSES.value
        model, v2 = service.pipeline.latest_model()
        assert (v1, v2) == (1, 2)
        assert model._engine is not None
        # The hook compiled v2 at publish; the fetch after it is a cache hit.
        assert at_publish == misses_before + 1
        assert _M_CACHE_MISSES.value == at_publish
        asyncio.run(service.stop())

    def test_corrupt_publish_falls_back_to_last_good(self, dataset):
        store = ModelStore()
        trainer = _trainer(store)
        corpus = dataset.history_training_series()
        trainer.train(corpus)
        pipeline = PredictionPipeline(store, AlarmStore())
        good, v1 = pipeline.latest_model()
        # No publish hook: v2 is fetched on the next call, after the tear.
        record = trainer.train(corpus).version
        store._blobs[record.version] = store._blobs[record.version][:-64]
        fallbacks_before = _M_FALLBACKS.value
        model, version = pipeline.latest_model()
        assert (v1, version) == (1, 1)  # the newest *good* version
        assert model is good and model._engine is not None
        assert pipeline.cached_version == 1
        assert _M_FALLBACKS.value == fallbacks_before + 1

    def test_corrupt_publish_hook_keeps_serving(self, dataset):
        store = ModelStore()
        trainer = _trainer(store)
        corpus = dataset.history_training_series()
        trainer.train(corpus)
        requests = [PredictRequest(execution=chain.current) for chain in dataset.chains]

        async def scenario():
            async with Env2VecService(store) as service:
                # v2 is compiled by the real publish before its blob is damaged.
                record = trainer.train(corpus).version
                store._blobs[record.version] = b"z" * 128
                misses_before = _M_CACHE_MISSES.value
                fallbacks_before = _M_FALLBACKS.value
                service._compile_latest(record)  # replay the hook: must not raise
                replayed = (_M_CACHE_MISSES.value, _M_FALLBACKS.value)
                responses = await service.client().predict_many(requests)
                return (
                    service.health(),
                    responses,
                    (misses_before, fallbacks_before),
                    replayed,
                )

        health, responses, before, replayed = asyncio.run(scenario())
        # The compiled v2 stays in the cache: the replay neither re-reads
        # the damaged blob nor falls back to v1.
        assert replayed == before
        assert {r.run.model_version for r in responses} == {2}
        assert (health.ready, health.model_version) == (True, 2)
