"""The campaign keeps each execution's branch rows while the body stays.

Scoring an execution computes its frozen-branch rows ``[v_ts, v_fs]``
once; every later day's calibration and warm fine-tune reads them. They
are exact only under the encoder, FNN and scalers that computed them, so
a full fit must drop them, and a campaign restored from a checkpoint
must rebuild them. Each test holds the campaign to the same bytes as one
that computes every row afresh whenever it needs it, and checks after
every day that each kept row is what the serving model computes now.
"""

import pytest

from repro.data import Environment, TelecomConfig, TestExecution, generate_telecom
from repro.obs import get_observability
from repro.workflow import (
    AlarmStore,
    DriftMonitor,
    ModelStore,
    PredictBatch,
    PredictionPipeline,
    TestingCampaign,
    TrainingPipeline,
    orchestrator,
)

_OBS = get_observability()
MODEL_PARAMS = {"max_epochs": 4, "batch_size": 256}
#: Branch rows do not depend on the environment.
_ANY = Environment("tb", "sut", "tc", "build")


@pytest.fixture(scope="module")
def days():
    dataset = generate_telecom(
        TelecomConfig(
            n_chains=6,
            n_testbeds=3,
            builds_per_chain=(5, 5),
            timesteps_per_build=(40, 50),
            n_focus=2,
            include_rare_testbed=False,
            seed=11,
        )
    )
    return [[chain.executions[day] for chain in dataset.chains] for day in range(5)]


class _Forgetful(orchestrator._BranchRows):
    """Keeps no row: every one is computed afresh when it is needed."""

    def get(self, features, cpu):
        return None

    def fill(self, model, executions):
        return PredictionPipeline.branch_rows(model, executions)


def _kept_rows_are_current(campaign: TestingCampaign) -> None:
    kept = list(campaign._rows._rows.values())
    if not kept:
        return
    model = campaign.latest_model
    for features, cpu, rows in kept:
        (fresh,) = PredictionPipeline.branch_rows(
            model, [TestExecution(environment=_ANY, features=features, cpu=cpu)]
        )
        assert rows.tobytes() == fresh.tobytes()


def _outcome(campaign: TestingCampaign) -> tuple:
    alarms = [(a.environment, a.interval, a.peak_deviation) for a in campaign.alarm_store.fetch()]
    return campaign._report_dicts, campaign.latest_model.to_bytes(), alarms


def _drift_on(campaign: TestingCampaign, drift_days: set[int], day: int) -> None:
    """Make the drift monitor fire on ``drift_days`` only."""
    observe = DriftMonitor.observe.__get__(campaign.drift_monitor)

    def forced(mae):
        decision = observe(mae)
        decision.drifted = day in drift_days
        return decision

    campaign.drift_monitor.observe = forced


def _campaign(**kwargs) -> TestingCampaign:
    return TestingCampaign(model_params=dict(MODEL_PARAMS), use_collector=True, self_monitor=False, **kwargs)


def _run(campaign, days, drift_days=frozenset(), check=False):
    kinds = []
    runs = _OBS.counter("repro_training_runs_total", labels=("kind",))
    for day, executions in enumerate(days):
        _drift_on(campaign, drift_days, day)
        before = runs.labels(kind="full").value
        campaign.run_day(day, executions)
        kinds.append("full" if runs.labels(kind="full").value > before else "warm")
        if check:
            _kept_rows_are_current(campaign)
    return kinds


def test_kept_rows_reach_the_bytes_of_fresh_ones(days):
    kept = _campaign()
    assert _run(kept, days, check=True) == ["full", "warm", "warm", "warm", "warm"]
    fresh = _campaign()
    fresh._rows = _Forgetful()
    _run(fresh, days)
    assert _outcome(kept) == _outcome(fresh)


def test_a_drift_forced_full_fit_drops_the_kept_rows(days):
    kept = _campaign()
    kinds = _run(kept, days, drift_days={2}, check=True)
    assert kinds == ["full", "warm", "full", "warm", "warm"]
    fresh = _campaign()
    fresh._rows = _Forgetful()
    _run(fresh, days, drift_days={2})
    assert _outcome(kept) == _outcome(fresh)


def test_a_campaign_restored_before_its_warm_days_equals_an_uninterrupted_one(days, tmp_path):
    reference = _campaign()
    _run(reference, days)

    ckpt = tmp_path / "ckpt"
    killed = _campaign(model_store=ModelStore(path=tmp_path / "models"), checkpoint_dir=ckpt)
    _run(killed, days[:1])
    resumed = _campaign(model_store=ModelStore(path=tmp_path / "models"), checkpoint_dir=ckpt)
    reports = resumed.run(_Days(days))
    assert [r.day for r in reports] == list(range(len(days)))
    _kept_rows_are_current(resumed)
    assert resumed._report_dicts == reference._report_dicts
    assert resumed.latest_model.to_bytes() == reference.latest_model.to_bytes()
    # The restored run's alarms start after its restore; day 0 raises none.
    tail = [(a.environment, a.interval, a.peak_deviation) for a in resumed.alarm_store.fetch()]
    assert tail == _outcome(reference)[2]


def test_warm_days_time_their_forwards(days):
    """Calibration and scoring over kept rows still run through the
    engine, so every warm day adds its forwards to
    ``repro_nn_predict_batch_seconds``, the campaign's self-metric."""
    forwards = _OBS.registry.get("repro_nn_predict_batch_seconds")
    runs = _OBS.counter("repro_training_runs_total", labels=("kind",))
    campaign = _campaign()
    for day, executions in enumerate(days):
        before, warm_before = forwards.count, runs.labels(kind="warm").value
        campaign.run_day(day, executions)
        if day:
            assert runs.labels(kind="warm").value == warm_before + 1
            assert forwards.count - before >= len(executions)


class _Days:
    """The ``TelecomDataset`` shape ``TestingCampaign.run`` replays."""

    def __init__(self, days):
        self.chains = [_Chain([day[c] for day in days]) for c in range(len(days[0]))]


class _Chain:
    def __init__(self, executions):
        self.executions = executions

    def __len__(self):
        return len(self.executions)


@pytest.mark.parametrize("kept", ["all", "some", "none"])
def test_a_warm_run_computes_only_the_rows_it_is_not_given(days, kept):
    """Kept rows, where given, stand in for the records' own windows'."""
    records = [(e.environment, e.features, e.cpu) for day in days for e in day]
    base = TrainingPipeline(ModelStore(), model_params=dict(MODEL_PARAMS)).train(records[:12]).model
    rows = PredictionPipeline.branch_rows(base, [TestExecution(*record) for record in records])
    given = {"all": rows, "some": [r if k % 3 else None for k, r in enumerate(rows)], "none": None}[kept]

    def warm(branch_rows):
        store = ModelStore()
        TrainingPipeline(store, model_params=dict(MODEL_PARAMS), seed=3).fine_tune(
            base, records, 6, 4, branch_rows=branch_rows
        )
        return store.fetch_latest()[0]

    assert warm(given) == warm(None)


def test_kept_rows_need_the_model_that_computed_them(days):
    """Without an injected model, ``execute`` would score kept rows
    under whatever version is latest, so it refuses them."""
    store = ModelStore()
    records = [(e.environment, e.features, e.cpu) for e in days[0]]
    model = TrainingPipeline(store, model_params=dict(MODEL_PARAMS)).train(records).model
    pipeline = PredictionPipeline(store, AlarmStore())
    rows = PredictionPipeline.branch_rows(model, days[1])
    with pytest.raises(ValueError, match="injected model"):
        pipeline.execute(PredictBatch(days[1]), branch_rows=rows)
    runs = pipeline.execute(PredictBatch(days[1]), model=model, model_version=1, branch_rows=rows)
    assert len(runs) == len(days[1])
