"""Campaign checkpointing: snapshot round-trips and idempotent resume."""

import json

import numpy as np
import pytest

from repro.data import Environment, TelecomConfig, generate_telecom
from repro.obs import get_observability
from repro.workflow import (
    CampaignState,
    ModelStore,
    TestingCampaign,
    TrainingPipeline,
    checkpoint_days,
    load_latest_checkpoint,
    orchestrator,
    save_checkpoint,
)

_OBS = get_observability()

MODEL_PARAMS = {"max_epochs": 8, "batch_size": 256}


@pytest.fixture(scope="module")
def dataset():
    _OBS.reset()
    return generate_telecom(
        TelecomConfig(
            n_chains=8,
            n_testbeds=4,
            builds_per_chain=(3, 4),
            timesteps_per_build=(50, 60),
            n_focus=2,
            include_rare_testbed=False,
            fault_magnitude=(14.0, 25.0),
            seed=4,
        )
    )


def _env(i):
    return Environment(
        testbed=f"tb-{i}", sut=f"sut-{i}", testcase=f"tc-{i}", build=f"b-{i}"
    )


def _report_fields(report):
    return (
        report.day,
        report.executions_run,
        report.alarms_raised,
        [e.as_tuple() for e in report.flagged_environments],
        [e.as_tuple() for e in report.masked_environments],
        report.model_version,
        report.drift_detected,
        report.training_diverged,
        [e.as_tuple() for e in report.quarantined_environments],
    )


class TestSnapshotRoundTrip:
    def test_state_round_trips(self, tmp_path):
        rng = np.random.default_rng(0)
        pool = [
            (_env(i), rng.normal(size=(20, 3)), rng.normal(size=20)) for i in range(3)
        ]
        state = CampaignState(
            day=2,
            pool=pool,
            masked=[_env(1)],
            model_blob=b"\x00\x01npz-ish-bytes\xff",
            drift_state={"detector": {"count": 4, "mean": 0.5, "cumulative": 0.1, "minimum": 0.0},
                         "retrain_recommendations": 1, "observations": 4},
            exporter_now=86400.0 * 3,
            reports=[{"day": 2, "executions_run": 3}],
            dead_letters=[{"key": "a/b/c/d", "reason": "outage", "detail": "", "day": 2}],
        )
        save_checkpoint(tmp_path, state)
        loaded = load_latest_checkpoint(tmp_path)
        assert loaded.day == 2
        assert loaded.model_blob == state.model_blob
        assert loaded.masked == [_env(1)]
        assert loaded.drift_state == state.drift_state
        assert loaded.exporter_now == state.exporter_now
        assert loaded.reports == state.reports
        assert loaded.dead_letters == state.dead_letters
        assert len(loaded.pool) == 3
        for (env_a, f_a, c_a), (env_b, f_b, c_b) in zip(pool, loaded.pool):
            assert env_a == env_b
            assert np.array_equal(f_a, f_b)
            assert np.array_equal(c_a, c_b)

    def test_state_without_model_round_trips(self, tmp_path):
        state = CampaignState(
            day=0, pool=[], masked=[], model_blob=None, drift_state={},
            exporter_now=None,
        )
        save_checkpoint(tmp_path, state)
        loaded = load_latest_checkpoint(tmp_path)
        assert loaded.model_blob is None
        assert loaded.pool == []
        assert loaded.exporter_now is None

    def test_checkpoint_days_sorted_and_latest_wins(self, tmp_path):
        for day in (3, 0, 1):
            save_checkpoint(
                tmp_path,
                CampaignState(day=day, pool=[], masked=[], model_blob=None,
                              drift_state={}, exporter_now=None),
            )
        assert checkpoint_days(tmp_path) == [0, 1, 3]
        assert load_latest_checkpoint(tmp_path).day == 3
        assert checkpoint_days(tmp_path / "missing") == []
        assert load_latest_checkpoint(tmp_path / "missing") is None

    def test_last_full_day_round_trips(self, tmp_path):
        for day, last_full_day in ((0, None), (1, 0)):
            save_checkpoint(
                tmp_path,
                CampaignState(day=day, pool=[], masked=[], model_blob=None, drift_state={},
                              exporter_now=None, last_full_day=last_full_day),
            )
            assert load_latest_checkpoint(tmp_path).last_full_day == last_full_day

    def test_snapshot_without_last_full_day_loads(self, tmp_path):
        # Snapshots written before warm retraining have no such field;
        # they load with it unset, so the resumed day refits in full.
        path = save_checkpoint(
            tmp_path,
            CampaignState(day=4, pool=[], masked=[_env(0)], model_blob=b"blob",
                          drift_state={}, exporter_now=None, last_full_day=4),
        )
        with np.load(path) as archive:
            arrays = dict(archive)
        meta = json.loads(arrays["meta"].tobytes())
        del meta["last_full_day"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        loaded = load_latest_checkpoint(tmp_path)
        assert loaded.last_full_day is None
        assert (loaded.day, loaded.masked, loaded.model_blob) == (4, [_env(0)], b"blob")

    def test_no_torn_tmp_files_left_behind(self, tmp_path):
        save_checkpoint(
            tmp_path,
            CampaignState(day=0, pool=[], masked=[], model_blob=None,
                          drift_state={}, exporter_now=None),
        )
        assert not list(tmp_path.glob("*.tmp"))


class TestCampaignResume:
    def test_resume_matches_uninterrupted_run(self, dataset, tmp_path):
        # A: uninterrupted reference run.
        reference = TestingCampaign(model_params=dict(MODEL_PARAMS))
        reference_reports = reference.run(dataset)

        # B: checkpoints every day but is "killed" after day 1.
        ckpt = tmp_path / "ckpt"
        killed = TestingCampaign(
            model_store=ModelStore(path=tmp_path / "models"),
            model_params=dict(MODEL_PARAMS),
            checkpoint_dir=ckpt,
        )
        for day in (0, 1):
            executions = [
                chain.executions[day] for chain in dataset.chains if day < len(chain)
            ]
            killed.run_day(day, executions)
        assert checkpoint_days(ckpt) == [0, 1]

        # C: a fresh process resumes from the snapshots and finishes.
        resumed = TestingCampaign(
            model_store=ModelStore(path=tmp_path / "models"),
            model_params=dict(MODEL_PARAMS),
            checkpoint_dir=ckpt,
        )
        resumed_reports = resumed.run(dataset)

        assert [_report_fields(r) for r in resumed_reports] == [
            _report_fields(r) for r in reference_reports
        ]
        assert resumed.masked_environments == reference.masked_environments
        assert resumed.latest_model.to_bytes() == reference.latest_model.to_bytes()

    def test_rerun_after_completion_is_idempotent(self, dataset, tmp_path):
        ckpt = tmp_path / "ckpt"
        store_dir = tmp_path / "models"
        first = TestingCampaign(
            model_store=ModelStore(path=store_dir),
            model_params=dict(MODEL_PARAMS),
            checkpoint_dir=ckpt,
        )
        first_reports = first.run(dataset)
        published = first.model_store.latest_version

        again = TestingCampaign(
            model_store=ModelStore(path=store_dir),
            model_params=dict(MODEL_PARAMS),
            checkpoint_dir=ckpt,
        )
        again_reports = again.run(dataset)
        # Every day restores from the snapshots; nothing re-executes.
        assert [_report_fields(r) for r in again_reports] == [
            _report_fields(r) for r in first_reports
        ]
        assert again.model_store.latest_version == published
        assert again.latest_model.to_bytes() == first.latest_model.to_bytes()

    def test_resume_from_a_killed_warm_day_across_a_full_fit(
        self, dataset, tmp_path, monkeypatch
    ):
        # Full fits on days 0 and 2, warm fits on days 1 and 3. The campaign
        # dies inside day 1's warm fit, so the resumed run repeats day 1
        # warm from the restored model, then refits in full, then warms.
        monkeypatch.setattr(orchestrator, "_FULL_REFIT_DAYS", 2)
        reference = TestingCampaign(model_params=dict(MODEL_PARAMS))
        reference_reports = reference.run(dataset)

        class Killed(Exception):
            pass

        def killed_fine_tune(self, *args, **kwargs):
            raise Killed

        ckpt = tmp_path / "ckpt"
        killed = TestingCampaign(
            model_store=ModelStore(path=tmp_path / "models"),
            model_params=dict(MODEL_PARAMS),
            checkpoint_dir=ckpt,
        )
        with monkeypatch.context() as patch:
            patch.setattr(TrainingPipeline, "fine_tune", killed_fine_tune)
            with pytest.raises(Killed):
                killed.run(dataset)
        assert checkpoint_days(ckpt) == [0]

        runs = _OBS.counter("repro_training_runs_total", labels=("kind",))
        before = {kind: runs.labels(kind=kind).value for kind in ("full", "warm")}
        resumed = TestingCampaign(
            model_store=ModelStore(path=tmp_path / "models"),
            model_params=dict(MODEL_PARAMS),
            checkpoint_dir=ckpt,
        )
        resumed_reports = resumed.run(dataset)
        assert runs.labels(kind="warm").value - before["warm"] == 2
        assert runs.labels(kind="full").value - before["full"] == 1

        assert [_report_fields(r) for r in resumed_reports] == [
            _report_fields(r) for r in reference_reports
        ]
        assert resumed.masked_environments == reference.masked_environments
        assert resumed.latest_model.to_bytes() == reference.latest_model.to_bytes()
