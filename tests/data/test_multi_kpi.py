"""Multi-KPI support: memory series generation and modelling (§4.2 claim)."""

import numpy as np
import pytest

from repro.data import Environment, TelecomConfig, generate_telecom
from repro.data import TestExecution as Execution
from repro.data.windows import build_windows_multi
from repro.core import Env2VecRegressor


def _dataset():
    return generate_telecom(
        TelecomConfig(
            n_chains=10,
            n_testbeds=4,
            builds_per_chain=(3, 4),
            timesteps_per_build=(50, 60),
            n_focus=2,
            include_rare_testbed=False,
            emit_memory=True,
            seed=1,
        )
    )


class TestExtraKPIs:
    def test_memory_emitted_when_enabled(self):
        dataset = _dataset()
        for chain in dataset.chains:
            for execution in chain.executions:
                assert "memory" in execution.extra_kpis
                assert execution.extra_kpis["memory"].shape == execution.cpu.shape

    def test_memory_absent_by_default(self):
        dataset = generate_telecom(
            TelecomConfig(
                n_chains=4,
                n_testbeds=3,
                builds_per_chain=(3, 3),
                timesteps_per_build=(50, 55),
                n_focus=2,
                include_rare_testbed=False,
                seed=6,
            )
        )
        assert dataset.chains[0].current.extra_kpis == {}

    def test_memory_in_valid_range(self):
        dataset = _dataset()
        for chain in dataset.chains:
            for execution in chain.executions:
                memory = execution.extra_kpis["memory"]
                assert memory.min() >= 0.0 and memory.max() <= 100.0

    def test_debug_builds_leak(self):
        """Debug-type builds drift upward in memory (the injected leak)."""
        dataset = _dataset()
        debug = [
            e
            for c in dataset.chains
            for e in c.executions
            if e.environment.build_type == "D"
        ]
        stable = [
            e
            for c in dataset.chains
            for e in c.executions
            if e.environment.build_type == "S"
        ]
        if not debug or not stable:
            pytest.skip("corpus lacks both build types at this seed")

        def drift(execution):
            memory = execution.extra_kpis["memory"]
            half = len(memory) // 2
            return memory[half:].mean() - memory[:half].mean()

        assert np.mean([drift(e) for e in debug]) > np.mean([drift(e) for e in stable])

    def test_misaligned_kpi_rejected(self):
        env = Environment("T1", "S1", "C1", "B1")
        with pytest.raises(ValueError, match="KPI 'memory'"):
            Execution(
                environment=env,
                features=np.zeros((5, 2)),
                cpu=np.zeros(5),
                extra_kpis={"memory": np.zeros(4)},
            )


class TestMemoryModelling:
    def test_env2vec_models_memory_kpi(self):
        """The same architecture characterizes the memory KPI (§4.2)."""
        dataset = _dataset()
        series, envs_per_series = [], []
        for chain in dataset.chains:
            for execution in chain.history:
                series.append((execution.features, execution.extra_kpis["memory"]))
                envs_per_series.append(execution.environment)
        X, history, y, ids = build_windows_multi(series, 3)
        environments = [envs_per_series[i] for i in ids]
        model = Env2VecRegressor(n_lags=3, max_epochs=15, batch_size=256, seed=0)
        model.fit(environments, X, history, y)
        predictions = model.predict(environments[:200], X[:200], history[:200])
        mae = np.abs(predictions - y[:200]).mean()
        assert mae < y.std()  # clearly better than the trivial predictor
