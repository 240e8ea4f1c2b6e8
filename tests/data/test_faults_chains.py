"""Fault injection and build-chain structure tests."""

import numpy as np
import pytest

from repro.data import BuildChain, Environment, InjectedFault, apply_fault, inject_faults
from repro.data import TestExecution as Execution

RNG = np.random.default_rng(17)


def _env(build="Build_S01"):
    return Environment("Testbed_01", "SUT_A", "Testcase_Load", build)


def _execution(build="Build_S01", n=50, faults=()):
    return Execution(
        environment=_env(build),
        features=RNG.standard_normal((n, 3)),
        cpu=np.full(n, 50.0),
        faults=list(faults),
    )


class TestInjectedFault:
    def test_interval(self):
        fault = InjectedFault("level_shift", start=10, length=5, magnitude=12.0)
        assert fault.interval() == (10, 15)
        assert fault.overlaps(10) and fault.overlaps(14)
        assert not fault.overlaps(15)

    def test_validation(self):
        with pytest.raises(ValueError):
            InjectedFault("meteor", 0, 5, 1.0)
        with pytest.raises(ValueError):
            InjectedFault("spike", -1, 5, 1.0)
        with pytest.raises(ValueError):
            InjectedFault("spike", 0, 0, 1.0)
        with pytest.raises(ValueError):
            InjectedFault("spike", 0, 5, 0.0)


class TestApplyFault:
    def test_level_shift(self):
        cpu = np.full(30, 40.0)
        fault = InjectedFault("level_shift", 10, 5, 15.0)
        out = apply_fault(cpu, fault, RNG)
        np.testing.assert_allclose(out[10:15], 55.0)
        np.testing.assert_allclose(out[:10], 40.0)
        np.testing.assert_allclose(out[15:], 40.0)

    def test_spike_peaks_mid_interval(self):
        cpu = np.full(30, 40.0)
        fault = InjectedFault("spike", 10, 9, 20.0)
        out = apply_fault(cpu, fault, RNG)
        assert out[14] == pytest.approx(60.0)
        assert out[10] < out[14]

    def test_drift_ramps_up(self):
        cpu = np.full(30, 40.0)
        fault = InjectedFault("drift", 5, 10, 10.0)
        out = apply_fault(cpu, fault, RNG)
        deltas = out[5:15] - 40.0
        assert deltas[0] == pytest.approx(0.0)
        assert deltas[-1] == pytest.approx(10.0)
        assert (np.diff(deltas) >= 0).all()

    def test_noise_burst_changes_interval_only(self):
        cpu = np.full(60, 40.0)
        fault = InjectedFault("noise_burst", 20, 10, 8.0)
        out = apply_fault(cpu, fault, np.random.default_rng(0))
        np.testing.assert_allclose(out[:20], 40.0)
        assert out[20:30].std() > 1.0

    def test_harmless_fault_is_identity(self):
        cpu = np.full(30, 40.0)
        fault = InjectedFault("level_shift", 5, 5, 20.0, impactful=False)
        np.testing.assert_allclose(apply_fault(cpu, fault, RNG), cpu)

    def test_does_not_mutate_input(self):
        cpu = np.full(30, 40.0)
        apply_fault(cpu, InjectedFault("level_shift", 0, 5, 10.0), RNG)
        np.testing.assert_allclose(cpu, 40.0)

    def test_clipped_to_valid_cpu_range(self):
        cpu = np.full(30, 90.0)
        out = apply_fault(cpu, InjectedFault("level_shift", 0, 30, 25.0), RNG)
        assert out.max() <= 100.0

    def test_out_of_bounds_interval_rejected(self):
        with pytest.raises(ValueError):
            apply_fault(np.zeros(10), InjectedFault("spike", 8, 5, 1.0), RNG)


class TestInjectFaults:
    def test_counts_and_flags(self):
        cpu = np.full(200, 50.0)
        out, faults = inject_faults(cpu, np.random.default_rng(0), n_impactful=3, n_harmless=2)
        assert sum(f.impactful for f in faults) == 3
        assert sum(not f.impactful for f in faults) == 2
        assert not np.allclose(out, cpu)

    def test_series_too_short_rejected(self):
        with pytest.raises(ValueError):
            inject_faults(np.zeros(10), RNG, 1, 0)


class TestTestExecution:
    def test_validation(self):
        with pytest.raises(ValueError):
            Execution(_env(), np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            Execution(_env(), np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            Execution(_env(), np.zeros((5, 2)), np.zeros((5, 1)))

    def test_anomaly_mask_from_impactful_faults(self):
        execution = _execution(
            faults=[
                InjectedFault("level_shift", 5, 5, 10.0),
                InjectedFault("spike", 20, 3, 10.0, impactful=False),
            ]
        )
        mask = execution.anomaly_mask()
        assert mask[5:10].all()
        assert not mask[20:23].any()
        assert execution.has_performance_problem
        assert len(execution.impactful_faults) == 1

    def test_no_faults_no_problem(self):
        execution = _execution()
        assert not execution.has_performance_problem
        assert not execution.anomaly_mask().any()


class TestBuildChain:
    def test_current_and_history(self):
        chain = BuildChain([_execution("Build_S01"), _execution("Build_S02"), _execution("Build_S03")])
        assert chain.current.environment.build == "Build_S03"
        assert [e.environment.build for e in chain.history] == ["Build_S01", "Build_S02"]
        assert chain.builds == ["Build_S01", "Build_S02", "Build_S03"]
        assert len(chain) == 3

    def test_key(self):
        chain = BuildChain([_execution()])
        assert chain.key == ("Testbed_01", "SUT_A", "Testcase_Load")

    def test_mixed_chain_keys_rejected(self):
        other = Execution(
            Environment("Testbed_02", "SUT_A", "Testcase_Load", "Build_S02"),
            np.zeros((5, 3)),
            np.zeros(5),
        )
        with pytest.raises(ValueError, match="different chains"):
            BuildChain([_execution(), other])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            BuildChain([])

    def test_total_timesteps_and_history_series(self):
        chain = BuildChain([_execution(n=30), _execution("Build_S02", n=40)])
        assert chain.total_timesteps() == 70
        series = chain.history_series()
        assert len(series) == 1
        assert series[0][1].shape == (30,)


class TestFaultEdgeCases:
    """Boundary and composition cases mirroring the paper's overlapping
    test scenarios ("often overlapping in time")."""

    def test_overlapping_impactful_faults_compose_additively(self):
        cpu = np.full(40, 30.0)
        first = InjectedFault("level_shift", 5, 20, 10.0)
        second = InjectedFault("level_shift", 15, 20, 5.0)
        out = apply_fault(apply_fault(cpu, first, RNG), second, RNG)
        np.testing.assert_allclose(out[5:15], 40.0)   # first only
        np.testing.assert_allclose(out[15:25], 45.0)  # overlap: both shifts
        np.testing.assert_allclose(out[25:35], 35.0)  # second only
        np.testing.assert_allclose(out[35:], 30.0)

    def test_overlapping_faults_union_in_anomaly_mask(self):
        execution = _execution(
            n=40,
            faults=[
                InjectedFault("level_shift", 5, 10, 10.0),
                InjectedFault("spike", 12, 10, 10.0),
            ],
        )
        mask = execution.anomaly_mask()
        assert mask[5:22].all()  # contiguous union of [5,15) and [12,22)
        assert not mask[:5].any() and not mask[22:].any()

    def test_fault_ending_exactly_at_series_boundary_is_valid(self):
        cpu = np.full(30, 40.0)
        out = apply_fault(cpu, InjectedFault("level_shift", 25, 5, 10.0), RNG)
        np.testing.assert_allclose(out[25:], 50.0)

    def test_fault_past_the_boundary_rejected_but_mask_clips(self):
        # apply_fault refuses to write outside the series...
        with pytest.raises(ValueError, match="exceeds series length"):
            apply_fault(np.zeros(30), InjectedFault("drift", 25, 10, 5.0), RNG)
        # ...while ground-truth labelling clips an over-long record instead
        # of crashing (executions can be truncated after fault injection).
        execution = _execution(n=30, faults=[InjectedFault("drift", 25, 10, 5.0)])
        mask = execution.anomaly_mask()
        assert len(mask) == 30
        assert mask[25:].all() and not mask[:25].any()

    def test_non_impactful_faults_never_perturb_any_kind(self):
        cpu = np.linspace(10.0, 90.0, 50)
        for kind in ("level_shift", "spike", "drift", "noise_burst"):
            fault = InjectedFault(kind, 10, 20, 25.0, impactful=False)
            np.testing.assert_array_equal(
                apply_fault(cpu, fault, np.random.default_rng(1)), cpu
            )

    def test_non_impactful_faults_are_not_ground_truth(self):
        execution = _execution(
            n=50, faults=[InjectedFault("spike", 5, 10, 20.0, impactful=False)]
        )
        assert not execution.has_performance_problem
        assert not execution.anomaly_mask().any()
        assert execution.impactful_faults == []
