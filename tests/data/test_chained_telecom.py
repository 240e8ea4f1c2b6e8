"""Chained-VNF (service chain) workload generator tests."""

import numpy as np
import pytest

from repro.data import (
    ChainedTelecomConfig,
    ChainedTelecomDataset,
    ServiceChainTopology,
    TelecomConfig,
    VNFPlacement,
    generate_chained_telecom,
    generate_telecom,
)

CFG = dict(n_chains=14, n_testbeds=6, n_focus=4, seed=5)


@pytest.fixture(scope="module")
def chained():
    return generate_chained_telecom(ChainedTelecomConfig(**CFG))


@pytest.fixture(scope="module")
def independent():
    return generate_telecom(TelecomConfig(**CFG))


class TestTopologyDataclasses:
    def test_placement_validation(self):
        with pytest.raises(ValueError, match="position"):
            VNFPlacement(position=-1, testbed="Testbed_01")
        with pytest.raises(ValueError, match="upstream delay"):
            VNFPlacement(position=0, testbed="Testbed_01", delay=2)
        with pytest.raises(ValueError, match="colocated"):
            VNFPlacement(position=1, testbed="Testbed_01", colocated=True, delay=2)
        with pytest.raises(ValueError, match="damping"):
            VNFPlacement(position=1, testbed="Testbed_01", damping=0.0)

    def test_topology_validation(self):
        head = VNFPlacement(position=0, testbed="Testbed_01")
        hop = VNFPlacement(position=1, testbed="Testbed_02", delay=1, damping=0.8)
        with pytest.raises(ValueError, match="at least 2"):
            ServiceChainTopology(name="t", members=(1,), placements=(head,))
        with pytest.raises(ValueError, match="aligned"):
            ServiceChainTopology(name="t", members=(1, 2), placements=(head,))
        with pytest.raises(ValueError, match="twice"):
            ServiceChainTopology(name="t", members=(1, 1), placements=(head, hop))
        with pytest.raises(ValueError, match="ordered"):
            ServiceChainTopology(name="t", members=(1, 2), placements=(head, head))


class TestChainedGeneration:
    def test_produces_topologies_over_valid_members(self, chained):
        assert isinstance(chained, ChainedTelecomDataset)
        assert chained.topologies
        n = len(chained.chains)
        for topology in chained.topologies:
            assert len(topology) >= 2
            assert all(0 <= index < n for index in topology.members)

    def test_rare_chain_stays_independent(self, chained):
        rare_index = len(chained.chains) - 1
        assert chained.chains[rare_index].key[0] == "Testbed_rare"
        assert all(rare_index not in topology.members for topology in chained.topologies)

    def test_members_appear_in_exactly_one_topology(self, chained):
        seen = [index for topology in chained.topologies for index in topology.members]
        assert len(seen) == len(set(seen))

    def test_downstream_members_are_coupled(self, chained, independent):
        """Downstream CPU differs from the independent corpus; heads do not."""
        heads = {topology.members[0] for topology in chained.topologies}
        downstream = {i for topology in chained.topologies for i in topology.members} - heads
        assert downstream
        for index in downstream:
            assert not np.allclose(
                chained.chains[index].current.cpu, independent.chains[index].current.cpu
            )
        for index in heads:
            np.testing.assert_array_equal(
                chained.chains[index].current.cpu, independent.chains[index].current.cpu
            )

    def test_coupling_preserves_ground_truth_labels(self, chained, independent):
        """Upstream fault deltas propagate as CPU, never as fault records."""
        for chain_a, chain_b in zip(chained.chains, independent.chains):
            for exec_a, exec_b in zip(chain_a.executions, chain_b.executions):
                assert exec_a.faults == exec_b.faults
        assert chained.focus_indices == independent.focus_indices

    def test_cpu_stays_in_bounds(self, chained):
        for chain in chained.chains:
            for execution in chain.executions:
                assert execution.cpu.min() >= 2.0
                assert execution.cpu.max() <= 98.0

    def test_deterministic(self, chained):
        again = generate_chained_telecom(ChainedTelecomConfig(**CFG))
        assert again.topologies == chained.topologies
        for chain_a, chain_b in zip(again.chains, chained.chains):
            for exec_a, exec_b in zip(chain_a.executions, chain_b.executions):
                np.testing.assert_array_equal(exec_a.cpu, exec_b.cpu)
                np.testing.assert_array_equal(exec_a.features, exec_b.features)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            ChainedTelecomConfig(**CFG, chain_length=(1, 3))
        with pytest.raises(ValueError, match="inverted"):
            ChainedTelecomConfig(**CFG, chain_length=(4, 2))
        with pytest.raises(ValueError, match="colocation_probability"):
            ChainedTelecomConfig(**CFG, colocation_probability=1.5)
        with pytest.raises(ValueError, match="delay_range"):
            ChainedTelecomConfig(**CFG, delay_range=(0, 3))
        with pytest.raises(ValueError, match="damping_range"):
            ChainedTelecomConfig(**CFG, damping_range=(0.5, 1.2))
        with pytest.raises(ValueError, match="gains"):
            ChainedTelecomConfig(**CFG, queue_gain=-0.1)
