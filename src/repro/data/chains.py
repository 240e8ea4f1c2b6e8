"""Build chains and test executions.

A *build chain* (paper §1) is the sequence of software builds tested on a
particular (testbed, SUT, test case) combination. Each build's test run is
a :class:`TestExecution`: a contextual-feature matrix plus the CPU series
it produced, tagged with its :class:`~repro.data.environment.Environment`.
For training/evaluation the paper "treat[s] the time series associated with
the current (or most recent) build in each build chain as the test case,
and those associated with the previous builds as the
training/cross-validation data" (§4.2.1) — exposed here as
:attr:`BuildChain.current` and :attr:`BuildChain.history`.

Build chains model *independent* environments. Production VNFs are also
deployed as **service chains** (§1: packet cores, load balancers and
firewalls chained into one service): upstream VNF load propagates to
downstream members, so their resource series are coupled, not
independent. :class:`VNFPlacement` and :class:`ServiceChainTopology`
describe that wiring — which build chains form a service chain, in what
order, and with what placement (co-located on a shared host vs. remote
with queueing delay). :func:`repro.data.generate_chained_telecom` uses
them to synthesize coupled workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .environment import Environment
from .faults import InjectedFault

__all__ = ["TestExecution", "BuildChain", "VNFPlacement", "ServiceChainTopology"]


@dataclass
class TestExecution:
    """One build's test run in one environment."""

    __test__ = False  # keep pytest from collecting this as a test class

    environment: Environment
    features: np.ndarray  # (timesteps, n_features) contextual features (CFs)
    cpu: np.ndarray  # (timesteps,) resource utilization (RU)
    faults: list[InjectedFault] = field(default_factory=list)
    # Additional per-timestep KPI series (e.g. memory, response time):
    # §4.2 notes the approach "can be used for detecting performance
    # problems across many types of resources such as CPU, memory and
    # disk, or other VNF specific KPIs".
    extra_kpis: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.cpu = np.asarray(self.cpu, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d; got shape {self.features.shape}")
        if self.cpu.ndim != 1:
            raise ValueError(f"cpu must be 1-d; got shape {self.cpu.shape}")
        if len(self.features) != len(self.cpu):
            raise ValueError(
                f"features and cpu disagree on length: {len(self.features)} vs {len(self.cpu)}"
            )
        for name, series in list(self.extra_kpis.items()):
            series = np.asarray(series, dtype=np.float64)
            if series.shape != self.cpu.shape:
                raise ValueError(
                    f"KPI {name!r} has shape {series.shape}; expected {self.cpu.shape}"
                )
            self.extra_kpis[name] = series

    @property
    def n_timesteps(self) -> int:
        return len(self.cpu)

    @property
    def impactful_faults(self) -> list[InjectedFault]:
        """Ground-truth performance problems in this execution."""
        return [fault for fault in self.faults if fault.impactful]

    @property
    def has_performance_problem(self) -> bool:
        return bool(self.impactful_faults)

    def anomaly_mask(self) -> np.ndarray:
        """Boolean mask of timesteps inside any impactful fault interval."""
        mask = np.zeros(self.n_timesteps, dtype=bool)
        for fault in self.impactful_faults:
            mask[fault.start : min(fault.end, self.n_timesteps)] = True
        return mask


@dataclass
class BuildChain:
    """A sequence of test executions for one (testbed, SUT, testcase)."""

    executions: list[TestExecution]

    def __post_init__(self) -> None:
        if not self.executions:
            raise ValueError("a build chain needs at least one execution")
        keys = {execution.environment.chain_key for execution in self.executions}
        if len(keys) != 1:
            raise ValueError(f"executions belong to different chains: {sorted(keys)}")

    @property
    def key(self) -> tuple[str, str, str]:
        """(testbed, sut, testcase) identity of this chain."""
        return self.executions[0].environment.chain_key

    @property
    def builds(self) -> list[str]:
        return [execution.environment.build for execution in self.executions]

    @property
    def current(self) -> TestExecution:
        """The most recent build's execution — the paper's test case."""
        return self.executions[-1]

    @property
    def history(self) -> list[TestExecution]:
        """Previous builds — the paper's training/cross-validation data."""
        return self.executions[:-1]

    def __len__(self) -> int:
        return len(self.executions)

    def total_timesteps(self) -> int:
        return sum(execution.n_timesteps for execution in self.executions)

    def history_series(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(features, cpu) pairs of the historical executions."""
        return [(execution.features, execution.cpu) for execution in self.history]


@dataclass(frozen=True)
class VNFPlacement:
    """Where one service-chain member runs, relative to its upstream hop.

    ``colocated`` members share a host with the previous VNF: load arrives
    with no queueing delay but CPU contention couples the two series.
    Remote members instead see the upstream load ``delay`` timesteps late,
    attenuated by ``damping`` (buffering/batching between hops).
    """

    position: int
    testbed: str
    colocated: bool = False
    delay: int = 0
    damping: float = 1.0

    def __post_init__(self) -> None:
        if self.position < 0:
            raise ValueError("position must be >= 0")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.position == 0 and self.delay != 0:
            raise ValueError("the head of a service chain has no upstream delay")
        if self.colocated and self.delay != 0:
            raise ValueError("a colocated member shares its host: delay must be 0")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")


@dataclass(frozen=True)
class ServiceChainTopology:
    """An ordered service chain over build-chain indices of a dataset.

    ``members[i]`` is the index (into ``dataset.chains``) of the build
    chain that plays position ``i``; ``placements[i]`` describes how that
    member is deployed. Position 0 is the ingress VNF; each later member
    receives the previous member's load.
    """

    name: str
    members: tuple[int, ...]
    placements: tuple[VNFPlacement, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        placements = tuple(self.placements)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "placements", placements)
        if len(members) < 2:
            raise ValueError("a service chain needs at least 2 members")
        if len(members) != len(placements):
            raise ValueError("members and placements must be aligned")
        if len(set(members)) != len(members):
            raise ValueError("a build chain cannot appear twice in one topology")
        for i, placement in enumerate(placements):
            if placement.position != i:
                raise ValueError(
                    f"placement {i} has position {placement.position}; topologies are ordered"
                )

    def __len__(self) -> int:
        return len(self.members)
