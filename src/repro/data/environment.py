"""Environment metadata (EM) — the paper's Table 1 schema.

An *environment* is the full hardware/software stack a test execution runs
on, abstracted as a set of EM labels across five layers: hardware,
virtualization, operating system, application/VNF, and test case. The
paper simplifies discussion to a 4-tuple
``<Testbed_ID, SUT_Mod, Testcase_ID, Build_vers>`` (§3.1), where the
testbed id stands in for the first four columns of Table 1; we keep both
the full schema (for generating realistic testbeds) and the 4-tuple view
(the model's embedding fields).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EM_FIELDS",
    "TABLE1_SCHEMA",
    "Environment",
    "Testbed",
    "random_testbed",
]

#: The four representative EM fields used throughout the paper (§3.1).
EM_FIELDS = ("testbed", "sut", "testcase", "build")

#: Table 1 — example EM labels per stack layer, with their value domains.
#: Used by :func:`random_testbed` to synthesize realistic testbeds.
TABLE1_SCHEMA: dict[str, dict[str, tuple]] = {
    "hardware": {
        "cpu_clock_ghz": (2.1, 2.4, 2.6, 3.0, 3.5, 4.0),
        "num_cores": (8, 16, 24, 32, 48),
        "ram_gb": (32, 64, 128, 256),
        "disk_gb": (256, 512, 1024, 2048),
        "hyper_threading": ("on", "off"),
        "num_threads": (16, 32, 48, 64, 96),
    },
    "virtualization": {
        "hypervisor": ("ESXi 5.5", "ESXi 6.5", "KVM", "Xen"),
        "cluster_size": (1, 2, 4, 8),
        "dpdk": ("on", "off"),
        "sr_iov": ("on", "off"),
        "cpu_pinning": ("on", "off"),
        "vcpu": (2, 4, 8, 16),
    },
    "operating_system": {
        "kernel": ("Linux 4.15", "Linux 5.3.7", "Linux 5.4"),
        "ulimits": ("default", "raised"),
        "filesystem": ("ext4", "xfs"),
        "swap_gb": (0, 2, 8),
        "page_size_kb": (4, 2048),
        "cpu_governor": ("ondemand", "performance", "powersave"),
    },
    "application": {
        "runtime_env": ("JVM", "native", "container"),
        "features_enabled": ("base", "base+tls", "base+tls+qos", "full"),
        "service_chain": ("fw", "fw-lb", "fw-lb-nat"),
        "slicing": (1, 2, 4),
        "elasticity": ("yes", "no"),
    },
    "test_case": {
        "workload_type": ("data", "voice", "signalling", "mixed"),
        "traffic_model": ("self-similar", "poisson", "daily-curve", "burst"),
        "form_factor": ("surge", "steady", "ramp"),
        "fault_injection": ("none", "latency", "packet-loss", "cpu-stress"),
    },
}


@dataclass(frozen=True)
class Testbed:
    """A concrete testbed: one value chosen per Table 1 label (layers 1-4)."""

    testbed_id: str
    labels: dict[str, str] = field(hash=False)

    def __post_init__(self) -> None:
        if not self.testbed_id:
            raise ValueError("testbed_id must be non-empty")

    def label(self, name: str) -> str:
        return self.labels[name]


def random_testbed(testbed_id: str, rng: np.random.Generator) -> Testbed:
    """Sample a testbed by choosing one value per label of layers 1-4."""
    labels: dict[str, str] = {}
    for layer in ("hardware", "virtualization", "operating_system", "application"):
        for name, domain in TABLE1_SCHEMA[layer].items():
            labels[name] = str(domain[rng.integers(0, len(domain))])
    return Testbed(testbed_id=testbed_id, labels=labels)


@dataclass(frozen=True)
class Environment:
    """The 4-tuple environment abstraction of §3.1.

    ``<Testbed_ID, SUT_Mod, Testcase_ID, Build_vers>`` — e.g.
    ``Environment('Testbed_15', 'SUT_DB', 'Testcase_Regression', 'Build_S10')``.
    """

    testbed: str
    sut: str
    testcase: str
    build: str

    def __post_init__(self) -> None:
        for name in EM_FIELDS:
            if not getattr(self, name):
                raise ValueError(f"environment field {name!r} must be non-empty")

    def as_dict(self) -> dict[str, str]:
        return {name: getattr(self, name) for name in EM_FIELDS}

    def as_tuple(self) -> tuple[str, str, str, str]:
        return (self.testbed, self.sut, self.testcase, self.build)

    @property
    def build_type(self) -> str:
        """The build-type letter, e.g. 'S' for Build_S10 (stable).

        Figure 6 shows embeddings clustering by this letter.
        """
        name = self.build.removeprefix("Build_")
        return name[0] if name else "?"

    @property
    def chain_key(self) -> tuple[str, str, str]:
        """Identity of the build chain this environment belongs to.

        A *build chain* is a sequence of builds tied to a particular
        (testbed, SUT, test case) combination (§1).
        """
        return (self.testbed, self.sut, self.testcase)

    def overlap(self, other: "Environment") -> int:
        """Number of EM fields shared with another environment (0-4)."""
        return sum(
            getattr(self, name) == getattr(other, name) for name in EM_FIELDS
        )
