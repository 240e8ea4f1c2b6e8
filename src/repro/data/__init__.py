"""Datasets and data structures: EM schema, build chains, synthetic corpora.

- :mod:`~repro.data.environment` — the Table 1 EM schema and the 4-tuple
  environment abstraction.
- :mod:`~repro.data.chains` — test executions and build chains.
- :mod:`~repro.data.frame` — a minimal columnar dataframe (Table 2).
- :mod:`~repro.data.windows` — RU-history sliding windows.
- :mod:`~repro.data.kdn` — synthetic KDN benchmark datasets (§4.1).
- :mod:`~repro.data.telecom` — the synthetic carrier-grade testing corpus
  (§4.2) with fault injection (:mod:`~repro.data.faults`).
"""

from .chains import BuildChain, ServiceChainTopology, TestExecution, VNFPlacement
from .environment import EM_FIELDS, TABLE1_SCHEMA, Environment, Testbed, random_testbed
from .faults import FAULT_KINDS, InjectedFault, apply_fault, inject_faults
from .frame import Frame
from .kdn import KDN_CPU_SCALE, KDN_NAMES, KDN_SPLITS, KDNDataset, load_all_kdn, load_kdn
from .stats import CorpusStats, FieldCoverage, corpus_stats
from .telecom import (
    FEATURE_NAMES,
    ChainedTelecomConfig,
    ChainedTelecomDataset,
    TelecomConfig,
    TelecomDataset,
    generate_chained_telecom,
    generate_telecom,
)
from .windows import build_windows, build_windows_multi

__all__ = [
    "Environment",
    "Testbed",
    "random_testbed",
    "EM_FIELDS",
    "TABLE1_SCHEMA",
    "TestExecution",
    "BuildChain",
    "Frame",
    "build_windows",
    "build_windows_multi",
    "KDNDataset",
    "load_kdn",
    "load_all_kdn",
    "KDN_NAMES",
    "KDN_SPLITS",
    "KDN_CPU_SCALE",
    "InjectedFault",
    "apply_fault",
    "inject_faults",
    "FAULT_KINDS",
    "TelecomConfig",
    "TelecomDataset",
    "generate_telecom",
    "ChainedTelecomConfig",
    "ChainedTelecomDataset",
    "generate_chained_telecom",
    "ServiceChainTopology",
    "VNFPlacement",
    "corpus_stats",
    "CorpusStats",
    "FieldCoverage",
    "FEATURE_NAMES",
]
