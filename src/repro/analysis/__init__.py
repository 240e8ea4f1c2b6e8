"""repro.analysis — the project's static analyzer (audit-as-code).

Byte-identical parallel campaigns stay byte-identical only while nobody
reintroduces the bug classes that audit removed by hand:
writable cache-row aliases, wall-clock reads on the simulated campaign
clock, unseeded RNGs, and (since each process runs one thread) threads
and processes started outside the serve supervisor. This package
encodes those audits as AST rules that run in tier-1, with inline
``# repro: noqa[REP00x]`` suppressions as the only escape hatch (a
suppression that silences nothing is itself a finding, REP000).

The analyzer runs in one phase: one parse and one walk per file,
dispatching the per-file rules REP001, REP002, REP004, REP006, REP007
and REP009-REP012. Every finding fails the scan.

Entry points::

    python -m repro.analysis src/            # scan, text report
    python -m repro analyze src/             # the same, through the repro CLI
    Analyzer(default_registry()).analyze_paths(["src"])   # programmatic
"""

from .cli import main, render_text
from .engine import (
    UNUSED_SUPPRESSION_ID,
    AnalysisResult,
    Analyzer,
    FileContext,
    Finding,
    Rule,
    RuleRegistry,
)
from .rules import ALL_RULES, default_registry

__all__ = [
    "ALL_RULES",
    "AnalysisResult",
    "Analyzer",
    "default_registry",
    "FileContext",
    "Finding",
    "main",
    "render_text",
    "Rule",
    "RuleRegistry",
    "UNUSED_SUPPRESSION_ID",
]
