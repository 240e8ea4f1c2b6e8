"""repro.analysis — the project's whole-program analyzer (audit-as-code).

PR 4's byte-identical parallel campaigns stay byte-identical only while
nobody reintroduces the bug classes that audit removed by hand:
writable cache-row aliases, wall-clock reads on the simulated campaign
clock, unseeded RNGs, and (since each process runs one thread) threads
started outside the serve supervisor. This package encodes
those audits as AST rules that run in tier-1, with inline
``# repro: noqa[REP00x]`` suppressions (checked for staleness) and a
committed, justification-carrying baseline for the survivors.

The analyzer runs in two phases. Phase 1 walks each file once,
dispatching the per-file rules (REP001, REP002, REP004, REP006,
REP007 and REP009-REP012) and distilling a
:class:`~repro.analysis.summaries.ModuleSummary` of its process-dispatch
and determinism surface. Phase 2 links every summary into a
:class:`~repro.analysis.program.ProgramModel` — class families and call
graph — and runs the cross-file rules: REP015 process-escape checking
and REP016 interprocedural determinism taint. Phase 1 replays from a content-hash incremental cache
(:mod:`repro.analysis.cache`); phase 2 always re-links.

Entry points::

    python -m repro.analysis src/            # scan, text report
    python -m repro analyze src/ --format json   # or --format sarif
    Analyzer(default_registry()).analyze_paths(["src"])   # programmatic
"""

from .baseline import Baseline, BaselineEntry, apply_baseline
from .cache import CACHE_DIR_NAME, AnalysisCache
from .cli import DEFAULT_BASELINE_NAME, discover_baseline, main
from .engine import (
    UNUSED_SUPPRESSION_ID,
    AnalysisResult,
    Analyzer,
    FileContext,
    FileScan,
    Finding,
    Rule,
    RuleRegistry,
    iter_python_files,
)
from .program import (
    ALL_CROSS_RULES,
    CROSS_RULE_IDS,
    CrossFileRule,
    ProgramModel,
    default_cross_rules,
)
from .report import JSON_SCHEMA_VERSION, render_json, render_sarif, render_text
from .rules import ALL_RULES, DEFAULT_REGISTRY, RULESET_VERSION, default_registry
from .summaries import ModuleSummary, summarize_module

__all__ = [
    "ALL_CROSS_RULES",
    "ALL_RULES",
    "AnalysisCache",
    "AnalysisResult",
    "Analyzer",
    "apply_baseline",
    "Baseline",
    "BaselineEntry",
    "CACHE_DIR_NAME",
    "CROSS_RULE_IDS",
    "CrossFileRule",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_REGISTRY",
    "default_cross_rules",
    "default_registry",
    "discover_baseline",
    "FileContext",
    "FileScan",
    "Finding",
    "iter_python_files",
    "JSON_SCHEMA_VERSION",
    "main",
    "ModuleSummary",
    "ProgramModel",
    "render_json",
    "render_sarif",
    "render_text",
    "Rule",
    "RuleRegistry",
    "RULESET_VERSION",
    "summarize_module",
    "UNUSED_SUPPRESSION_ID",
]
