"""``python -m repro.analysis`` / ``python -m repro analyze`` entry point.

Exit codes: 0 — clean (no findings, no parse errors); 1 — findings or
parse errors; 2 — usage errors. The inline ``# repro: noqa[REP00x]``
pragma is the only escape hatch, and a pragma that silences nothing is
itself a finding (REP000).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import AnalysisResult, Analyzer
from .rules import default_registry

__all__ = ["main", "render_text"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Per-file AST analyzer enforcing determinism, process-boundary "
        "and aliasing discipline (rules REP001, REP002, REP004, REP006, REP007 "
        "and REP009-REP012, plus REP000 for dead suppressions).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories to scan (default: src)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


def render_text(result: AnalysisResult) -> str:
    """One line per finding, a summary line, then one line per parse error."""
    lines = [finding.render() for finding in result.findings]
    counts = ", ".join(f"{rule}={n}" for rule, n in result.by_rule().items()) or "none"
    lines.append(
        f"{result.n_files} files scanned: {len(result.findings)} finding(s) [{counts}], "
        f"{result.n_suppressed} suppressed"
    )
    lines.extend(f"parse error: {error}" for error in result.parse_errors)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in default_registry():
            print(f"{rule.id}  {rule.title}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro.analysis: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    result = Analyzer(default_registry()).analyze_paths(args.paths)
    print(render_text(result))
    return 1 if result.findings or result.parse_errors else 0
