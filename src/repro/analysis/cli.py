"""``python -m repro.analysis`` / ``python -m repro analyze`` entry point.

Exit codes: 0 — clean (no non-baselined findings, no expired baseline
entries when ``--strict-baseline``); 1 — findings (or parse errors);
2 — usage errors. The default baseline is ``analysis_baseline.json``
discovered upward from the first scanned path, so running from the repo
root or a subdirectory both pick up the committed file.

Scans are incremental by default: phase-1 results are replayed from
``.repro_analysis_cache/`` (kept next to the discovered baseline, else
the working directory) for files whose content hash is unchanged, and
invalidated wholesale when the rule set version bumps. ``--no-cache``
forces a full pass and neither reads nor writes the cache.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baseline import Baseline, apply_baseline
from .cache import CACHE_DIR_NAME, AnalysisCache
from .engine import Analyzer
from .program import default_cross_rules
from .report import render_json, render_sarif, render_text
from .rules import DEFAULT_REGISTRY, RULESET_VERSION, default_registry

__all__ = ["main", "build_parser", "discover_baseline", "DEFAULT_BASELINE_NAME"]

DEFAULT_BASELINE_NAME = "analysis_baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Two-phase whole-program analyzer enforcing determinism, "
        "process-boundary and aliasing discipline (per-file rules REP001, "
        "REP002, REP004, REP006, REP007 and REP009-REP012, plus cross-file "
        "rules REP015 and REP016).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories to scan (default: src)"
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text", dest="fmt",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"baseline file (default: {DEFAULT_BASELINE_NAME} discovered "
        "upward from the first path; 'none' disables)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write all current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--strict-baseline", action="store_true",
        help="also fail when baseline entries no longer match (expired)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore the incremental scan cache and re-analyze every file",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"incremental cache directory (default: {CACHE_DIR_NAME} next "
        "to the baseline, else the working directory)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


def discover_baseline(first_path: str | Path) -> Path | None:
    """Walk up from ``first_path`` looking for the committed baseline."""
    start = Path(first_path).resolve()
    if start.is_file():
        start = start.parent
    for directory in (start, *start.parents):
        candidate = directory / DEFAULT_BASELINE_NAME
        if candidate.is_file():
            return candidate
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in DEFAULT_REGISTRY:
            print(f"{rule.id}  {rule.title}")
        for cross in default_cross_rules():
            print(f"{cross.id}  {cross.title} [cross-file]")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro.analysis: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    baseline_path: Path | None
    if args.baseline == "none":
        baseline_path = None
    elif args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists() and not args.update_baseline:
            print(f"repro.analysis: no baseline file {baseline_path}", file=sys.stderr)
            return 2
    else:
        baseline_path = discover_baseline(args.paths[0])

    cache = None
    if not args.no_cache:
        if args.cache_dir is not None:
            cache_dir = Path(args.cache_dir)
        elif baseline_path is not None:
            cache_dir = baseline_path.parent / CACHE_DIR_NAME
        else:
            cache_dir = Path(CACHE_DIR_NAME)
        cache = AnalysisCache(cache_dir, ruleset_version=RULESET_VERSION)

    analyzer = Analyzer(default_registry())
    result = analyzer.analyze_paths(args.paths, cache=cache)

    if args.update_baseline:
        if baseline_path is None:
            baseline_path = Path(DEFAULT_BASELINE_NAME)
        baseline = Baseline.from_findings(
            result.findings, justification="grandfathered (justify or fix)"
        )
        baseline.save(baseline_path)
        print(
            f"wrote {len(baseline)} baseline entr"
            f"{'y' if len(baseline) == 1 else 'ies'} to {baseline_path}"
        )
        return 0

    baseline = (
        Baseline.load(baseline_path)
        if baseline_path is not None and Path(baseline_path).exists()
        else Baseline()
    )
    new, grandfathered, expired = apply_baseline(result.findings, baseline)

    render = {"json": render_json, "sarif": render_sarif, "text": render_text}[args.fmt]
    print(render(result, new, grandfathered, expired))

    if new or result.parse_errors:
        return 1
    if expired and args.strict_baseline:
        return 1
    return 0
