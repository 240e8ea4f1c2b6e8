"""Benchmark — repro.analysis two-phase whole-program scan latency.

The analyzer runs inside tier-1 (tests/analysis/test_repo_clean.py and
tests/test_lint.py), so its cost is paid on every test session. Phase 1
is one AST parse + walk per file; phase 2 links every file's summary and
runs the cross-file rules (REP015, REP016) over the program model. The
incremental cache must make warm scans (nothing changed) much cheaper
than cold ones, or tier-1 pays the full price twice per session.

Acceptance: the cold full scan (src + tests + benchmarks, both phases)
completes in under 8 seconds, and a warm incremental scan of the same
tree in under 2 seconds. Timings go to
``benchmarks/results/BENCH_analysis.json``.
"""

import ast
import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.analysis import Analyzer, AnalysisCache, default_registry, iter_python_files
from repro.analysis.program import ALL_CROSS_RULES, ProgramModel
from repro.analysis.rules import RULESET_VERSION
from repro.analysis.summaries import summarize_module

RESULTS_DIR = Path(__file__).parent / "results"
REPO = Path(__file__).resolve().parent.parent

#: Cold whole-repo two-phase scan ceiling, in seconds.
MAX_SCAN_SECONDS = 8.0
#: Warm (cache-hit) incremental scan ceiling, in seconds.
MAX_WARM_SCAN_SECONDS = 2.0

SCAN_ROOTS = ("src", "tests", "benchmarks")


def run_analysis_bench(rounds: int = 3) -> dict:
    paths = [REPO / root for root in SCAN_ROOTS]

    # -- cold scan: both phases, no cache ----------------------------------
    best_s, result = float("inf"), None
    for _ in range(rounds):
        analyzer = Analyzer(default_registry())
        start = time.perf_counter()
        result = analyzer.analyze_paths(paths, root=REPO)
        best_s = min(best_s, time.perf_counter() - start)

    # -- warm scan: phase 1 replayed from the incremental cache ------------
    cache_dir = Path(tempfile.mkdtemp(prefix="repro_analysis_bench_"))
    try:
        cache = AnalysisCache(cache_dir, ruleset_version=RULESET_VERSION)
        Analyzer(default_registry()).analyze_paths(paths, root=REPO, cache=cache)
        best_warm_s, warm = float("inf"), None
        for _ in range(rounds):
            analyzer = Analyzer(default_registry())
            start = time.perf_counter()
            warm = analyzer.analyze_paths(paths, root=REPO, cache=cache)
            best_warm_s = min(best_warm_s, time.perf_counter() - start)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # -- per-rule cost ------------------------------------------------------
    # phase 1: scan src/ with one rule at a time (cross phase disabled), so
    # the totals show where a future slow rule would hide
    per_rule_ms = {}
    for rule in default_registry():
        registry = type(default_registry())()
        registry.register(type(rule))
        analyzer = Analyzer(registry, cross_rules=())
        start = time.perf_counter()
        analyzer.analyze_paths([REPO / "src"], root=REPO)
        per_rule_ms[rule.id] = 1e3 * (time.perf_counter() - start)

    # phase 2: summarize + link src/ once, then time each cross rule's run
    # over the shared program model
    summaries = []
    for file_path in iter_python_files([REPO / "src"]):
        rel = file_path.resolve().relative_to(REPO).as_posix()
        summaries.append(summarize_module(ast.parse(file_path.read_text()), rel))
    start = time.perf_counter()
    program = ProgramModel(summaries)
    link_build_ms = 1e3 * (time.perf_counter() - start)
    for rule_cls in ALL_CROSS_RULES:
        rule = rule_cls()
        start = time.perf_counter()
        list(rule.run(program))
        per_rule_ms[rule.id] = 1e3 * (time.perf_counter() - start)

    return {
        "scan_roots": list(SCAN_ROOTS),
        "files_scanned": result.n_files,
        "scan_seconds_best_of": best_s,
        "warm_scan_seconds_best_of": best_warm_s,
        "warm_cache_hits": warm.n_cache_hits,
        "link_seconds": result.link_seconds,
        "rounds": rounds,
        "us_per_file": 1e6 * best_s / max(1, result.n_files),
        "findings_pre_baseline": len(result.findings),
        "parse_errors": len(result.parse_errors),
        "per_rule_src_scan_ms": per_rule_ms,
        "link_build_src_ms": link_build_ms,
        "ruleset_version": RULESET_VERSION,
    }


def _render(results: dict) -> str:
    lines = [
        "repro.analysis — two-phase whole-program scan (per-file + cross-file)",
        f"  files scanned          {results['files_scanned']:6d}",
        f"  cold scan wall time    {results['scan_seconds_best_of']:8.3f} s "
        f"(best of {results['rounds']})",
        f"  warm scan wall time    {results['warm_scan_seconds_best_of']:8.3f} s "
        f"({results['warm_cache_hits']} cache hits)",
        f"  phase-2 link time      {results['link_seconds']:8.3f} s",
        f"  per file (cold)        {results['us_per_file']:8.0f} us",
        f"  findings (pre-baseline){results['findings_pre_baseline']:6d}",
        "  per-rule src/ scan (per-file rules: full pass; REP015-016: rule run only):",
    ]
    for rule_id, ms in sorted(results["per_rule_src_scan_ms"].items()):
        lines.append(f"    {rule_id}  {ms:8.1f} ms")
    lines.append(f"  program-model build    {results['link_build_src_ms']:8.1f} ms")
    return "\n".join(lines)


def test_bench_analysis(benchmark):
    from conftest import emit

    results = benchmark.pedantic(run_analysis_bench, rounds=1, iterations=1)
    emit("analysis", _render(results))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_analysis.json").write_text(json.dumps(results, indent=2) + "\n")

    assert results["scan_seconds_best_of"] < MAX_SCAN_SECONDS, (
        f"cold full-repo scan took {results['scan_seconds_best_of']:.2f}s; "
        f"ceiling is {MAX_SCAN_SECONDS:.0f}s"
    )
    assert results["warm_scan_seconds_best_of"] < MAX_WARM_SCAN_SECONDS, (
        f"warm incremental scan took {results['warm_scan_seconds_best_of']:.2f}s; "
        f"ceiling is {MAX_WARM_SCAN_SECONDS:.0f}s"
    )
    assert results["warm_cache_hits"] == results["files_scanned"], (
        "warm scan should replay every file from the cache"
    )
    assert results["parse_errors"] == 0


if __name__ == "__main__":
    bench_results = run_analysis_bench()
    print(_render(bench_results))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_analysis.json").write_text(
        json.dumps(bench_results, indent=2) + "\n"
    )
