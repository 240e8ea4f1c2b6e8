"""Benchmark — repro.analysis scan latency, and each rule's share of it.

The analyzer runs inside tier-1 (``tests/test_lint.py``), so its cost is
paid on every test session. A scan parses each file once and walks it
once, dispatching each node to the rules registered for its type; the
inline-pragma check tokenizes the file once more.

- **Cold scan**: src + tests + benchmarks, best of :data:`ROUNDS` scans.
  Acceptance: under :data:`MAX_SCAN_SECONDS`.
- **Per-rule visits**: in one scan of the same tree, each rule's
  ``visit`` calls are timed inside the shared walk (the rule instance's
  method is shadowed by a timer that drains the findings it yields), so
  a rule's row is its own time, not a whole scan's. ``engine`` is the
  rest of the scan: reading, parsing, tokenizing for pragmas, the walk
  and the dispatch. Each row is the median over :data:`ROUNDS` scans;
  the timer's own cost per call is reported beside them.

Timings go to ``benchmarks/results/BENCH_analysis.json`` and the table to
``benchmarks/results/analysis.txt``.
"""

import json
import os
import statistics
import time
from pathlib import Path

from repro.analysis import Analyzer, default_registry

RESULTS_DIR = Path(__file__).parent / "results"
REPO = Path(__file__).resolve().parent.parent

#: Cold whole-repo scan ceiling, in seconds.
MAX_SCAN_SECONDS = 8.0
ROUNDS = 3

SCAN_ROOTS = ("src", "tests", "benchmarks")


def _time_visits(registry) -> tuple[dict, dict]:
    """Shadow each rule's ``visit`` with a timer; return the running
    seconds and call counts it fills, keyed by rule id."""
    seconds = {rule.id: 0.0 for rule in registry}
    calls = {rule.id: 0 for rule in registry}
    for rule in registry:
        def visit(node, ctx, inner=rule.visit, rule_id=rule.id):
            start = time.perf_counter()
            found = list(inner(node, ctx))
            seconds[rule_id] += time.perf_counter() - start
            calls[rule_id] += 1
            return found

        rule.visit = visit
    return seconds, calls


def _timer_overhead_us(n: int = 200_000) -> float:
    """Microseconds the visit timer adds to one call (around a no-op rule)."""

    class _Null:
        id = "REP999"

        def visit(self, node, ctx):
            return iter(())

    null = _Null()
    bare = null.visit
    start = time.perf_counter()
    for _ in range(n):
        list(bare(None, None))
    bare_s = time.perf_counter() - start
    _time_visits([null])
    start = time.perf_counter()
    for _ in range(n):
        null.visit(None, None)
    return 1e6 * max(0.0, time.perf_counter() - start - bare_s) / n


def run_analysis_bench(rounds: int = ROUNDS) -> dict:
    paths = [REPO / root for root in SCAN_ROOTS]

    cold = []
    for _ in range(rounds):
        analyzer = Analyzer(default_registry())
        start = time.perf_counter()
        result = analyzer.analyze_paths(paths, root=REPO)
        cold.append(time.perf_counter() - start)

    per_rule: dict[str, list] = {}
    engine, calls = [], {}
    for _ in range(rounds):
        registry = default_registry()
        seconds, calls = _time_visits(registry)
        start = time.perf_counter()
        Analyzer(registry).analyze_paths(paths, root=REPO)
        wall = time.perf_counter() - start
        for rule_id, value in seconds.items():
            per_rule.setdefault(rule_id, []).append(1e3 * value)
        engine.append(1e3 * (wall - sum(seconds.values())))

    return {
        "scan_roots": list(SCAN_ROOTS),
        "cores": os.cpu_count(),
        "rounds": rounds,
        "files_scanned": result.n_files,
        "cold_scan_seconds_best_of": min(cold),
        "cold_scan_seconds_median": statistics.median(cold),
        "us_per_file": 1e6 * min(cold) / max(1, result.n_files),
        "findings": len(result.findings),
        "parse_errors": len(result.parse_errors),
        "per_rule_visit_ms": {rule_id: statistics.median(v) for rule_id, v in per_rule.items()},
        "per_rule_visit_calls": calls,
        "engine_ms": statistics.median(engine),
        "timer_overhead_us_per_call": _timer_overhead_us(),
    }


def _render(results: dict) -> str:
    lines = [
        "repro.analysis — one-phase scan of " + " + ".join(results["scan_roots"])
        + f" ({results['cores']} cores)",
        f"  files scanned          {results['files_scanned']:8d}",
        f"  cold scan wall time    {results['cold_scan_seconds_best_of']:8.3f} s "
        f"(best of {results['rounds']}; ceiling {MAX_SCAN_SECONDS:.0f} s)",
        f"  per file (cold)        {results['us_per_file']:8.0f} us",
        f"  findings               {results['findings']:8d}",
        f"  per-rule visit time inside one shared walk, median of {results['rounds']} scans "
        f"(timer adds {results['timer_overhead_us_per_call']:.2f} us per call):",
        f"    {'rule':<8}{'ms':>10}{'calls':>10}",
    ]
    for rule_id, ms in results["per_rule_visit_ms"].items():
        lines.append(f"    {rule_id:<8}{ms:10.1f}{results['per_rule_visit_calls'][rule_id]:10d}")
    lines.append(f"    {'engine':<8}{results['engine_ms']:10.1f}    (read, parse, pragmas, walk, dispatch)")
    return "\n".join(lines)


def _write(results: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_analysis.json").write_text(json.dumps(results, indent=2) + "\n")


def test_bench_analysis(benchmark):
    from conftest import emit

    results = benchmark.pedantic(run_analysis_bench, rounds=1, iterations=1)
    emit("analysis", _render(results))
    _write(results)

    assert results["cold_scan_seconds_best_of"] < MAX_SCAN_SECONDS, (
        f"cold full-repo scan took {results['cold_scan_seconds_best_of']:.2f}s; "
        f"ceiling is {MAX_SCAN_SECONDS:.0f}s"
    )
    assert results["parse_errors"] == 0


if __name__ == "__main__":
    bench_results = run_analysis_bench()
    print(_render(bench_results))
    _write(bench_results)
