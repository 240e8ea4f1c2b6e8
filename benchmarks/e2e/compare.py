"""Compare two sets of end-to-end results, one row per metric and workload.

    python3 benchmarks/e2e/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are result files or directories of them, as
``run.py`` writes them (untraced runs). Runs are paired by workload and
seed. Each row shows both sides' median and quartiles, how many pairs
the change won (ties count for neither), and a verdict:

- ``unresolved``: the parent's quartile spread, as a share of its
  median, exceeds the metric's bound in ``BENCHMARK.json``, and not
  every change run reads better than every parent run;
- ``improved``: the change won at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's quartile spread;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``unchanged``: anything else.

Exits 1 if any row regressed or a workload's failed fraction rose, and
2 if the results cannot be compared: their fingerprints differ in
anything but the commit and the seed, or a set holds traced runs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from e2e.results import environment_mismatches, load_results, load_spec  # noqa: E402

__all__ = ["compare_sets", "verdict"]

#: Share of pairs the change must win to claim an improvement.
WIN_SHARE = 0.9


class Incomparable(ValueError):
    """The two sets were not measured under the same conditions."""


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float, wins: int, pairs: int) -> str:
    """The choosing-metrics rule for one (metric, workload) row."""
    sign = 1.0 if better == "higher" else -1.0
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(parent_median) if parent_median else float("inf")
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    gain = sign * (change_median - parent_median)
    if spread > bound and not every_run_better:
        return "unresolved"
    if pairs and wins >= WIN_SHARE * pairs and gain > q3 - q1:
        return "improved"
    if -gain > bound * abs(parent_median):
        return "regressed"
    return "unchanged"


def _by_workload(results: list[dict]) -> dict:
    grouped: dict[str, dict[int, dict]] = {}
    for result in results:
        grouped.setdefault(result["workload"], {})[result["fingerprint"]["seed"]] = result
    return grouped


def compare_sets(parent: list[dict], change: list[dict], spec: dict) -> tuple[list[dict], list[dict]]:
    """Rows (one per metric and workload) and failed-fraction rows.

    Raises :class:`Incomparable` when the sets may not be compared.
    """
    if not parent or not change:
        raise Incomparable("both sets need at least one result")
    traced = [r.get("_path", r["workload"]) for r in parent + change if r["fingerprint"].get("mode") != "untraced"]
    if traced:
        raise Incomparable(f"traced runs carry no end-to-end metrics: {traced}")
    mismatches = environment_mismatches([r["fingerprint"] for r in parent + change])
    if mismatches:
        raise Incomparable(f"fingerprints differ beyond commit and seed: {mismatches}")
    before, after = _by_workload(parent), _by_workload(change)
    rows, failures = [], []
    for workload in sorted(set(before) & set(after)):
        old, new = before[workload], after[workload]
        seeds = sorted(set(old) & set(new))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old_values = [r["metrics"][name]["value"] for r in old.values()]
            new_values = [r["metrics"][name]["value"] for r in new.values()]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(
                sign * (new[s]["metrics"][name]["value"] - old[s]["metrics"][name]["value"]) > 0
                for s in seeds
            )
            rows.append({
                "metric": name,
                "workload": workload,
                "unit": metric["unit"],
                "parent": (statistics.median(old_values), *quartiles(old_values)),
                "change": (statistics.median(new_values), *quartiles(new_values)),
                "wins": wins,
                "pairs": len(seeds),
                "verdict": verdict(old_values, new_values, metric["better"], metric["bound"], wins, len(seeds)),
            })
        old_frac = sum(r["failed"] for r in old.values()) / sum(r["attempted"] for r in old.values())
        new_frac = sum(r["failed"] for r in new.values()) / sum(r["attempted"] for r in new.values())
        failures.append({"workload": workload, "parent": old_frac, "change": new_frac, "rose": new_frac > old_frac})
    return rows, failures


def _format(side: tuple[float, float, float]) -> str:
    median, q1, q3 = side
    return f"{median:12.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="parent results: a result file or a directory of them")
    parser.add_argument("change", type=Path, help="change results: a result file or a directory of them")
    args = parser.parse_args(argv)
    spec = load_spec()
    try:
        rows, failures = compare_sets(load_results([args.parent]), load_results([args.change]), spec)
    except Incomparable as error:
        print(f"compare.py: refusing to compare: {error}", file=sys.stderr)
        return 2
    print(f"{'metric':<18} {'workload':<14} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>7}  verdict")
    for row in rows:
        print(f"{row['metric']:<18} {row['workload']:<14} {_format(row['parent']):>34} "
              f"{_format(row['change']):>34} {row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}")
    for row in failures:
        flag = "  ROSE" if row["rose"] else ""
        print(f"failed_frac        {row['workload']:<14} {row['parent']:.6f} -> {row['change']:.6f}{flag}")
    regressed = any(row["verdict"] == "regressed" for row in rows)
    rose = any(row["rose"] for row in failures)
    return 1 if regressed or rose else 0


if __name__ == "__main__":
    sys.exit(main())
