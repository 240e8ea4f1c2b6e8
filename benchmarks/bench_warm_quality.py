"""Benchmark — warm campaign days against full fits: detection quality.

A warm campaign day fine-tunes yesterday's model instead of refitting
it. This benchmark measures what that costs in detection quality, in
two settings:

- **warm against full**, on the corpus shape of
  ``tests/workflow/test_orchestrator.py`` (8 chains × 3–4 builds ×
  50–60 steps, fault magnitude 14–25, ``max_epochs=12``, batch 256):
  24 pairs, corpus seeds 1–4 × campaign seeds 0–5. Each pair runs the
  default schedule and the same campaign with every day a full fit
  (``orchestrator._FULL_REFIT_DAYS = 1``). Per pair: whether both mask
  the same environments and flag every problem execution of days 1+,
  timestep-labelled alarm F1 over every execution (``anomaly_mask()``
  and ``score_alarms``, the scoring of the test's ``_alarm_f1``), and
  the mean clean-execution MAE under the model that monitored each
  execution;
- **the e2e campaign shape** (``benchmarks/e2e`` ``CAMPAIGN``: 12
  chains × 5 builds × 100–140 steps through the collector,
  ``max_epochs=10``), seeds 1–20, default schedule: timestep-alarm F1,
  alarms raised on clean executions, and the execution-level precision
  and recall the e2e gates read (days 1+).

Everything here is seeded, so the numbers are a function of the tree
alone. With ``--baseline-src`` the script also runs itself on another
checkout's ``src`` (in a subprocess, concurrently) and reports both
trees side by side, pair by pair::

    PYTHONPATH=src:benchmarks python benchmarks/bench_warm_quality.py \\
        --baseline-src ../parent/src

Results go to ``benchmarks/results/BENCH_warm_quality.json``. It takes
about a minute on a 2-vCPU host, both trees at once.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.core import Alarm, AlarmScore, Env2VecRegressor, score_alarms
from repro.data import TelecomConfig, generate_telecom
from repro.data.windows import build_windows
from repro.workflow import TestingCampaign, orchestrator

RESULTS_DIR = Path(__file__).parent / "results"

CORPUS_SEEDS = (1, 2, 3, 4)
CAMPAIGN_SEEDS = (0, 1, 2, 3, 4, 5)
E2E_SEEDS = tuple(range(1, 21))
#: A warm-minus-full F1 below this is listed pair by pair (the test's bound).
F1_DROP_BOUND = 0.10


def _orchestrator_corpus(seed: int):
    return generate_telecom(
        TelecomConfig(
            n_chains=8,
            n_testbeds=4,
            builds_per_chain=(3, 4),
            timesteps_per_build=(50, 60),
            n_focus=2,
            include_rare_testbed=False,
            fault_magnitude=(14.0, 25.0),
            seed=seed,
        )
    )


def _days(dataset) -> list:
    n_days = max(len(chain) for chain in dataset.chains)
    return [[c.executions[d] for c in dataset.chains if d < len(c)] for d in range(n_days)]


def alarm_f1(campaign, dataset) -> float:
    """Timestep-labelled alarm F1 over every execution of the corpus."""
    total = AlarmScore(n_alarms=0, correct_alarms=0)
    for chain in dataset.chains:
        for execution in chain.executions:
            alarms = [
                Alarm(start=r.start_step, end=r.end_step, peak_deviation=r.peak_deviation)
                for r in campaign.alarm_store.fetch(environment=execution.environment)
            ]
            n = execution.n_timesteps
            intervals = [(f.start, min(f.end, n)) for f in execution.impactful_faults]
            total = total + score_alarms(alarms, execution.anomaly_mask(), intervals)
    return total.f1


def _clean_mae(campaign, days) -> float:
    """Mean MAE on clean monitored executions, each under the model that monitored it."""
    errors = []
    for day, executions in enumerate(days):
        if not day:
            continue
        model = Env2VecRegressor.from_bytes(campaign.model_store.fetch(day)[0])
        for execution in executions:
            if execution.has_performance_problem:
                continue
            X, history, y = build_windows(execution.features, execution.cpu, campaign.n_lags)
            predictions = model.predict([execution.environment] * len(y), X, history)
            errors.append(np.abs(predictions - y).mean())
    return float(np.mean(errors))


def _flags_every_problem(reports, days) -> bool:
    flagged = {env for report in reports for env in report.flagged_environments}
    problems = {e.environment for day in days[1:] for e in day if e.has_performance_problem}
    return bool(problems) and problems <= flagged


def _orchestrator_campaign(dataset, seed: int, full: bool):
    saved = orchestrator._FULL_REFIT_DAYS
    orchestrator._FULL_REFIT_DAYS = 1 if full else saved
    try:
        campaign = TestingCampaign(model_params={"max_epochs": 12, "batch_size": 256}, seed=seed)
        reports = campaign.run(dataset)
    finally:
        orchestrator._FULL_REFIT_DAYS = saved
    return campaign, reports


def warm_against_full() -> list[dict]:
    pairs = []
    for corpus_seed in CORPUS_SEEDS:
        dataset = _orchestrator_corpus(corpus_seed)
        days = _days(dataset)
        for campaign_seed in CAMPAIGN_SEEDS:
            runs = {}
            for kind in ("warm", "full"):
                campaign, reports = _orchestrator_campaign(dataset, campaign_seed, kind == "full")
                runs[kind] = {
                    "masked": campaign.masked_environments,
                    "flags_every_problem": _flags_every_problem(reports, days),
                    "f1": alarm_f1(campaign, dataset),
                    "clean_mae": _clean_mae(campaign, days),
                }
            warm, full = runs["warm"], runs["full"]
            pairs.append({
                "corpus_seed": corpus_seed,
                "campaign_seed": campaign_seed,
                "same_masked": warm["masked"] == full["masked"],
                "flags_every_problem": warm["flags_every_problem"] and full["flags_every_problem"],
                "f1_warm": warm["f1"],
                "f1_full": full["f1"],
                "f1_warm_minus_full": warm["f1"] - full["f1"],
                "clean_mae_warm": warm["clean_mae"],
                "clean_mae_full": full["clean_mae"],
                "clean_mae_ratio": warm["clean_mae"] / full["clean_mae"],
            })
            print(
                f"corpus {corpus_seed} campaign {campaign_seed}: F1 warm {warm['f1']:.3f} "
                f"full {full['f1']:.3f}, MAE ratio {pairs[-1]['clean_mae_ratio']:.3f}",
                file=sys.stderr,
            )
    return pairs


def e2e_shape() -> list[dict]:
    from e2e.workloads import CAMPAIGN

    size = CAMPAIGN[False]
    rows = []
    for seed in E2E_SEEDS:
        dataset = size.corpus.generate(seed)
        days = _days(dataset)
        params = {"max_epochs": size.epochs, "batch_size": 256, "patience": size.epochs}
        campaign = TestingCampaign(use_collector=True, model_params=params)
        reports = [campaign.run_day(day, executions) for day, executions in enumerate(days)]
        monitored = {e.environment: e for day in days[1:] for e in day}
        records = [r for r in campaign.alarm_store.fetch() if r.environment in monitored]
        problems = {env for env, e in monitored.items() if e.has_performance_problem}
        alarmed = {r.environment for r in records}
        rows.append({
            "seed": seed,
            "f1": alarm_f1(campaign, dataset),
            "clean_alarms": sum(r.environment not in problems for r in records),
            "precision": len(alarmed & problems) / len(alarmed) if alarmed else 0.0,
            "recall": len(alarmed & problems) / len(problems) if problems else 1.0,
            "drift_days": [report.day for report in reports[1:] if report.drift_detected],
        })
        print(f"e2e seed {seed}: F1 {rows[-1]['f1']:.4f}", file=sys.stderr)
    return rows


def summarize(pairs: list[dict], e2e: list[dict]) -> dict:
    diffs = [p["f1_warm_minus_full"] for p in pairs]
    return {
        "pairs": len(pairs),
        "same_masked": sum(p["same_masked"] for p in pairs),
        "flags_every_problem": sum(p["flags_every_problem"] for p in pairs),
        "f1_diff_mean": statistics.fmean(diffs),
        "f1_diff_median": statistics.median(diffs),
        "f1_diff_min": min(diffs),
        "f1_diff_max": max(diffs),
        "clean_mae_ratio_median": statistics.median(p["clean_mae_ratio"] for p in pairs),
        "clean_mae_ratio_max": max(p["clean_mae_ratio"] for p in pairs),
        "pairs_below_drop_bound": [
            {"corpus_seed": p["corpus_seed"], "campaign_seed": p["campaign_seed"],
             "f1_warm_minus_full": p["f1_warm_minus_full"]}
            for p in pairs if p["f1_warm_minus_full"] < -F1_DROP_BOUND
        ],
        "e2e_f1_mean": statistics.fmean(r["f1"] for r in e2e),
        "e2e_clean_alarms": sum(r["clean_alarms"] for r in e2e),
        "e2e_precision_range": [min(r["precision"] for r in e2e), max(r["precision"] for r in e2e)],
        "e2e_recall_range": [min(r["recall"] for r in e2e), max(r["recall"] for r in e2e)],
    }


def measure() -> dict:
    pairs = warm_against_full()
    e2e = e2e_shape()
    return {"summary": summarize(pairs, e2e), "pairs": pairs, "e2e": e2e}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline-src", help="another checkout's src/ to measure alongside")
    parser.add_argument("--print-json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.print_json:  # the --baseline-src child: measure, print, write nothing
        print(json.dumps(measure()))
        return 0
    child = None
    if args.baseline_src:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(args.baseline_src).resolve()), str(Path(__file__).parent)]
        ))
        child = subprocess.Popen(
            [sys.executable, __file__, "--print-json"], env=env, stdout=subprocess.PIPE, text=True
        )
    trees = {"change": measure()}
    if child is not None:
        out, _ = child.communicate()
        if child.returncode:
            raise SystemExit(f"baseline run failed with exit code {child.returncode}")
        trees = {"baseline": json.loads(out.strip().splitlines()[-1]), **trees}
    payload = {"benchmark": "warm_quality", "cpu_count": os.cpu_count(), "trees": trees}
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_warm_quality.json").write_text(json.dumps(payload, indent=2) + "\n")
    for name, tree in trees.items():
        print(name, json.dumps(tree["summary"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
