"""``run.py --smoke`` end to end: every workload, every metric, every gate."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: A hang guard; the smoke run takes about ten seconds on a 2-core box.
SMOKE_TIMEOUT_S = 120


def test_smoke_run_emits_every_metric_and_passes_every_gate(tmp_path):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--trace", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=SMOKE_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    for workload in (w["name"] for w in SPEC["workloads"]):
        result = json.loads((tmp_path / f"{workload}-s1-t1.json").read_text())
        failed = [gate for gate in result["gates"] if not gate["ok"]]
        assert result["correct"] and not failed, (workload, failed)
        assert result["attempted"] >= 1
        for section in ("end_to_end", "per_layer"):
            for metric in SPEC[section]:
                emitted = result[section].get(metric["name"])
                assert emitted is not None, (workload, metric["name"])
                assert emitted["unit"] == metric["unit"]
                assert isinstance(emitted["value"], (int, float))
        assert result["metrics"] == result["per_layer"]
        assert (tmp_path / f"trace-{workload}.json").is_file()
    assert elapsed < SMOKE_TIMEOUT_S


def test_without_the_program_it_fails_before_measuring(tmp_path):
    """A checkout holding only the benchmark must not produce a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
