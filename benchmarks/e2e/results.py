"""Benchmark spec, environment fingerprint and result files.

Every result file carries a fingerprint of the machine and settings it
was measured under. ``compare.py`` compares only results whose
fingerprints agree in everything but the commit (and the seed, which
pairs runs across the two sets).
"""

from __future__ import annotations

import json
import os
import platform
import resource
from pathlib import Path

__all__ = [
    "ROOT",
    "environment_mismatches",
    "fingerprint",
    "load_results",
    "load_spec",
    "peak_rss_mb",
]

ROOT = Path(__file__).resolve().parents[2]

#: Fingerprint keys that may differ between compared results.
VARYING_KEYS = ("commit", "seed")


def load_spec(root: Path = ROOT) -> dict:
    """``BENCHMARK.json``: workloads, metrics, units, directions, bounds."""
    return json.loads((root / "BENCHMARK.json").read_text())


def _git_commit(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` inside the checkout (no git call)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _blas_name() -> str | None:
    import numpy as np

    config = getattr(np.__config__, "CONFIG", None) or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    name = blas.get("name")
    version = blas.get("version")
    return f"{name} {version}" if name and version else name


def fingerprint(*, seed: int, trace: bool, seconds: float, smoke: bool, root: Path = ROOT) -> dict:
    """Where and how a run was measured. Sets no thread variables itself."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": _git_commit(root),
        "seed": seed,
        "mode": "traced" if trace else "untraced",
        "seconds": seconds,
        "smoke": smoke,
    }


def environment_mismatches(fingerprints: list[dict]) -> dict:
    """Keys (other than commit and seed) on which fingerprints disagree."""
    keys = sorted({key for fp in fingerprints for key in fp} - set(VARYING_KEYS))
    mismatches = {}
    for key in keys:
        values = {json.dumps(fp.get(key)) for fp in fingerprints}
        if len(values) > 1:
            mismatches[key] = sorted(values)
    return mismatches


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def load_results(paths) -> list[dict]:
    """Result files from files or directories (``*.json`` inside them)."""
    results = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            payload = json.loads(file.read_text())
            if "fingerprint" in payload and "workload" in payload:
                payload["_path"] = str(file)
                results.append(payload)
    return results
