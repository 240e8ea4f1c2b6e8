"""End-to-end benchmark of the Env2Vec testing loop.

One workload, in the form ``BENCHMARK.json`` gives its command::

    python3 benchmarks/e2e/run.py --workload rescore --seed 3 --seconds 20 --trace 0

All four workloads, each in its own process, with a summary table::

    python3 benchmarks/e2e/run.py --seed 1            # end-to-end metrics
    python3 benchmarks/e2e/run.py --seed 1 --trace    # per-layer metrics
    python3 benchmarks/e2e/run.py --smoke --trace     # tiny sizes, seconds

A single-workload run prints, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of ``BENCHMARK.json`` untraced, its
``per_layer`` metrics traced. Every run also writes a result file (with
an environment fingerprint and diagnostics) to ``--out``, and a traced
run writes ``trace-<workload>.json`` with its spans. The exit code is
non-zero when a correctness gate fails.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark stops before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 1
DEFAULT_OUT = HERE / "out"
SMOKE_SECONDS = 1.0
WORKLOAD_TIMEOUT_S = 180


def _bootstrap() -> None:
    """Put the checkout's program and this package on the import path."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: the program's source is missing ({src / 'repro'}); run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE.parent))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"run.py: imported repro from {repro.__file__}, not from {src}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="picks corpora and arrival schedules")
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): traced run reporting per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; seconds default to 1")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="directory for result files")
    return parser.parse_args(argv)


def _with_units(spec: dict, section: str, values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for the spec's metrics in ``section``."""
    units = {m["name"]: m["unit"] for m in spec[section]}
    return {name: {"value": values[name], "unit": units[name]} for name in units if name in values}


def _run_one(args, spec: dict) -> int:
    from e2e.results import fingerprint, peak_rss_mb
    from e2e.tracing import Tracer
    from e2e.workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    ctx = Context(seed=args.seed, seconds=args.seconds, smoke=args.smoke, tracer=tracer)
    started = time.perf_counter()
    result = WORKLOADS[args.workload](ctx)
    result.e2e["peak_rss_mb"] = peak_rss_mb()

    if tracer is not None:
        layers = result.layers
        accounted = sum(v for k, v in layers.items() if k.endswith(".self_share")) + layers["trace.untraced_frac"]
        result.gate(
            "trace_accounts_for_wall",
            abs(accounted - 1.0) <= 0.02 and layers["trace.untraced_frac"] >= -0.02,
            f"self shares + untraced = {accounted:.4f} of traced wall",
        )
    section = "per_layer" if args.trace else "end_to_end"
    values = result.layers if args.trace else result.e2e
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    result.gate("metrics_complete", not missing, f"missing: {missing}")
    for name, metrics in (("end_to_end", result.e2e), ("per_layer", result.layers)):
        bad = [k for k, v in metrics.items() if not isinstance(v, (int, float)) or v != v]
        result.gate(f"{name}_numeric", not bad, f"non-numeric: {bad}")
    metrics = _with_units(spec, section, values)
    line = {"correct": result.correct, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}

    args.out.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": args.workload,
        "fingerprint": fingerprint(seed=args.seed, trace=bool(args.trace), seconds=args.seconds, smoke=args.smoke),
        **line,
        "gates": result.gates,
        "end_to_end": _with_units(spec, "end_to_end", result.e2e),
        "per_layer": _with_units(spec, "per_layer", result.layers),
        "diagnostics": result.diagnostics,
        "run_wall_s": time.perf_counter() - started,
    }
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(payload, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(args.out / f"trace-{args.workload}.json")
    for gate in result.gates:
        print(f"{'ok  ' if gate['ok'] else 'FAIL'} {gate['name']}: {gate['detail']}")
    print(json.dumps(line))
    return 0 if result.correct else 1


def _run_all(args, spec: dict) -> int:
    """Every workload in its own process; prints a table of the metrics."""
    rows, status = [], 0
    for workload in [w["name"] for w in spec["workloads"]]:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", str(args.out),
        ] + (["--smoke"] if args.smoke else [])
        started = time.perf_counter()
        try:
            done = subprocess.run(command, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{workload}: timed out after {WORKLOAD_TIMEOUT_S} s", file=sys.stderr)
            status = 1
            continue
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit {done.returncode}\n{done.stdout}{done.stderr}", file=sys.stderr)
            status = 1
            if not lines:
                continue
        result = json.loads(lines[-1])
        rows.append((workload, time.perf_counter() - started, result))
    for workload, wall, result in rows:
        print(f"{workload}  ({wall:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']})")
        for name, metric in result["metrics"].items():
            print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    from e2e.results import load_spec

    spec = load_spec(ROOT)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    if args.seconds <= 0:
        sys.exit("run.py: --seconds must be positive")
    if args.workload:
        return _run_one(args, spec)
    return _run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
