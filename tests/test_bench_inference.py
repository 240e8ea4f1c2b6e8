"""Smoke test: ``benchmarks/bench_inference.py`` runs and renders.

A tiny run with no floors checked, so a change to the result's shape
breaks here rather than only when the benchmark is next run by hand;
the engine gate runs this tree against itself with a few blocks.
"""

import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    # Appended, not prepended, so no test module can be shadowed by it.
    sys.path.append(str(BENCHMARKS))

import bench_inference  # noqa: E402

SHAPE_KEYS = {"autograd_no_grad_us_per_call", "compiled_us_per_call", "speedup"}


def test_small_run_renders_every_row():
    results = bench_inference.run_inference_bench(n_stream=10)
    for shape in ("batch1_streaming", "batch256_throughput"):
        assert SHAPE_KEYS <= results[shape].keys()
        assert results[shape]["speedup"] > 0
    assert set(results["per_op_batch256"]) == set(bench_inference.STAGES)
    assert all("us_per_call" in row for row in results["per_op_batch256"].values())
    assert "env_cache" not in results
    text = bench_inference._render(results)
    assert "batch1_streaming" in text and "batch256_throughput" in text
    assert "per-op @256" in text and "env_rows=" in text


def test_engine_gate_against_a_tree_renders_every_shape():
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = bench_inference.compare_engines(src, blocks=5)
    for shape in bench_inference.ENGINE_BLOCK_CALLS:
        row = result[shape]
        assert row["ratio_q1"] <= row["ratio"] <= row["ratio_q3"]
        assert row["gated"] == (shape in bench_inference.ENGINE_GATED)
        assert row["injected_us_per_call"] == 0.0
    assert bench_inference.ENGINE_GATED == ("batch1_streaming",)
    text = bench_inference._render_engines(result)
    assert "batch1_streaming" in text and "no gate" in text


def test_an_injected_cost_is_sized_from_the_baseline_call():
    src = str(Path(__file__).resolve().parents[1] / "src")
    row = bench_inference.compare_engines(src, blocks=5, inject_cost=0.5)["batch1_streaming"]
    assert row["injected_us_per_call"] > 0
    assert row["ratio"] > 1.1
