"""``compare.py`` verdicts on synthetic result sets."""

import json

import pytest

from e2e import compare

SPEC = {
    "end_to_end": [
        {"name": "executions_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ]
}
SEEDS = range(1, 11)


def _result(seed, rate, p50=5.0, *, failed=0, commit="parent", mode="untraced", nproc=2):
    return {
        "workload": "serve_stream",
        "fingerprint": {
            "nproc": nproc, "python": "3.11", "numpy": "2", "blas": "openblas",
            "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None,
            "commit": commit, "seed": seed, "mode": mode, "seconds": 20.0, "smoke": False,
        },
        "correct": True,
        "attempted": 1000,
        "failed": failed,
        "metrics": {
            "executions_per_s": {"value": rate, "unit": "1/s"},
            "p50_ms": {"value": p50, "unit": "ms"},
        },
    }


def _set(rates, commit="parent", **kwargs):
    return [_result(seed, rate, commit=commit, **kwargs) for seed, rate in zip(SEEDS, rates)]


def _verdicts(parent, change):
    rows, failures = compare.compare_sets(parent, change, SPEC)
    return {row["metric"]: row["verdict"] for row in rows}, failures


STEADY = [100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8]


def test_same_distribution_is_unchanged():
    verdicts, failures = _verdicts(_set(STEADY), _set(list(reversed(STEADY)), commit="change"))
    assert verdicts == {"executions_per_s": "unchanged", "p50_ms": "unchanged"}
    assert not failures[0]["rose"]


def test_consistent_gain_beyond_the_spread_is_improved():
    verdicts, _ = _verdicts(_set(STEADY), _set([r * 1.2 for r in STEADY], commit="change"))
    assert verdicts["executions_per_s"] == "improved"


def test_worse_by_more_than_the_bound_is_regressed():
    verdicts, _ = _verdicts(_set(STEADY), _set([r * 0.85 for r in STEADY], commit="change"))
    assert verdicts["executions_per_s"] == "regressed"


def test_small_consistent_loss_within_the_bound_is_unchanged():
    verdicts, _ = _verdicts(_set(STEADY), _set([r * 0.95 for r in STEADY], commit="change"))
    assert verdicts["executions_per_s"] == "unchanged"


def test_noisy_parent_is_unresolved_unless_every_run_is_better():
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    verdicts, _ = _verdicts(_set(noisy), _set(noisy[::-1], commit="change"))
    assert verdicts["executions_per_s"] == "unresolved"
    verdicts, _ = _verdicts(_set(noisy), _set([200 + i for i in range(10)], commit="change"))
    assert verdicts["executions_per_s"] == "improved"


def test_a_rise_in_failed_fraction_is_flagged():
    _, failures = _verdicts(_set(STEADY), _set(STEADY, commit="change", failed=1))
    assert failures[0]["rose"]


def test_fingerprints_must_agree_beyond_commit_and_seed():
    with pytest.raises(compare.Incomparable, match="nproc"):
        compare.compare_sets(_set(STEADY), _set(STEADY, commit="change", nproc=8), SPEC)
    with pytest.raises(compare.Incomparable, match="traced"):
        compare.compare_sets(_set(STEADY), _set(STEADY, commit="change", mode="traced"), SPEC)


def test_cli_exit_codes(tmp_path, monkeypatch):
    monkeypatch.setattr(compare, "load_spec", lambda: SPEC)
    sets = {
        "parent": _set(STEADY),
        "same": _set(STEADY, commit="change"),
        "slower": _set([r * 0.8 for r in STEADY], commit="change"),
        "other_box": _set(STEADY, commit="change", nproc=8),
    }
    for name, results in sets.items():
        (tmp_path / name).mkdir()
        for result in results:
            path = tmp_path / name / f"serve_stream-s{result['fingerprint']['seed']}-t0.json"
            path.write_text(json.dumps(result))
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "same")]) == 0
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "slower")]) == 1
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "other_box")]) == 2
