"""Tier-1 gate: the shipped tree passes its own analyzer, in-process.

The committed baseline is empty (there is no baseline file): ``src/``
must scan with zero findings and zero parse errors, and the scan must
actually cover the tree. ``tests/test_lint.py::test_repro_analysis_gate``
checks the same through the CLI entry point.
"""

from pathlib import Path

from repro.analysis import Analyzer, default_registry

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_scans_clean_against_committed_baseline():
    result = Analyzer(default_registry()).analyze_paths(
        [REPO_ROOT / "src"], root=REPO_ROOT
    )
    assert result.parse_errors == []
    assert result.n_files > 50  # the scan actually covered the tree
    assert result.findings == [], "new findings:\n" + "\n".join(
        f.render() for f in result.findings
    )
