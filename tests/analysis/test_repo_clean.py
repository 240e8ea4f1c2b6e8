"""Tier-1 gate: the shipped tree passes its own whole-program analyzer.

``src/`` must scan clean against the committed baseline — zero new
findings, zero parse errors, and zero *expired* entries (a fixed finding
must take its baseline entry with it, or the entry silently licenses a
regression). Every baseline entry must carry a written justification.
The scan runs both phases: the per-file rules and the linked cross-file
rules REP015 and REP016.
"""

import json
from pathlib import Path

from repro.analysis import Analyzer, Baseline, apply_baseline, default_registry

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "analysis_baseline.json"


def _scan():
    analyzer = Analyzer(default_registry())
    # the default analyzer must carry the cross-file phase: the gate is
    # only a gate if REP015 and REP016 actually run here
    assert {"REP015", "REP016"} == {
        rule.id for rule in analyzer.cross_rules
    }
    return analyzer.analyze_paths([REPO_ROOT / "src"], root=REPO_ROOT)


def test_src_scans_clean_against_committed_baseline():
    result = _scan()
    assert result.parse_errors == []
    assert result.n_files > 50  # the scan actually covered the tree
    baseline = Baseline.load(BASELINE_PATH)
    new, _, expired = apply_baseline(result.findings, baseline)
    assert new == [], "new findings:\n" + "\n".join(f.render() for f in new)
    assert expired == [], (
        "expired baseline entries (code fixed, entry stale): "
        + ", ".join(e.fingerprint for e in expired)
    )


def test_every_baseline_entry_is_justified():
    data = json.loads(BASELINE_PATH.read_text())
    for entry in data["entries"]:
        assert entry["justification"].strip(), (
            f"baseline entry {entry['rule']}::{entry['path']} has no justification"
        )
        assert entry["justification"] != "grandfathered (justify or fix)", (
            f"baseline entry {entry['rule']}::{entry['path']} still carries the "
            "--update-baseline placeholder; write a real justification"
        )
