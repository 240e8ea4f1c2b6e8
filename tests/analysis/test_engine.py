"""Engine mechanics: suppressions, the registry, the text report, CLI."""

import textwrap

import pytest

from repro.analysis import (
    UNUSED_SUPPRESSION_ID,
    Analyzer,
    Rule,
    RuleRegistry,
    default_registry,
    render_text,
)
from repro.analysis.cli import main as analysis_main

NN = "src/repro/nn/mod.py"

DIRTY = textwrap.dedent(
    """
    import numpy as np

    def build():
        return np.random.default_rng()
    """
)

CLEAN = textwrap.dedent(
    """
    import numpy as np

    def build(seed):
        return np.random.default_rng(seed)
    """
)


def scan(source: str, path: str = NN):
    return Analyzer(default_registry()).analyze_source(textwrap.dedent(source), path)


# -- suppressions -----------------------------------------------------------

def test_suppression_silences_matching_finding():
    findings = scan(
        """
        import numpy as np

        def build():
            return np.random.default_rng()  # repro: noqa[REP001]
        """
    )
    assert findings == []


def test_suppression_handles_multiple_ids():
    findings = scan(
        """
        import time
        import numpy as np

        def build():
            return np.random.default_rng(), time.time()  # repro: noqa[REP001, REP002]
        """,
        path="src/repro/workflow/mod.py",
    )
    assert findings == []


def test_unused_suppression_is_itself_a_finding():
    findings = scan(
        """
        def build(seed):
            return seed  # repro: noqa[REP001]
        """
    )
    assert [f.rule for f in findings] == [UNUSED_SUPPRESSION_ID]
    assert "unused suppression" in findings[0].message
    assert "REP001" in findings[0].message


def test_suppression_only_applies_to_its_own_line():
    findings = scan(
        """
        import numpy as np

        # repro: noqa[REP001]
        def build():
            return np.random.default_rng()
        """
    )
    rules = [f.rule for f in findings]
    assert "REP001" in rules  # the finding survives
    assert UNUSED_SUPPRESSION_ID in rules  # and the stray pragma is reported


# -- registry ----------------------------------------------------------------

def test_registry_rejects_duplicate_and_malformed_ids():
    class GoodRule(Rule):
        id = "REP101"

    class BadId(Rule):
        id = "XYZ1"

    registry = RuleRegistry()
    registry.register(GoodRule)
    with pytest.raises(ValueError, match="duplicate"):
        registry.register(GoodRule)
    with pytest.raises(ValueError, match="REP"):
        registry.register(BadId)


# -- reporters ----------------------------------------------------------------

def _scan_tree(tmp_path):
    target = tmp_path / "src" / "repro" / "nn"
    target.mkdir(parents=True)
    (target / "mod.py").write_text(DIRTY)
    analyzer = Analyzer(default_registry())
    return analyzer.analyze_paths([tmp_path / "src"], root=tmp_path)


def test_text_report_mentions_finding_and_summary(tmp_path):
    result = _scan_tree(tmp_path)
    text = render_text(result)
    assert "src/repro/nn/mod.py" in text
    assert "REP001" in text
    assert "1 files scanned" in text


def test_parse_errors_are_collected_not_fatal(tmp_path):
    target = tmp_path / "src" / "repro" / "nn"
    target.mkdir(parents=True)
    (target / "broken.py").write_text("def oops(:\n")
    (target / "mod.py").write_text(DIRTY)
    result = Analyzer(default_registry()).analyze_paths([tmp_path / "src"], root=tmp_path)
    assert len(result.parse_errors) == 1
    assert "broken.py" in result.parse_errors[0]
    assert [f.rule for f in result.findings] == ["REP001"]  # scan continued


# -- CLI exit codes -----------------------------------------------------------

def _write_tree(tmp_path, source):
    target = tmp_path / "src" / "repro" / "nn"
    target.mkdir(parents=True, exist_ok=True)
    (target / "mod.py").write_text(source)


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_tree(tmp_path, CLEAN)

    assert analysis_main(["missing-dir"]) == 2
    assert analysis_main(["src"]) == 0

    _write_tree(tmp_path, DIRTY)
    assert analysis_main(["src"]) == 1  # a finding fails the scan
    assert "REP001" in capsys.readouterr().out

    _write_tree(tmp_path, CLEAN.replace("(seed)\n", "(seed)  # repro: noqa[REP001]\n"))
    assert analysis_main(["src"]) == 1  # and so does a dead pragma
    assert UNUSED_SUPPRESSION_ID in capsys.readouterr().out

    (tmp_path / "src" / "repro" / "nn" / "mod.py").write_text("def oops(:\n")
    assert analysis_main(["src"]) == 1  # a parse error fails it too
    assert "parse error" in capsys.readouterr().out
