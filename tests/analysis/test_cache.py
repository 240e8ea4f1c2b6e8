"""Incremental-scan cache: replay, invalidation, and CLI wiring."""

import json
import textwrap

from repro.analysis import Analyzer, AnalysisCache, default_registry
from repro.analysis.cache import CACHE_FORMAT_VERSION
from repro.analysis.cli import main as analysis_main
from repro.analysis.rules import RULESET_VERSION
from repro.analysis.summaries import summarize_module
import ast

DIRTY = textwrap.dedent(
    """
    import numpy as np

    def build():
        return np.random.default_rng()
    """
)

#: A REP016 finding that spans two files: ``run`` drops its seed before
#: calling the RNG-constructing ``make_rng`` defined in the other module.
CROSS_POSITIVE = {
    "proj/rngs.py": textwrap.dedent(
        """
        import numpy as np

        def make_rng(seed=0):
            return np.random.default_rng(seed)
        """
    ),
    "proj/run.py": textwrap.dedent(
        """
        from proj.rngs import make_rng

        def run(seed):
            rng = make_rng()
            return rng, seed
        """
    ),
}


def assert_cross_file_finding(result):
    (finding,) = [f for f in result.findings if f.rule == "REP016"]
    assert finding.path == "proj/run.py"
    assert finding.related[0][0] == "proj/rngs.py"


def write_tree(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)


def scan(tmp_path, cache=None):
    analyzer = Analyzer(default_registry())
    return analyzer.analyze_paths([tmp_path / "proj"], root=tmp_path, cache=cache)


def test_warm_scan_replays_every_file_and_preserves_findings(tmp_path):
    write_tree(tmp_path, CROSS_POSITIVE)
    cache = AnalysisCache(tmp_path / ".cache", ruleset_version=RULESET_VERSION)

    cold = scan(tmp_path, cache)
    assert cold.n_cache_hits == 0
    warm = scan(tmp_path, cache)
    assert warm.n_cache_hits == warm.n_files == 2

    # cross-file findings are re-linked from cached summaries, not lost
    def key(result):
        return [(f.rule, f.path, f.line, f.message, f.related) for f in result.findings]

    assert key(warm) == key(cold)
    assert_cross_file_finding(warm)


def test_edited_file_misses_while_untouched_files_hit(tmp_path):
    write_tree(tmp_path, CROSS_POSITIVE)
    (tmp_path / "proj" / "other.py").write_text("X = 1\n")
    cache = AnalysisCache(tmp_path / ".cache", ruleset_version=RULESET_VERSION)
    scan(tmp_path, cache)

    (tmp_path / "proj" / "other.py").write_text("X = 2\n")
    warm = scan(tmp_path, cache)
    assert warm.n_files == 3
    assert warm.n_cache_hits == 2  # rngs.py and run.py replayed, other.py re-scanned


def test_ruleset_version_bump_invalidates_everything(tmp_path):
    write_tree(tmp_path, CROSS_POSITIVE)
    cache = AnalysisCache(tmp_path / ".cache", ruleset_version=RULESET_VERSION)
    scan(tmp_path, cache)

    bumped = AnalysisCache(tmp_path / ".cache", ruleset_version=RULESET_VERSION + 1)
    warm = scan(tmp_path, bumped)
    assert warm.n_cache_hits == 0


def test_corrupt_cache_entry_is_a_miss_not_an_error(tmp_path):
    write_tree(tmp_path, CROSS_POSITIVE)
    cache = AnalysisCache(tmp_path / ".cache", ruleset_version=RULESET_VERSION)
    scan(tmp_path, cache)
    for entry in (tmp_path / ".cache").glob("*.json"):
        entry.write_text("{not json")
    warm = scan(tmp_path, cache)
    assert warm.n_cache_hits == 0
    assert_cross_file_finding(warm)


def test_cache_format_version_is_embedded(tmp_path):
    write_tree(tmp_path, CROSS_POSITIVE)
    cache = AnalysisCache(tmp_path / ".cache", ruleset_version=RULESET_VERSION)
    scan(tmp_path, cache)
    payloads = [json.loads(entry.read_text()) for entry in (tmp_path / ".cache").glob("*.json")]
    assert sorted(payload["path"] for payload in payloads) == sorted(CROSS_POSITIVE)
    for payload in payloads:
        assert payload["cache_version"] == CACHE_FORMAT_VERSION
        assert payload["ruleset_version"] == RULESET_VERSION


def test_cli_no_cache_skips_cache_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "src" / "repro" / "nn"
    target.mkdir(parents=True)
    (target / "mod.py").write_text(DIRTY)

    assert analysis_main(["src", "--baseline", "none", "--no-cache"]) == 1
    assert not (tmp_path / ".repro_analysis_cache").exists()

    assert analysis_main(["src", "--baseline", "none"]) == 1
    assert (tmp_path / ".repro_analysis_cache").exists()
    capsys.readouterr()


def test_cli_warm_scan_reports_cache_hits(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "src" / "repro" / "nn"
    target.mkdir(parents=True)
    (target / "mod.py").write_text(DIRTY)

    analysis_main(["src", "--baseline", "none", "--format", "json"])
    capsys.readouterr()
    analysis_main(["src", "--baseline", "none", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["cache_hits"] == 1


def test_module_summary_round_trips_through_json(tmp_path):
    source = CROSS_POSITIVE["proj/rngs.py"] + textwrap.dedent(
        """
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import Process

        GLOBAL_STORE = ModelStore()

        class Boss:
            def __init__(self, store):
                self._store = store
                self._pool = ProcessPoolExecutor(2)

            def fan_out(self, items):
                return self._pool.map(len, items)

        def start(seed, store):
            def worker():
                return store.get("m")
            proc = Process(target=worker)
            proc.start()
        """
    )
    summary = summarize_module(ast.parse(source), "proj/store.py")
    data = json.loads(json.dumps(summary.to_dict()))
    assert type(summary).from_dict(data) == summary
