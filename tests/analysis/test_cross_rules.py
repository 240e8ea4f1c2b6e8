"""Cross-file rules REP015 and REP016: positive/negative fixture pairs.

Each fixture is a real tree of files on disk (phase 2 only runs in
``analyze_paths``), scanned with the baseline disabled so assertions see
raw findings. The process-escape fixture mimics the supervisor's
dispatch shape (``Process(target=...)`` with a closure over parent-side
state).
"""

import textwrap

from repro.analysis import Analyzer, default_registry


def scan_tree(tmp_path, files: dict[str, str]):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    result = Analyzer(default_registry()).analyze_paths([tmp_path], root=tmp_path)
    assert result.parse_errors == []
    return result


def by_rule(result, rule):
    return [f for f in result.findings if f.rule == rule]


# -- REP015: process-escape checking -----------------------------------------

STORES = """
    class ModelStore:
        def __init__(self):
            self._blobs = {}

        def get(self, name):
            return self._blobs[name]
"""


def test_rep015_supervisor_shaped_closure_capturing_store(tmp_path):
    # the exact shape REP015 exists for: a Process worker whose closure
    # reaches a parent-side store through the dispatching function
    result = scan_tree(tmp_path, {
        "proj/stores.py": STORES,
        "proj/boss.py": """
        from multiprocessing import Process
        from proj.stores import ModelStore

        def start():
            store = ModelStore()

            def worker():
                return store.get("model")

            proc = Process(target=worker)
            proc.start()
            return proc
        """,
    })
    findings = by_rule(result, "REP015")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "proj/boss.py"
    assert "ModelStore" in finding.message
    # the escape path is anchored hop by hop down to the offending read
    assert finding.related
    assert any("store" in note for _, _, note in finding.related)
    assert all(line > 0 for _, line, _ in finding.related)


def test_rep015_resource_parameter_captured_by_worker(tmp_path):
    result = scan_tree(tmp_path, {
        "proj/boss.py": """
        from multiprocessing import Process

        def start(store):
            def worker():
                return store.get("model")

            proc = Process(target=worker)
            proc.start()
        """,
    })
    findings = by_rule(result, "REP015")
    assert len(findings) == 1
    assert "resource parameter 'store'" in findings[0].message


def test_rep015_negative_worker_receives_values_only(tmp_path):
    # the supervisor pattern done right: a module-level worker fed blobs
    # by value, resources rebuilt child-side
    result = scan_tree(tmp_path, {
        "proj/boss.py": """
        from multiprocessing import Process

        def _worker_main(blob, conn):
            model = bytes(blob)
            conn.send(len(model))

        def start(blob, conn):
            proc = Process(target=_worker_main)
            proc.start()
        """,
    })
    assert by_rule(result, "REP015") == []


# -- REP016: interprocedural determinism taint --------------------------------


def test_rep016_seed_dropped_before_rng_constructing_callee(tmp_path):
    result = scan_tree(tmp_path, {
        "proj/rngs.py": """
        import numpy as np

        def make_rng(seed=0):
            return np.random.default_rng(seed)
        """,
        "proj/run.py": """
        from proj.rngs import make_rng

        def run(seed):
            rng = make_rng()
            return rng, seed
        """,
    })
    findings = by_rule(result, "REP016")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "proj/run.py"
    assert "without passing a seed" in finding.message
    # the callee's defaulted seed parameter is anchored
    assert finding.related and finding.related[0][0] == "proj/rngs.py"


def test_rep016_negative_seed_forwarded(tmp_path):
    result = scan_tree(tmp_path, {
        "proj/rngs.py": """
        import numpy as np

        def make_rng(seed=0):
            return np.random.default_rng(seed)
        """,
        "proj/run.py": """
        from proj.rngs import make_rng

        def run(seed):
            return make_rng(seed)
        """,
    })
    assert by_rule(result, "REP016") == []


def test_rep016_dead_seed_parameter(tmp_path):
    result = scan_tree(tmp_path, {
        "proj/init.py": """
        import numpy as np

        def zeros(shape, rng=None):
            return np.zeros(shape)
        """,
    })
    findings = by_rule(result, "REP016")
    assert len(findings) == 1
    assert "never reads" in findings[0].message
    assert "'rng'" in findings[0].message


def test_rep016_negative_seed_used_and_underscore_exempt(tmp_path):
    result = scan_tree(tmp_path, {
        "proj/init.py": """
        import numpy as np

        def normal(shape, rng):
            return rng.standard_normal(shape)

        def zeros(shape, _rng=None):
            return np.zeros(shape)
        """,
    })
    assert by_rule(result, "REP016") == []


# -- inline pragmas on cross-file findings ------------------------------------


def test_cross_rule_pragma_suppresses_and_a_dead_one_is_reported(tmp_path):
    result = scan_tree(tmp_path, {
        "proj/init.py": """
        import numpy as np

        def zeros(shape, rng=None):  # repro: noqa[REP016]
            return np.zeros(shape)
        """,
        "proj/clean.py": """
        def fine():
            return 1  # repro: noqa[REP016]
        """,
    })
    assert by_rule(result, "REP016") == []
    (finding,) = by_rule(result, "REP000")
    assert finding.path == "proj/clean.py"
    assert "REP016" in finding.message
