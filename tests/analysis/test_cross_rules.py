"""Cross-file rules REP013-REP016: positive/negative fixture pairs.

Each fixture is a real tree of files on disk (phase 2 only runs in
``analyze_paths``), scanned with the baseline disabled so assertions see
raw findings. The deadlock fixture spans three modules and the
process-escape fixture mimics the supervisor's dispatch shape
(``Process(target=...)`` with a closure over parent-side state).
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


# -- REP013: lock-discipline inference ---------------------------------------

GUARDED_WRITER = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}

        def put(self, key, value):
            with self._lock:
                self._items[key] = value
"""


def test_rep013_flags_bare_read_in_same_class(tmp_path):
    result = scan_tree(tmp_path, {
        "proj/store.py": GUARDED_WRITER + """

        def snapshot(self):
            return dict(self._items)
        """,
    })
    findings = by_rule(result, "REP013")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "proj/store.py"
    assert "_items" in finding.message
    assert "_lock" in finding.message
    # the guarded-write site rides along as a related anchor
    assert finding.related and finding.related[0][0] == "proj/store.py"


def test_rep013_flags_bare_access_in_subclass_across_files(tmp_path):
    result = scan_tree(tmp_path, {
        "proj/store.py": GUARDED_WRITER,
        "proj/fancy.py": """
        from proj.store import Store

        class FancyStore(Store):
            def peek(self, key):
                return self._items.get(key)
        """,
    })
    findings = by_rule(result, "REP013")
    assert len(findings) == 1
    assert findings[0].path == "proj/fancy.py"
    assert "_items" in findings[0].message


def test_rep013_negative_all_accesses_locked(tmp_path):
    result = scan_tree(tmp_path, {
        "proj/store.py": GUARDED_WRITER + """

        def snapshot(self):
            with self._lock:
                return dict(self._items)
        """,
    })
    assert by_rule(result, "REP013") == []


def test_rep013_init_and_lock_attrs_are_exempt(tmp_path):
    # __init__ construction and the lock attribute itself never count as
    # bare accesses, and noqa on the flagged line suppresses cleanly.
    result = scan_tree(tmp_path, {
        "proj/store.py": GUARDED_WRITER + """

        def snapshot(self):
            return dict(self._items)  # repro: noqa[REP013]
        """,
    })
    assert by_rule(result, "REP013") == []
    assert by_rule(result, "REP000") == []  # the pragma was used, not dead


def test_rep013_unused_cross_rule_pragma_is_reported(tmp_path):
    result = scan_tree(tmp_path, {
        "proj/clean.py": """
        def fine():
            return 1  # repro: noqa[REP013]
        """,
    })
    (finding,) = by_rule(result, "REP000")
    assert "REP013" in finding.message


# -- REP014: lock-ordering cycles --------------------------------------------

CYCLE_FILES = {
    "proj/a.py": """
    import threading
    from proj import b

    LOCK_A = threading.Lock()

    def fa():
        with LOCK_A:
            with b.LOCK_B:
                return 1
    """,
    "proj/b.py": """
    import threading
    from proj import c

    LOCK_B = threading.Lock()

    def fb():
        with LOCK_B:
            with c.LOCK_C:
                return 1
    """,
    "proj/c.py": """
    import threading
    from proj import a

    LOCK_C = threading.Lock()

    def fc():
        with LOCK_C:
            with a.LOCK_A:
                return 1
    """,
}


def test_rep014_detects_three_module_cycle_with_anchors_on_every_edge(tmp_path):
    result = scan_tree(tmp_path, CYCLE_FILES)
    findings = by_rule(result, "REP014")
    assert findings, "cycle across proj/a.py, proj/b.py, proj/c.py not detected"
    cycles = [f for f in findings if "cycle" in f.message]
    assert cycles
    finding = cycles[0]
    for lock in ("proj.a.LOCK_A", "proj.b.LOCK_B", "proj.c.LOCK_C"):
        assert lock in finding.message
    # every edge of the cycle is anchored: the finding's own location
    # plus related anchors must cover all three files with real lines
    anchored = {(finding.path, finding.line)} | {
        (path, line) for path, line, _ in finding.related
    }
    anchored_files = {path for path, _ in anchored}
    assert anchored_files == {"proj/a.py", "proj/b.py", "proj/c.py"}
    assert all(line > 0 for _, line in anchored)


def test_rep014_cycle_through_calls_made_under_a_lock(tmp_path):
    # the interprocedural half: fa holds LOCK_A while *calling* into b,
    # whose callee chain transitively acquires LOCK_A again
    result = scan_tree(tmp_path, {
        "proj/a.py": """
        import threading
        from proj import b

        LOCK_A = threading.Lock()

        def fa():
            with LOCK_A:
                b.fb()

        def fa2():
            with LOCK_A:
                return 1
        """,
        "proj/b.py": """
        import threading
        from proj import a

        LOCK_B = threading.Lock()

        def fb():
            with LOCK_B:
                a.fa2()
        """,
    })
    cycles = [f for f in by_rule(result, "REP014") if "cycle" in f.message]
    assert cycles
    finding = cycles[0]
    assert "proj.a.LOCK_A" in finding.message
    assert "proj.b.LOCK_B" in finding.message
    # call-site and callee-acquire anchors both present
    notes = " | ".join(note for _, _, note in finding.related)
    assert "called in" in notes or "called in" in finding.message or finding.related


def test_rep014_negative_consistent_lock_order(tmp_path):
    result = scan_tree(tmp_path, {
        "proj/a.py": """
        import threading
        from proj import b

        LOCK_A = threading.Lock()

        def fa():
            with LOCK_A:
                b.fb()
        """,
        "proj/b.py": """
        import threading

        LOCK_B = threading.Lock()

        def fb():
            with LOCK_B:
                return 1
        """,
    })
    assert by_rule(result, "REP014") == []


def test_rep014_self_deadlock_through_self_call(tmp_path):
    result = scan_tree(tmp_path, {
        "proj/cache.py": """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def get_or_build(self, key):
                with self._lock:
                    return self.build(key)

            def build(self, key):
                with self._lock:
                    self._data[key] = key
                    return key
        """,
    })
    findings = [f for f in by_rule(result, "REP014") if "re-acquired" in f.message]
    assert len(findings) == 1
    assert "_lock" in findings[0].message
    assert findings[0].related  # the inner acquire site is anchored


def test_rep014_negative_rlock_reentry_is_legal(tmp_path):
    result = scan_tree(tmp_path, {
        "proj/cache.py": """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.RLock()
                self._data = {}

            def get_or_build(self, key):
                with self._lock:
                    return self.build(key)

            def build(self, key):
                with self._lock:
                    self._data[key] = key
                    return key
        """,
    })
    assert [f for f in by_rule(result, "REP014") if "re-acquired" in f.message] == []


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
