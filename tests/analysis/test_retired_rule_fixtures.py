"""Fixtures of the retired cross-file rules, rescanned by the per-file rules.

REP015 followed a callable shipped to a worker process down its call
graph to a parent-side store. Its fixtures all start the worker with a
raw ``multiprocessing.Process``, which REP011 flags in any file but the
serve supervisor, so the escape cannot be written anywhere else. REP016's
fixtures have no per-file counterpart; DESIGN §15 records why their bug
class is covered without them. A pragma that still names a retired rule
silences nothing, so REP000 reports it.
"""

import textwrap

from repro.analysis import UNUSED_SUPPRESSION_ID, Analyzer, default_registry

BOSS = "src/repro/workflow/boss.py"
SUPERVISOR = "src/repro/serve/_internal/supervisor.py"


def scan(source: str, path: str):
    return Analyzer(default_registry()).analyze_source(textwrap.dedent(source), path)


CLOSURE_CAPTURING_STORE = """
    from multiprocessing import Process
    from proj.stores import ModelStore

    def start():
        store = ModelStore()

        def worker():
            return store.get("model")

        proc = Process(target=worker)
        proc.start()
        return proc
"""

RESOURCE_PARAMETER_CAPTURED = """
    from multiprocessing import Process

    def start(store):
        def worker():
            return store.get("model")

        proc = Process(target=worker)
        proc.start()
"""

WORKER_RECEIVES_VALUES = """
    from multiprocessing import Process

    def _worker_main(blob, conn):
        model = bytes(blob)
        conn.send(len(model))

    def start(blob, conn):
        proc = Process(target=_worker_main)
        proc.start()
"""


def test_supervisor_shaped_closure_capturing_store_is_rep011_outside_supervisor():
    findings = scan(CLOSURE_CAPTURING_STORE, BOSS)
    assert [(f.rule, f.line) for f in findings] == [("REP011", 2)]
    assert "multiprocessing.Process" in findings[0].message


def test_resource_parameter_captured_by_worker_is_rep011_outside_supervisor():
    findings = scan(RESOURCE_PARAMETER_CAPTURED, BOSS)
    assert [(f.rule, f.line) for f in findings] == [("REP011", 2)]


def test_worker_receiving_values_is_silent_only_in_the_supervisor():
    assert scan(WORKER_RECEIVES_VALUES, SUPERVISOR) == []
    assert [f.rule for f in scan(WORKER_RECEIVES_VALUES, BOSS)] == ["REP011"]


def test_pragma_naming_a_retired_rule_is_reported_unused():
    findings = scan(
        """
        import numpy as np

        def zeros(shape, rng=None):  # repro: noqa[REP016]
            return np.zeros(shape)
        """,
        "src/repro/nn/init.py",
    )
    assert [(f.rule, f.line) for f in findings] == [(UNUSED_SUPPRESSION_ID, 4)]
    assert "REP016" in findings[0].message
