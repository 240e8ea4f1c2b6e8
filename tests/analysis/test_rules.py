"""Per-rule positive/negative snippets for the REP001-REP012 catalog.

Each rule gets at least one snippet it must flag and one it must not.
Snippets are scanned under fake repo-relative paths so the package/test
scoping (`applies`) is exercised exactly as it is in a real scan.
"""

import textwrap

from repro.analysis import Analyzer, default_registry

WORKFLOW = "src/repro/workflow/mod.py"
RESILIENCE = "src/repro/resilience/mod.py"
NN = "src/repro/nn/mod.py"
TESTS = "tests/test_mod.py"


def scan(source: str, path: str = WORKFLOW):
    analyzer = Analyzer(default_registry())
    return analyzer.analyze_source(textwrap.dedent(source), path)


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


# -- REP001: unseeded RNG ---------------------------------------------------

def test_rep001_flags_unseeded_default_rng():
    findings = scan(
        """
        import numpy as np

        def build():
            return np.random.default_rng()
        """,
        path=NN,
    )
    assert rules_of(findings) == {"REP001"}


def test_rep001_flags_default_rng_none_and_randomstate():
    findings = scan(
        """
        import numpy as np

        def build():
            a = np.random.default_rng(None)
            b = np.random.RandomState()
            return a, b
        """,
        path=NN,
    )
    assert [f.rule for f in findings] == ["REP001", "REP001"]


def test_rep001_flags_legacy_global_state_api():
    findings = scan(
        """
        import numpy as np

        def noise(n):
            np.random.seed(0)
            return np.random.normal(size=n)
        """,
        path=NN,
    )
    assert [f.rule for f in findings] == ["REP001", "REP001"]


def test_rep001_allows_seeded_construction():
    findings = scan(
        """
        import numpy as np

        def build(seed):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(7)
            c = np.random.RandomState(seed)
            return a, b, c
        """,
        path=NN,
    )
    assert findings == []


def test_rep001_exempt_in_tests():
    findings = scan(
        """
        import numpy as np

        def helper():
            return np.random.default_rng()
        """,
        path=TESTS,
    )
    assert findings == []


# -- REP002: wall-clock reads ----------------------------------------------

def test_rep002_flags_wall_clock_in_sim_clock_package():
    findings = scan(
        """
        import time

        def stamp():
            return time.time(), time.perf_counter()
        """,
        path=WORKFLOW,
    )
    assert [f.rule for f in findings] == ["REP002", "REP002"]


def test_rep002_flags_datetime_now():
    findings = scan(
        """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """,
        path=RESILIENCE,
    )
    assert rules_of(findings) == {"REP002"}


def test_rep002_ignores_non_sim_clock_packages():
    source = """
        import time

        def stamp():
            return time.time()
        """
    assert scan(source, path=NN) == []
    assert scan(source, path="benchmarks/bench_mod.py") == []
    assert scan(source, path="tests/workflow/test_mod.py") == []


def test_rep002_ignores_simulated_clock_calls():
    findings = scan(
        """
        def stamp(clock):
            return clock.now()
        """,
        path=WORKFLOW,
    )
    assert findings == []


# -- REP003: unlocked shared-state augmented assignment ---------------------

def test_rep003_flags_unlocked_module_global_augassign():
    findings = scan(
        """
        COUNTER = 0

        def bump():
            global COUNTER
            COUNTER += 1
        """,
        path=WORKFLOW,
    )
    assert rules_of(findings) == {"REP003"}


def test_rep003_flags_container_reached_through_module_global():
    findings = scan(
        """
        TOTALS = {}

        def bump(key):
            TOTALS[key] += 1
        """,
        path=WORKFLOW,
    )
    assert rules_of(findings) == {"REP003"}


def test_rep003_allows_lock_protected_and_local_state():
    findings = scan(
        """
        import threading

        _LOCK = threading.Lock()
        COUNTER = 0

        def bump():
            global COUNTER
            with _LOCK:
                COUNTER += 1

        def local_only():
            count = 0
            count += 1
            return count

        class Leaf:
            def inc(self):
                self._value += 1
        """,
        path=WORKFLOW,
    )
    assert findings == []


def test_rep003_ignores_module_level_augassign():
    # module bodies execute once, single-threaded, at import
    findings = scan(
        """
        TOTAL = 0
        TOTAL += 1
        """,
        path=WORKFLOW,
    )
    assert findings == []


# -- REP004: aliased cache returns ------------------------------------------

def test_rep004_flags_getter_returning_instance_attribute():
    findings = scan(
        """
        import numpy as np

        class RowCache:
            def get_rows(self):
                return self._rows

            def lookup(self, key):
                return self._cache[key]
        """,
        path=NN,
    )
    assert [f.rule for f in findings] == ["REP004", "REP004"]


def test_rep004_allows_copies_and_non_getters():
    findings = scan(
        """
        import numpy as np

        class RowCache:
            def get_rows(self):
                return self._rows.copy()

            def insert(self, key):
                return self._cache[key]
        """,
        path=NN,
    )
    assert findings == []


def test_rep004_out_of_scope_without_numpy():
    # dict-returning getters in numpy-free modules are not aliasing bugs
    findings = scan(
        """
        class Registry:
            def get_all(self):
                return self._records
        """,
        path=WORKFLOW,
    )
    assert findings == []


# -- REP005: bare lock.acquire() --------------------------------------------

def test_rep005_flags_bare_acquire():
    findings = scan(
        """
        def critical(lock):
            lock.acquire()
            try:
                pass
            finally:
                lock.release()
        """,
        path=NN,
    )
    assert rules_of(findings) == {"REP005"}


def test_rep005_allows_with_statement():
    findings = scan(
        """
        def critical(lock):
            with lock:
                pass
        """,
        path=NN,
    )
    assert findings == []


# -- REP006: float equality --------------------------------------------------

def test_rep006_flags_float_literal_equality():
    findings = scan(
        """
        def check(x, a, b):
            return x == 0.5 or a != b / 2
        """,
        path=NN,
    )
    assert [f.rule for f in findings] == ["REP006", "REP006"]


def test_rep006_flags_float_cast_equality():
    findings = scan(
        """
        def check(x, y):
            return x == float(y)
        """,
        path=NN,
    )
    assert rules_of(findings) == {"REP006"}


def test_rep006_allows_sentinels_and_ordering():
    findings = scan(
        """
        def check(x, y):
            if x == 0.0 or y == float("inf"):
                return True
            return x < 0.5 and y <= 1.5
        """,
        path=NN,
    )
    assert findings == []


# -- REP007: swallowed broad exceptions --------------------------------------

def test_rep007_flags_silent_broad_handler():
    findings = scan(
        """
        def guard(step):
            try:
                step()
            except Exception:
                pass
        """,
        path=RESILIENCE,
    )
    assert rules_of(findings) == {"REP007"}


def test_rep007_flags_bare_except():
    findings = scan(
        """
        def guard(step):
            try:
                step()
            except:
                return None
        """,
        path=RESILIENCE,
    )
    assert rules_of(findings) == {"REP007"}


def test_rep007_allows_reraise_log_or_count():
    findings = scan(
        """
        def guard(step, failures, log):
            try:
                step()
            except Exception:
                failures.inc()
            try:
                step()
            except Exception as error:
                log.warning("step failed: %s", error)
            try:
                step()
            except Exception:
                raise
            try:
                step()
            except ValueError:
                pass
        """,
        path=RESILIENCE,
    )
    assert findings == []


def test_rep007_out_of_scope_outside_resilience_ladder():
    findings = scan(
        """
        def guard(step):
            try:
                step()
            except Exception:
                pass
        """,
        path=NN,
    )
    assert findings == []


# -- REP009: sequence-layer import boundary ---------------------------------

def test_rep009_flags_layer_class_imports_outside_nn():
    findings = scan(
        """
        from ..nn.gru import GRU
        from ..nn.lstm import LSTM
        from ..nn.attention import AdditiveAttention
        """,
        path="src/repro/core/mod.py",
    )
    assert [f.rule for f in findings] == ["REP009", "REP009", "REP009"]


def test_rep009_flags_names_via_package_import():
    findings = scan(
        """
        from repro.nn import GRUCell, LSTMCell
        """,
        path="src/repro/eval/mod.py",
    )
    assert [f.rule for f in findings] == ["REP009", "REP009"]


def test_rep009_flags_module_import():
    findings = scan(
        """
        import repro.nn.gru
        """,
        path="src/repro/core/mod.py",
    )
    assert rules_of(findings) == {"REP009"}


def test_rep009_allows_registry_entry_points():
    findings = scan(
        """
        from ..nn.encoders import create_encoder, resolve_encoder_name
        from ..nn.inference import compile_plan
        from ..nn.layers import Dense, Dropout
        """,
        path="src/repro/core/mod.py",
    )
    assert findings == []


def test_rep009_silent_inside_nn_tests_and_benchmarks():
    source = """
        from .gru import GRU
        from .attention import AdditiveAttention
        """
    assert scan(source, path=NN) == []
    source = """
        from repro.nn import GRU, AdditiveAttention
        """
    assert scan(source, path=TESTS) == []
    assert scan(source, path="benchmarks/bench_mod.py") == []


# -- REP010: serve._internal import boundary --------------------------------

def test_rep010_flags_internal_imports_outside_serve():
    findings = scan(
        """
        from repro.serve._internal.admission import AdmissionController
        from ..serve._internal.warm_pool import WarmModelPool
        import repro.serve._internal.batcher
        """,
        path=WORKFLOW,
    )
    assert [f.rule for f in findings] == ["REP010", "REP010", "REP010"]


def test_rep010_allows_public_serve_surface():
    findings = scan(
        """
        from repro.serve import Env2VecService, ServeClient
        from ..serve import PredictRequest
        import repro.serve
        """,
        path=WORKFLOW,
    )
    assert findings == []


def test_rep010_silent_inside_serve_tests_and_benchmarks():
    source = """
        from ._internal.admission import AdmissionController
        from repro.serve._internal.batcher import MicroBatcher
        """
    assert scan(source, path="src/repro/serve/mod.py") == []
    assert scan(source, path=TESTS) == []
    assert scan(source, path="benchmarks/bench_mod.py") == []


# -- REP011: process-management boundary -------------------------------------

def test_rep011_flags_process_calls_outside_supervisor():
    findings = scan(
        """
        import os, signal, multiprocessing

        def reap(pid):
            os.kill(pid, 9)
            signal.signal(signal.SIGTERM, lambda *a: None)
            multiprocessing.Process(target=print).start()
        """,
        path=WORKFLOW,
    )
    assert [f.rule for f in findings] == ["REP011", "REP011", "REP011"]


def test_rep011_flags_multiprocessing_primitive_imports():
    findings = scan(
        """
        from multiprocessing import Process, Pipe
        from multiprocessing.connection import Pipe
        """,
        path="src/repro/serve/service.py",
    )
    assert [f.rule for f in findings] == ["REP011", "REP011", "REP011"]


def test_rep011_flags_process_pools_but_not_thread_pools():
    findings = scan(
        """
        import concurrent.futures
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        def fan_out(items):
            with ThreadPoolExecutor(2) as threads:
                list(threads.map(len, items))
            with concurrent.futures.ProcessPoolExecutor(2) as pool:
                return list(pool.map(len, items))
        """,
        path=WORKFLOW,
    )
    assert [(f.rule, f.line) for f in findings] == [("REP011", 3), ("REP011", 8)]
    assert "only owner of processes" in findings[0].message


def test_rep011_allows_benign_os_and_signal_use():
    findings = scan(
        """
        import os
        from multiprocessing import cpu_count

        def where():
            return os.getpid(), os.path.join("a", "b"), cpu_count()
        """,
        path=WORKFLOW,
    )
    assert findings == []


def test_rep011_silent_in_supervisor_tests_and_benchmarks():
    source = """
        import multiprocessing
        import os

        def spawn(ctx):
            process = multiprocessing.Process(target=print)
            os.kill(process.pid, 9)
        """
    assert scan(source, path="src/repro/serve/_internal/supervisor.py") == []
    assert scan(source, path=TESTS) == []
    assert scan(source, path="benchmarks/bench_mod.py") == []


# -- REP012: sequence-runner hot-loop allocations -----------------------------

OPS = "src/repro/nn/ops.py"


def test_rep012_flags_allocating_ops_in_runner_loop():
    findings = scan(
        """
        import numpy as np

        def gru_sequence(xw, u, fused):
            h = xw[0]
            for t in range(xw.shape[0]):
                zr = np.hstack([h, h])
                hu = h @ u
                h = np.matmul(zr, fused)
            return h
        """,
        path=OPS,
    )
    assert [f.rule for f in findings] == ["REP012", "REP012", "REP012"]


def test_rep012_flags_lowp_runner_and_while_loops():
    findings = scan(
        """
        import numpy as np

        def _lstm_sequence_lowp(xw, u):
            t, h = 0, xw[0]
            while t < xw.shape[0]:
                scratch = np.zeros_like(h)
                t += 1
            return h
        """,
        path=OPS,
    )
    assert [f.rule for f in findings] == ["REP012"]


def test_rep012_flags_allocating_backward_loop():
    findings = scan(
        """
        import numpy as np

        def gru_sequence_backward(grad, z, d, ut, g):
            dh = grad
            for t in range(z.shape[0] - 1, -1, -1):
                d_z = dh * z[t]
                dh = d[t] @ ut + dh * z[t - 1]
                dh = dh + g[t - 1]
                dh += np.matmul(d[t], ut)
            return dh
        """,
        path=OPS,
    )
    assert [(f.rule, f.line) for f in findings] == [
        ("REP012", 7), ("REP012", 8), ("REP012", 8), ("REP012", 9), ("REP012", 10),
    ]
    assert "per-step slice" in findings[0].message


def test_rep012_allows_out_matmul_and_hoisted_buffers():
    findings = scan(
        """
        import numpy as np

        def gru_sequence(xw, u, fused):
            hu = np.empty_like(xw[0])
            h = xw[0].copy()
            for t in range(xw.shape[0]):
                np.matmul(h, u, hu)
                np.matmul(h, u, out=hu)
                np.add(hu, xw[t], out=h)
                np.multiply(h, xw[t - 1], out=hu)
                h *= xw[t]
            return h
        """,
        path=OPS,
    )
    assert findings == []


def test_rep012_silent_outside_runner_loops_and_ops_py():
    outside_loop = """
        import numpy as np

        def gru_sequence(xw, u):
            flat = np.hstack([xw[0], xw[1]])
            return flat @ u
        """
    other_function = """
        import numpy as np

        def projection(xw, u):
            for t in range(xw.shape[0]):
                xw[t] = np.matmul(xw[t], u)
            return xw
        """
    assert scan(outside_loop, path=OPS) == []
    assert scan(other_function, path=OPS) == []
    # the same hot-loop pattern elsewhere is other rules' business
    in_loop = """
        import numpy as np

        def gru_sequence(xw, u):
            for t in range(xw.shape[0]):
                xw[t] = xw[t] @ u
            return xw
        """
    assert scan(in_loop, path=NN) == []
