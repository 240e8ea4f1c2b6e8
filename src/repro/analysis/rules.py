"""The project rule catalog: nine checks distilled from real bugs.

Every rule here encodes an invariant this repo has already paid for once:

- REP001 — the Trainer/chaos determinism audits (unseeded RNG breaks
  byte-identical campaign replays);
- REP002 — the sim-clock discipline that keeps scrapes, checkpoints and
  model metadata reproducible (wall-clock reads leaked into model-store
  and alarm timestamps);
- REP004 — the ``EmbeddingRowCache`` aliasing bug (a cached row handed
  out writable corrupted every later prediction);
- REP006 — ``==`` on floats (byte-identical guarantees compare exact
  values only where the code path is exactly reproducible);
- REP007 — swallowed exceptions in the resilience ladder (a silent
  ``except Exception: pass`` hides the faults chaos testing injects);
- REP009 — the SequenceEncoder boundary (modules outside ``repro.nn``
  reaching for GRU/LSTM/AdditiveAttention directly bypass the encoder
  registry, its compile dispatch, and its serialization schema);
- REP010 — the serve boundary (``repro.serve._internal`` holds the
  admission/batcher/warm-pool machinery; outside imports would freeze a
  surface that is deliberately free to change);
- REP011 — the process-and-thread boundary (``os.kill``/``signal``
  handlers/raw ``multiprocessing.Process`` wiring and
  ``ProcessPoolExecutor`` belong only to ``serve._internal.supervisor``,
  the one owner of worker processes, whose epoch bookkeeping and restart
  guarantees they would otherwise bypass; so do ``threading`` and every
  other way to run code on a second thread, since every process runs
  its code on one thread and nothing outside the supervisor locks);
- REP012 — the PR 9 batch-inference regression (per-timestep
  ``np.hstack`` and bare ``@`` matmuls inside the fused GRU/LSTM
  timestep loops allocated fresh arrays every step, capping batch-256
  speedup at 1.1×; sequence-kernel hot loops, forward and backward, must
  write into preallocated buffers via ``out=`` or in-place operators).

Rules are deliberately syntactic: no type inference, no cross-file
analysis. Where syntax alone over-approximates, the escape hatch is an
inline ``# repro: noqa[REP00x]``, itself checked for staleness.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from .engine import FileContext, Rule, RuleRegistry

__all__ = ["default_registry", "ALL_RULES"]

#: Packages under src/repro/ that run on the simulated campaign clock.
_SIM_CLOCK_PACKAGES = frozenset({"core", "workflow", "resilience"})

#: numpy legacy global-state API — any call through these mutates or reads
#: hidden process-wide RNG state.
_NP_GLOBAL_STATE_FNS = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "set_state", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald", "weibull",
    "zipf",
})

_WALL_CLOCK_ATTRS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}


def _attr_chain(node: ast.expr) -> list[str]:
    """``np.random.default_rng`` -> ``["np", "random", "default_rng"]``
    (empty when the expression is not a plain dotted name)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _root_name(node: ast.expr) -> str | None:
    """The base Name of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class UnseededRNGRule(Rule):
    """REP001: every RNG must be constructed from an explicit seed."""

    id = "REP001"
    title = "unseeded RNG construction"
    node_types = (ast.Call,)

    def applies(self, ctx: FileContext) -> bool:
        return not ctx.is_test

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[tuple[int, str]]:
        chain = _attr_chain(node.func)
        if not chain:
            return
        # np.random.default_rng() / numpy.random.default_rng() / default_rng()
        if chain[-1] == "default_rng" and (
            len(chain) == 1 or chain[:-1] in (["np", "random"], ["numpy", "random"])
        ):
            if not node.args and not node.keywords:
                yield (
                    node.lineno,
                    "np.random.default_rng() without a seed — pass an explicit "
                    "seed (or an already-seeded Generator) so runs replay",
                )
            elif node.args and isinstance(node.args[0], ast.Constant) and (
                node.args[0].value is None
            ):
                yield (node.lineno, "np.random.default_rng(None) is unseeded")
            return
        # np.random.RandomState() with no seed
        if chain[-1] == "RandomState" and chain[:-1] in (["np", "random"], ["numpy", "random"]):
            if not node.args and not node.keywords:
                yield (node.lineno, "np.random.RandomState() without a seed")
            return
        # legacy module-level API: np.random.rand / shuffle / seed / ...
        if (
            len(chain) == 3
            and chain[0] in ("np", "numpy")
            and chain[1] == "random"
            and chain[2] in _NP_GLOBAL_STATE_FNS
        ):
            yield (
                node.lineno,
                f"np.random.{chain[2]}() uses hidden global RNG state — "
                "construct a seeded np.random.default_rng(seed) instead",
            )


class WallClockRule(Rule):
    """REP002: sim-clock packages must not read the wall clock."""

    id = "REP002"
    title = "wall-clock read in sim-clock code"
    node_types = (ast.Call,)

    def applies(self, ctx: FileContext) -> bool:
        return (
            ctx.package in _SIM_CLOCK_PACKAGES
            and not ctx.is_test
            and not ctx.is_benchmark
        )

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[tuple[int, str]]:
        chain = _attr_chain(node.func)
        if len(chain) != 2:
            return
        module, attr = chain
        if attr in _WALL_CLOCK_ATTRS.get(module, ()):
            yield (
                node.lineno,
                f"{module}.{attr}() reads the wall clock in sim-clock code — "
                "plumb the simulated clock (or an obs timing shim such as "
                "Histogram.time()) instead",
            )


class AliasedCacheReturnRule(Rule):
    """REP004: getters must not hand out writable cached arrays."""

    id = "REP004"
    title = "cached array returned without copy/freeze"
    node_types = (ast.Return, ast.Yield)
    _PREFIXES = ("get", "lookup", "rows")

    def applies(self, ctx: FileContext) -> bool:
        # only meaningful where numpy arrays can flow; keeps dict-returning
        # getters in numpy-free modules out of scope by construction
        return ctx.imports_numpy and not ctx.is_test

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[tuple[int, str]]:
        value = node.value
        if value is None:
            return
        func = ctx.enclosing_function()
        if func is None or not func.name.lower().startswith(self._PREFIXES):
            return
        candidate = value
        if isinstance(candidate, ast.Subscript):
            candidate = candidate.value
        if not isinstance(candidate, ast.Attribute):
            return
        root = _root_name(candidate)
        if root not in ("self", "cls"):
            return
        yield (
            node.lineno,
            f"{func.name}() returns instance-attribute state by reference — "
            "return a .copy(), freeze it (setflags(write=False)), or "
            "suppress with a justification (the EmbeddingRowCache aliasing bug)",
        )


def _is_inf_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
        and node.args[0].value.lower().lstrip("+-") in ("inf", "infinity")
    )


def _float_operand(node: ast.expr) -> str | None:
    """Why this operand is float-typed, or None when it is not provably so.

    Exact sentinels are deliberately *not* float-typed for this rule:
    ``0.0`` and ``float('inf')`` compare exactly by construction, and the
    codebase uses them as in-band markers.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        if node.value == 0.0 or node.value in (float("inf"), float("-inf")):
            return None
        return f"float literal {node.value!r}"
    if isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant):
        value = node.operand.value
        if isinstance(value, float) and value != 0.0 and value != float("inf"):
            return f"float literal -{value!r}"
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return "true-division result"
    if _is_inf_call(node):
        return None
    if isinstance(node, ast.Call):
        chain = _attr_chain(node.func)
        if chain == ["float"] or chain[-1:] == ["float64"] or chain[-1:] == ["float32"]:
            return f"{'.'.join(chain)}() result"
    return None


class FloatEqualityRule(Rule):
    """REP006: ``==``/``!=`` on float-typed expressions."""

    id = "REP006"
    title = "float equality comparison"
    node_types = (ast.Compare,)

    def visit(self, node: ast.Compare, ctx: FileContext) -> Iterator[tuple[int, str]]:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        for operand in (node.left, *node.comparators):
            reason = _float_operand(operand)
            if reason is not None:
                yield (
                    node.lineno,
                    f"float equality against {reason} — compare with a "
                    "tolerance (math.isclose / np.isclose), or suppress "
                    "where exact determinism is the point",
                )
                return


_LOGGING_ATTRS = frozenset({
    "inc", "observe", "set", "dec",  # obs metric mutators
    "debug", "info", "warning", "error", "exception", "critical", "log",
    "record", "quarantine", "push",
})


class SwallowedExceptionRule(Rule):
    """REP007: broad handlers must re-raise, log, or count."""

    id = "REP007"
    title = "broad exception handler swallows silently"
    node_types = (ast.ExceptHandler,)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.package in ("workflow", "resilience") and not ctx.is_test

    @staticmethod
    def _is_broad(type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True  # bare except
        names = [type_node] if not isinstance(type_node, ast.Tuple) else type_node.elts
        for name in names:
            if isinstance(name, ast.Name) and name.id in ("Exception", "BaseException"):
                return True
        return False

    def visit(self, node: ast.ExceptHandler, ctx: FileContext) -> Iterator[tuple[int, str]]:
        if not self._is_broad(node.type):
            return
        for stmt in node.body:
            for inner in ast.walk(stmt):
                if isinstance(inner, ast.Raise):
                    return
                if isinstance(inner, ast.Call):
                    func = inner.func
                    if isinstance(func, ast.Attribute) and func.attr in _LOGGING_ATTRS:
                        return
        yield (
            node.lineno,
            "broad except swallows the error without re-raising, logging, or "
            "counting it — the resilience ladder degrades loudly or not at all",
        )


#: Layer names only repro.nn may touch: everything else goes through the
#: SequenceEncoder registry (create_encoder / compile_plan).
_ENCODER_INTERNAL_NAMES = frozenset(
    {"GRU", "GRUCell", "LSTM", "LSTMCell", "AdditiveAttention"}
)
_ENCODER_INTERNAL_MODULES = frozenset({"gru", "lstm", "attention"})


class EncoderImportBoundaryRule(Rule):
    """REP009: only ``repro.nn`` may import raw recurrent/attention layers."""

    id = "REP009"
    title = "raw sequence-layer import outside repro.nn"
    node_types = (ast.Import, ast.ImportFrom)

    def applies(self, ctx: FileContext) -> bool:
        return (
            ctx.package is not None
            and ctx.package != "nn"
            and not ctx.is_test
            and not ctx.is_benchmark
        )

    @staticmethod
    def _module_tail(module: str | None) -> str | None:
        if not module:
            return None
        parts = module.split(".")
        # matches repro.nn.gru, nn.gru, ..nn.gru (relative: module == "nn.gru")
        if len(parts) >= 2 and parts[-2] == "nn":
            return parts[-1]
        return None

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[tuple[int, str]]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                tail = self._module_tail(alias.name)
                if tail in _ENCODER_INTERNAL_MODULES:
                    yield (
                        node.lineno,
                        f"import of nn.{tail} outside repro.nn — go through the "
                        "SequenceEncoder registry (repro.nn.create_encoder / "
                        "compile_plan) so new encoders need no call-site edits",
                    )
            return
        tail = self._module_tail(node.module)
        from_encoder_module = tail in _ENCODER_INTERNAL_MODULES
        for alias in node.names:
            if alias.name in _ENCODER_INTERNAL_NAMES or (
                from_encoder_module and alias.name != "*"
            ):
                yield (
                    node.lineno,
                    f"import of {alias.name!r} outside repro.nn — go through the "
                    "SequenceEncoder registry (repro.nn.create_encoder / "
                    "compile_plan) so new encoders need no call-site edits",
                )


class ServeInternalBoundaryRule(Rule):
    """REP010: only ``repro.serve`` may import ``serve._internal``."""

    id = "REP010"
    title = "serve._internal import outside repro.serve"
    node_types = (ast.Import, ast.ImportFrom)

    def applies(self, ctx: FileContext) -> bool:
        return (
            ctx.package is not None
            and ctx.package != "serve"
            and not ctx.is_test
            and not ctx.is_benchmark
        )

    @staticmethod
    def _is_internal(module: str | None) -> bool:
        if not module:
            return False
        parts = module.split(".")
        # matches repro.serve._internal[.x], serve._internal[.x] — and the
        # relative spellings, whose module text starts at "serve" too.
        for i, part in enumerate(parts):
            if part == "_internal" and i >= 1 and parts[i - 1] == "serve":
                return True
        return False

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[tuple[int, str]]:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = [node.module]
        for module in modules:
            if self._is_internal(module):
                yield (
                    node.lineno,
                    "import of serve._internal outside repro.serve — the "
                    "admission/batcher/warm-pool machinery is private; go "
                    "through the repro.serve public surface (Env2VecService "
                    "/ ServeClient) so its shape can change freely",
                )


#: os/signal process-management calls that belong only in the supervisor.
_PROCESS_OS_CALLS = frozenset(
    {"kill", "fork", "_exit", "waitpid", "killpg", "abort"}
)
_PROCESS_SIGNAL_CALLS = frozenset(
    {"signal", "alarm", "setitimer", "pthread_kill", "raise_signal"}
)
#: multiprocessing primitives that spawn or wire up raw processes.
_PROCESS_MP_NAMES = frozenset({"Process", "Pipe", "get_context"})
#: Process pools: worker processes with no heartbeat and no restart.
_PROCESS_POOL_NAMES = frozenset({"ProcessPoolExecutor"})
#: Modules that start threads, and the names that run a callable on a
#: worker thread (``concurrent.futures``, ``asyncio.to_thread``, an event
#: loop's ``run_in_executor``).
_THREAD_MODULES = frozenset({"threading", "_thread"})
_THREAD_NAMES = frozenset({"ThreadPoolExecutor", "to_thread", "run_in_executor"})


class ProcessManagementBoundaryRule(Rule):
    """REP011: process and thread management live only in the serve supervisor.

    Killing processes, installing signal handlers, hand-rolled
    ``multiprocessing.Process``/``Pipe`` wiring, and process pools are
    exactly the APIs that break determinism and liveness when scattered:
    an ``os.kill`` outside the supervisor bypasses epoch bookkeeping
    (stale-message storms), a stray signal handler races the heartbeat
    loop, and an unsupervised ``Process`` or ``ProcessPoolExecutor`` is a
    worker nobody restarts. Threads are held to the same file: every
    process runs its code on one thread, so metrics, caches, scratch and
    the grad mode are plain state with no locks, and a second thread
    (``threading``, ``_thread``, ``ThreadPoolExecutor``,
    ``asyncio.to_thread``, ``run_in_executor``) would race all of them.
    One file owns them: ``serve/_internal/supervisor.py``, whose only
    thread reaps a killed worker.
    """

    id = "REP011"
    title = "process or thread management outside the serve supervisor"
    node_types = (ast.Call, ast.Import, ast.ImportFrom)

    _SANCTIONED_SUFFIX = ("serve", "_internal", "supervisor.py")
    _THREAD_MESSAGE = (
        "outside serve._internal.supervisor — every process runs its code "
        "on one thread, so nothing else locks its state; a second thread "
        "would race metrics, caches and scratch"
    )

    def applies(self, ctx: FileContext) -> bool:
        if ctx.is_test or ctx.is_benchmark:
            return False
        return Path(ctx.path).parts[-3:] != self._SANCTIONED_SUFFIX

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[tuple[int, str]]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _THREAD_MODULES:
                    yield (node.lineno, f"import of {alias.name} {self._THREAD_MESSAGE}")
            return
        if isinstance(node, ast.ImportFrom):
            root = node.module.split(".")[0] if node.module else None
            for alias in node.names:
                if root in _THREAD_MODULES or alias.name in _THREAD_NAMES:
                    yield (
                        node.lineno,
                        f"import of {node.module}.{alias.name} {self._THREAD_MESSAGE}",
                    )
                elif (root == "multiprocessing" and alias.name in _PROCESS_MP_NAMES) or (
                    root == "concurrent" and alias.name in _PROCESS_POOL_NAMES
                ):
                    yield (
                        node.lineno,
                        f"import of {node.module}.{alias.name} outside "
                        "serve._internal.supervisor — worker processes must be "
                        "supervised (heartbeats, restart, re-enqueue); the serve "
                        "supervisor is the only owner of processes",
                    )
            return
        if isinstance(node.func, ast.Attribute) and node.func.attr in _THREAD_NAMES:
            # matched on the attribute alone, since a receiver such as
            # `asyncio.get_running_loop()` has no plain dotted chain
            yield (node.lineno, f"{node.func.attr}() {self._THREAD_MESSAGE}")
            return
        chain = _attr_chain(node.func)
        if len(chain) < 2:
            return
        root, attr = chain[0], chain[-1]
        if (
            (root == "os" and attr in _PROCESS_OS_CALLS)
            or (root == "signal" and attr in _PROCESS_SIGNAL_CALLS)
            or (root == "multiprocessing" and attr in _PROCESS_MP_NAMES)
            or attr in _PROCESS_POOL_NAMES
        ):
            yield (
                node.lineno,
                f"{'.'.join(chain)}() outside serve._internal.supervisor — "
                "process lifecycle (kill/fork/signal/Pipe/process pools) is "
                "the supervisor's job; scattering it breaks epoch bookkeeping "
                "and restart guarantees",
            )


#: numpy calls that allocate a fresh array per invocation — fatal inside
#: a per-timestep loop, where they turn O(hidden²) math into allocator
#: churn (the exact shape of the PR 9 batch-256 regression).
_HOT_LOOP_ALLOCATORS = frozenset({
    "hstack", "vstack", "concatenate", "stack", "column_stack",
    "empty", "zeros", "ones", "empty_like", "zeros_like", "ones_like",
})


class SequenceRunnerAllocationRule(Rule):
    """REP012: sequence-runner hot loops must be allocation-free.

    The GRU/LSTM kernels in ``nn/ops.py`` execute their timestep loops
    once per sequence step, forward (compiled runners and training) and
    backward (``*_sequence_backward``); at batch 256 every fresh array
    allocated there (``np.hstack`` of gate blocks, a bare ``@`` matmul
    materializing its result, ``np.zeros`` scratch, ``dh * z[t]``
    temporaries) costs more than the arithmetic it feeds and throttled
    the compiled engine to 1.1× autograd. The discipline the fix
    established: hoist buffers out of the loop and write into them with
    ``np.matmul(..., out=)``, ``np.multiply(..., out=)`` and in-place
    operators. This rule pins that discipline syntactically for every
    function whose name marks it as a sequence kernel (``*_sequence*``).
    Arithmetic is flagged when an operand is subscripted — a per-step
    slice such as ``z[t]`` is an array, while index math such as
    ``t - 1`` stays legal.
    """

    id = "REP012"
    title = "allocating op in a sequence-runner hot loop"
    node_types = (ast.Call, ast.BinOp)

    _TARGET_SUFFIX = ("nn", "ops.py")

    def applies(self, ctx: FileContext) -> bool:
        return Path(ctx.path).parts[-2:] == self._TARGET_SUFFIX

    @staticmethod
    def _in_runner_loop(ctx: FileContext, node: ast.AST) -> bool:
        """True inside a for/while loop of a ``*_sequence*`` function.

        A ``for`` loop's header (``iter`` and ``target``) runs once, not
        per step, so it does not count.
        """
        function = ctx.enclosing_function()
        if function is None or "_sequence" not in function.name:
            return False
        path = [*ctx.stack, node]
        inside_function = False
        for ancestor, child in zip(path, path[1:]):
            if ancestor is function:
                inside_function = True
            elif inside_function and isinstance(ancestor, ast.While):
                return True
            elif inside_function and isinstance(ancestor, ast.For):
                if child is not ancestor.iter and child is not ancestor.target:
                    return True
        return False

    _ARITHMETIC = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[tuple[int, str]]:
        if isinstance(node, ast.BinOp):
            if not self._in_runner_loop(ctx, node):
                return
            if isinstance(node.op, ast.MatMult):
                yield (
                    node.lineno,
                    "bare `@` matmul in a sequence-runner timestep loop — it "
                    "allocates its result every step; write into a hoisted "
                    "workspace buffer with np.matmul(..., out=)",
                )
            elif type(node.op) in self._ARITHMETIC and any(
                isinstance(side, ast.Subscript) for side in (node.left, node.right)
            ):
                symbol = self._ARITHMETIC[type(node.op)]
                yield (
                    node.lineno,
                    f"elementwise `{symbol}` on a per-step slice in a sequence "
                    "timestep loop — it allocates a temporary every step; "
                    "write into a hoisted buffer with the ufunc's out= or an "
                    "in-place operator",
                )
            return
        if not self._in_runner_loop(ctx, node):
            return
        chain = _attr_chain(node.func)
        if len(chain) != 2 or chain[0] not in ("np", "numpy"):
            return
        attr = chain[1]
        if attr in _HOT_LOOP_ALLOCATORS:
            yield (
                node.lineno,
                f"np.{attr}() in a sequence-runner timestep loop — it "
                "allocates a fresh array every timestep; hoist the buffer "
                "out of the loop (a workspace buffer) and fill it in place",
            )
        elif attr == "matmul" and len(node.args) < 3 and not any(
            keyword.arg == "out" for keyword in node.keywords
        ):
            yield (
                node.lineno,
                "np.matmul without out= in a sequence-runner timestep loop — "
                "the result array is reallocated every step; pass a "
                "preallocated workspace buffer via out=",
            )


ALL_RULES: tuple[type[Rule], ...] = (
    UnseededRNGRule,
    WallClockRule,
    AliasedCacheReturnRule,
    FloatEqualityRule,
    SwallowedExceptionRule,
    EncoderImportBoundaryRule,
    ServeInternalBoundaryRule,
    ProcessManagementBoundaryRule,
    SequenceRunnerAllocationRule,
)


def default_registry() -> RuleRegistry:
    """A fresh registry holding the full project rule catalog."""
    registry = RuleRegistry()
    for rule_cls in ALL_RULES:
        registry.register(rule_cls)
    return registry
