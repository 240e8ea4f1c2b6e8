"""Phase 1 of the whole-program analyzer: per-file summaries.

The single-file rules see one AST at a time; the cross-file rules
(REP015 and REP016 in :mod:`repro.analysis.program`) need a repo-wide
view — which callables cross a process boundary and what they reach,
where seed parameters stop flowing. Shipping
whole ASTs to a linker would make incremental scans impossible, so phase
1 distills each file into a :class:`ModuleSummary`: a small, JSON-
serializable record of exactly the facts the linker consumes. The
summary is a pure function of the file's source text, which is what lets
the incremental cache key it by content hash.

Everything here is deliberately syntactic (no type inference): resource
classes are recognized by a fixed name set, seeds by parameter-name
convention. Where that over-approximates, the usual
escape hatches apply (inline ``# repro: noqa[...]``, baseline entries).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, fields

__all__ = [
    "SUMMARY_SCHEMA_VERSION",
    "CallSite",
    "DispatchSite",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "summarize_module",
    "module_name_for",
    "is_seed_name",
    "RESOURCE_CLASSES",
    "RESOURCE_PARAM_NAMES",
]

#: Bump when the summary shape or extraction semantics change: cached
#: summaries from older versions must not feed the linker.
SUMMARY_SCHEMA_VERSION = 2

#: Classes that hold parent-process-only state (open files, subscriber
#: hooks, pipes to children). An instance reachable from a callable that
#: is shipped to a worker process is a process-escape (REP015): the
#: child gets a pickled copy (silently diverging state) or an unpicklable
#: crash, never the parent's live object.
RESOURCE_CLASSES = frozenset({
    "TimeSeriesDB",
    "ModelStore",
    "AlarmStore",
    "DeadLetterStore",
    "MetricCollector",
    "TSDBExporter",
})

#: Parameter/attribute names conventionally bound to the above resources
#: (``self._store = store``); used when the constructor is out of sight.
RESOURCE_PARAM_NAMES = frozenset({
    "store", "model_store", "alarm_store", "tsdb", "database",
    "collector", "dead_letters", "dead_letter_store",
})

_RNG_CTORS = frozenset({"default_rng", "RandomState", "ensure_rng", "Generator", "SeedSequence"})

#: APIs that ship a callable to another process. ``target=`` keyword is
#: the Process spelling; positional-first is the executor/pool spelling.
_DISPATCH_METHODS = frozenset({"submit", "map", "apply_async", "apply", "starmap"})

_SEED_EXACT = frozenset({"seed", "rng", "random_state", "generator"})


def is_seed_name(name: str) -> bool:
    """Parameter-name convention for values that carry determinism."""
    lowered = name.lower()
    return (
        lowered in _SEED_EXACT
        or lowered.endswith("_seed")
        or lowered.endswith("_rng")
        or lowered.startswith("seed_")
    )


def module_name_for(path: str) -> str:
    """Dotted module name for a repo-relative posix path.

    ``src/repro/obs/metrics.py`` -> ``repro.obs.metrics``; paths outside a
    recognized source root fall back to the full path with separators
    dotted, which keeps fixture trees linkable (``proj/a.py`` -> ``proj.a``).
    """
    parts = path.split("/")
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


# ---------------------------------------------------------------------------
# Summary records
# ---------------------------------------------------------------------------


def _as_dict(obj) -> dict:
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, tuple):
            value = [v.to_dict() if hasattr(v, "to_dict") else list(v) if isinstance(v, tuple) else v for v in value]
        elif isinstance(value, dict):
            value = dict(value)
        out[f.name] = value
    return out


@dataclass(frozen=True)
class CallSite:
    """One call edge out of a function, with seed-argument bookkeeping."""

    callee: str
    line: int
    n_pos_args: int
    keywords: tuple  # tuple[str, ...]
    has_star: bool  # *args/**kwargs present: argument mapping is unknowable
    seed_kwargs: tuple  # keyword names that are seed-ish
    caller_seeds_passed: tuple  # caller seed params appearing in any argument

    def to_dict(self) -> dict:
        return {"callee": self.callee, "line": self.line,
                "n_pos_args": self.n_pos_args, "keywords": list(self.keywords),
                "has_star": self.has_star, "seed_kwargs": list(self.seed_kwargs),
                "caller_seeds_passed": list(self.caller_seeds_passed)}

    @classmethod
    def from_dict(cls, data: dict) -> "CallSite":
        return cls(data["callee"], data["line"], data["n_pos_args"],
                   tuple(data["keywords"]), data["has_star"],
                   tuple(data["seed_kwargs"]), tuple(data["caller_seeds_passed"]))


@dataclass(frozen=True)
class DispatchSite:
    """A callable handed to another process (``Process(target=...)``,
    ``ProcessPoolExecutor``, ``multiprocessing.Pool``)."""

    api: str  # "Process(target=)" | "submit" | "map" | ...
    callee: str
    function: str
    line: int

    def to_dict(self) -> dict:
        return {"api": self.api, "callee": self.callee,
                "function": self.function, "line": self.line}

    @classmethod
    def from_dict(cls, data: dict) -> "DispatchSite":
        return cls(data["api"], data["callee"], data["function"], data["line"])


@dataclass(frozen=True)
class FunctionSummary:
    """What the linker knows about one function, method, or lambda."""

    qualname: str  # "f", "C.m", "f.<locals>.g", "f.<locals>.<lambda:12>"
    cls: str  # enclosing class name ("" for free functions)
    line: int
    params: tuple
    defaulted_params: tuple  # params carrying a default value
    seed_params: tuple
    seed_params_used: tuple  # seed params that are read somewhere in the body
    constructs_rng: bool  # body calls default_rng/ensure_rng/RandomState/...
    reads: tuple  # tuple[tuple[name, line], ...] — non-local name reads
    self_attr_reads: tuple  # tuple[tuple[attr, line], ...]
    calls: tuple  # tuple[CallSite, ...]
    local_ctors: dict  # local name -> constructor last-name ("ThreadPoolExecutor")
    is_stub: bool  # body is pass/.../docstring/raise only

    def to_dict(self) -> dict:
        data = _as_dict(self)
        data["calls"] = [c.to_dict() for c in self.calls]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionSummary":
        return cls(
            qualname=data["qualname"], cls=data["cls"], line=data["line"],
            params=tuple(data["params"]),
            defaulted_params=tuple(data["defaulted_params"]),
            seed_params=tuple(data["seed_params"]),
            seed_params_used=tuple(data["seed_params_used"]),
            constructs_rng=data["constructs_rng"],
            reads=tuple(tuple(r) for r in data["reads"]),
            self_attr_reads=tuple(tuple(r) for r in data["self_attr_reads"]),
            calls=tuple(CallSite.from_dict(c) for c in data["calls"]),
            local_ctors=dict(data["local_ctors"]),
            is_stub=data["is_stub"],
        )


@dataclass(frozen=True)
class ClassSummary:
    """Attribute model of one class: resources and constructed attributes."""

    name: str
    bases: tuple  # base names as written ("_Metric", "base.Module")
    line: int
    resource_attrs: dict  # attr -> kind ("ModelStore", "param:store", ...)
    ctor_attrs: dict  # attr -> constructor last-name (dispatch receivers)

    def to_dict(self) -> dict:
        return _as_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ClassSummary":
        return cls(
            name=data["name"], bases=tuple(data["bases"]), line=data["line"],
            resource_attrs=dict(data["resource_attrs"]),
            ctor_attrs=dict(data["ctor_attrs"]),
        )


@dataclass(frozen=True)
class ModuleSummary:
    """Everything phase 2 needs to know about one file."""

    path: str
    module: str
    import_map: dict  # local name -> absolute dotted target
    resource_globals: dict  # module-level name -> resource class name
    functions: tuple  # tuple[FunctionSummary, ...]
    classes: tuple  # tuple[ClassSummary, ...]
    dispatches: tuple  # tuple[DispatchSite, ...]

    def to_dict(self) -> dict:
        return {
            "path": self.path, "module": self.module,
            "import_map": dict(self.import_map),
            "resource_globals": dict(self.resource_globals),
            "functions": [f.to_dict() for f in self.functions],
            "classes": [c.to_dict() for c in self.classes],
            "dispatches": [d.to_dict() for d in self.dispatches],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleSummary":
        return cls(
            path=data["path"], module=data["module"],
            import_map=dict(data["import_map"]),
            resource_globals=dict(data["resource_globals"]),
            functions=tuple(FunctionSummary.from_dict(f) for f in data["functions"]),
            classes=tuple(ClassSummary.from_dict(c) for c in data["classes"]),
            dispatches=tuple(DispatchSite.from_dict(d) for d in data["dispatches"]),
        )


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _dotted(node: ast.expr) -> str | None:
    """``self.pool.map`` -> ``"self.pool.map"``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _ctor_name(value: ast.expr) -> str | None:
    """Last component of a constructor-looking call's callee, if any."""
    if not isinstance(value, ast.Call):
        return None
    chain = _dotted(value.func)
    if chain is None:
        return None
    return chain.split(".")[-1]


_STUB_NODES = (ast.Pass, ast.Raise)


def _is_stub(body: list[ast.stmt]) -> bool:
    real = [
        stmt for stmt in body
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
    ]
    return all(isinstance(stmt, _STUB_NODES) for stmt in real) if real else True


class _FunctionState:
    """Accumulators for the function currently being walked."""

    def __init__(self, qualname: str, cls: str, node) -> None:
        self.qualname = qualname
        self.cls = cls
        self.node = node
        self.reads: list[tuple[str, int]] = []
        self.self_attr_reads: list[tuple[str, int]] = []
        self.calls: list[CallSite] = []
        self.local_ctors: dict[str, str] = {}
        self.constructs_rng = False
        self.seed_reads: set[str] = set()
        if isinstance(node, ast.Lambda):
            self.params = tuple(a.arg for a in (
                *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs))
            self.defaulted: tuple[str, ...] = ()
            self.body = [ast.Expr(value=node.body)]
        else:
            args = node.args
            self.params = tuple(a.arg for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            ))
            positional = [*args.posonlyargs, *args.args]
            defaulted = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            defaulted += [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            self.defaulted = tuple(defaulted)
            self.body = node.body
        self.seed_params = tuple(p for p in self.params if is_seed_name(p))

    def finish(self, line: int) -> FunctionSummary:
        bound = set(self.params) | set(self.local_ctors)
        reads = tuple(sorted({(n, ln) for n, ln in self.reads if n not in bound},
                             key=lambda item: (item[1], item[0])))
        return FunctionSummary(
            qualname=self.qualname, cls=self.cls, line=line,
            params=self.params, defaulted_params=self.defaulted,
            seed_params=self.seed_params,
            seed_params_used=tuple(p for p in self.seed_params if p in self.seed_reads),
            constructs_rng=self.constructs_rng,
            reads=reads,
            self_attr_reads=tuple(sorted(set(self.self_attr_reads))[:64]),
            calls=tuple(self.calls),
            local_ctors=dict(self.local_ctors),
            is_stub=_is_stub(self.body),
        )


class _Extractor(ast.NodeVisitor):
    """One walk producing the :class:`ModuleSummary` of a parsed file."""

    def __init__(self, path: str, module: str) -> None:
        self.path = path
        self.module = module
        self.package = module.rsplit(".", 1)[0] if "." in module else ""
        self.import_map: dict[str, str] = {}
        self.resource_globals: dict[str, str] = {}
        self.functions: list[FunctionSummary] = []
        self.class_stack: list[dict] = []
        self.classes: list[ClassSummary] = []
        self.func_stack: list[_FunctionState] = []
        self.dispatches: list[DispatchSite] = []

    # -- helpers -----------------------------------------------------------
    @property
    def _cls(self) -> dict | None:
        return self.class_stack[-1] if self.class_stack else None

    @property
    def _fn(self) -> _FunctionState | None:
        return self.func_stack[-1] if self.func_stack else None

    def _qual(self, name: str) -> str:
        if self.func_stack:
            return f"{self.func_stack[-1].qualname}.<locals>.{name}"
        if self.class_stack:
            return f"{self.class_stack[-1]['name']}.{name}"
        return name

    # -- imports -----------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.import_map[local] = alias.name if alias.asname else alias.name.split(".")[0]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "__future__":
            return
        if node.level:
            # relative import: resolve against this module's package
            base_parts = self.module.split(".")
            base_parts = base_parts[: len(base_parts) - node.level]
            base = ".".join(base_parts)
            source = f"{base}.{node.module}" if node.module else base
        else:
            source = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.import_map[local] = f"{source}.{alias.name}" if source else alias.name

    # -- scopes ------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        state = {
            "name": node.name,
            "bases": tuple(b for b in (_dotted(base) for base in node.bases) if b),
            "line": node.lineno,
            "resource_attrs": {},
            "ctor_attrs": {},
        }
        self.class_stack.append(state)
        self.generic_visit(node)
        self.class_stack.pop()
        self.classes.append(ClassSummary(
            name=state["name"], bases=state["bases"], line=state["line"],
            resource_attrs=dict(state["resource_attrs"]),
            ctor_attrs=dict(state["ctor_attrs"]),
        ))

    def _enter_function(self, node, name: str) -> None:
        qualname = self._qual(name)
        cls = self.class_stack[-1]["name"] if self.class_stack and not self.func_stack else ""
        state = _FunctionState(qualname, cls, node)
        self.func_stack.append(state)
        self.generic_visit(node)
        self.func_stack.pop()
        self.functions.append(state.finish(node.lineno))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._enter_function(node, f"<lambda:{node.lineno}>")

    # -- assignments -------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        value_ctor = _ctor_name(node.value)
        for target in node.targets:
            dotted = _dotted(target)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if parts[0] == "self" and len(parts) == 2 and self._cls is not None:
                attr = parts[1]
                if value_ctor in RESOURCE_CLASSES:
                    self._cls["resource_attrs"][attr] = value_ctor
                elif (
                    isinstance(node.value, ast.Name)
                    and node.value.id in RESOURCE_PARAM_NAMES
                ):
                    self._cls["resource_attrs"][attr] = f"param:{node.value.id}"
                if value_ctor:
                    self._cls["ctor_attrs"][attr] = value_ctor
            elif len(parts) == 1:
                if self._fn is not None:
                    if value_ctor:
                        self._fn.local_ctors[parts[0]] = value_ctor
                elif not self.class_stack:
                    # module scope: resource singletons
                    if value_ctor in RESOURCE_CLASSES:
                        self.resource_globals[parts[0]] = value_ctor
        self.visit(node.value)
        for target in node.targets:
            self._visit_store_target(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            fake = ast.Assign(targets=[node.target], value=node.value)
            ast.copy_location(fake, node)
            self.visit_Assign(fake)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        self._visit_store_target(node.target)

    def _visit_store_target(self, target: ast.expr) -> None:
        # visit subscript chains inside store targets so reads feeding the
        # store (`self._cache[key] = v` reads `key`) register.
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_store_target(element)
        elif isinstance(target, ast.Subscript):
            self.visit(target.value)
            self.visit(target.slice)

    # -- reads -------------------------------------------------------------
    def visit_Name(self, node: ast.Name) -> None:
        fn = self._fn
        if fn is not None and isinstance(node.ctx, ast.Load):
            fn.reads.append((node.id, node.lineno))
            if node.id in fn.seed_params:
                fn.seed_reads.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = _dotted(node)
        if dotted is not None:
            parts = dotted.split(".")
            if parts[0] == "self" and len(parts) >= 2 and isinstance(node.ctx, ast.Load):
                if self._fn is not None:
                    self._fn.self_attr_reads.append((parts[1], node.lineno))
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        fn = self._fn
        callee = _dotted(node.func)
        if callee is not None:
            parts = callee.split(".")
            last = parts[-1]
            if fn is not None:
                if last in _RNG_CTORS:
                    fn.constructs_rng = True
                arg_names = self._argument_names(node)
                seed_kwargs = tuple(
                    kw.arg for kw in node.keywords
                    if kw.arg is not None and is_seed_name(kw.arg)
                )
                caller_seeds = tuple(
                    p for p in fn.seed_params if p in arg_names
                )
                # the callee target for linking: strip trailing call chains
                target = callee if len(parts) <= 3 else None
                if target is not None:
                    fn.calls.append(CallSite(
                        callee=target, line=node.lineno,
                        n_pos_args=len(node.args),
                        keywords=tuple(kw.arg for kw in node.keywords if kw.arg),
                        has_star=(
                            any(isinstance(a, ast.Starred) for a in node.args)
                            or any(kw.arg is None for kw in node.keywords)
                        ),
                        seed_kwargs=seed_kwargs,
                        caller_seeds_passed=caller_seeds,
                    ))
            self._maybe_dispatch(node, callee)
        self.generic_visit(node)

    @staticmethod
    def _argument_names(node: ast.Call) -> set[str]:
        names: set[str] = set()
        for arg in (*node.args, *(kw.value for kw in node.keywords)):
            for inner in ast.walk(arg):
                if isinstance(inner, ast.Name):
                    names.add(inner.id)
        return names

    def _maybe_dispatch(self, node: ast.Call, callee: str) -> None:
        parts = callee.split(".")
        last = parts[-1]
        function = self._fn.qualname if self._fn else "<module>"

        def callee_of(expr: ast.expr) -> str | None:
            if isinstance(expr, ast.Lambda):
                return f"<lambda:{expr.lineno}>"
            return _dotted(expr)

        # Process(target=fn) — multiprocessing or a context object
        if last == "Process":
            for kw in node.keywords:
                if kw.arg == "target":
                    target = callee_of(kw.value)
                    if target:
                        self.dispatches.append(DispatchSite(
                            api="Process(target=)", callee=target,
                            function=function, line=node.lineno))
            return
        if last in _DISPATCH_METHODS and len(parts) >= 2 and node.args:
            target = callee_of(node.args[0])
            if not target or not self._is_process_pool(".".join(parts[:-1])):
                return
            self.dispatches.append(DispatchSite(
                api=last, callee=target, function=function, line=node.lineno))

    def _is_process_pool(self, receiver: str) -> bool:
        """Was the dispatch receiver constructed as a process pool?"""
        parts = receiver.split(".")
        ctor: str | None = None
        if parts[0] == "self" and len(parts) == 2 and self._cls is not None:
            ctor = self._cls["ctor_attrs"].get(parts[1])
        elif len(parts) == 1 and self._fn is not None:
            ctor = self._fn.local_ctors.get(parts[0])
        return ctor in ("ProcessPoolExecutor", "Pool")


def summarize_module(tree: ast.Module, path: str, module: str | None = None) -> ModuleSummary:
    """Extract the phase-1 summary of one parsed file."""
    extractor = _Extractor(path, module if module is not None else module_name_for(path))
    extractor.visit(tree)
    return ModuleSummary(
        path=extractor.path,
        module=extractor.module,
        import_map=extractor.import_map,
        resource_globals=extractor.resource_globals,
        functions=tuple(extractor.functions),
        classes=tuple(extractor.classes),
        dispatches=tuple(extractor.dispatches),
    )
