"""Phase 2 of the whole-program analyzer: link summaries, run cross-file rules.

:class:`ProgramModel` stitches the per-file :class:`ModuleSummary`
records from :mod:`repro.analysis.summaries` into a repo-wide view — a
module index, a class-inheritance merge (union-find over base edges),
and a call graph resolved through each module's import map.

Two rules run over the linked model:

- **REP015** process-escape: a callable shipped to another process
  (``Process(target=...)``, ``ProcessPoolExecutor``, ``multiprocessing.Pool``)
  must not reach parent-only resources (stores, TSDB handles); the
  child would get a pickled divergent copy or an unpicklable crash.
- **REP016** determinism taint: a seed parameter that stops flowing —
  dropped before an RNG-constructing callee whose own seed then
  defaults, or accepted but never read — silently decouples a "seeded"
  call from the RNG it was supposed to determinize.

Cross-file findings carry ``related`` anchors (path, line, note) for
every hop of an escape path or seed definition; the engine fills their
snippets from the sources it already read, so they fingerprint and
baseline exactly like single-file findings.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .engine import Finding
from .summaries import (
    RESOURCE_CLASSES,
    RESOURCE_PARAM_NAMES,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
)

__all__ = [
    "CrossFileRule",
    "ProgramModel",
    "ProcessEscape",
    "DeterminismTaint",
    "ALL_CROSS_RULES",
    "default_cross_rules",
    "CROSS_RULE_IDS",
]

_ESCAPE_MAX_DEPTH = 5


class CrossFileRule:
    """Base class for whole-program rules: one :meth:`run` per scan.

    Unlike per-file :class:`~repro.analysis.engine.Rule` subclasses,
    cross-file rules never see an AST — only the linked
    :class:`ProgramModel`. They yield :class:`Finding` objects with an
    empty snippet; the engine fills snippets and applies inline
    ``# repro: noqa[...]`` suppressions afterwards.
    """

    id: str = "REP000"
    title: str = ""

    def run(self, program: "ProgramModel") -> Iterator[Finding]:
        return iter(())


class ProgramModel:
    """The linked whole-program view phase-2 rules query."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        #: (module, class name) -> ClassSummary
        self.classes: dict[tuple[str, str], ClassSummary] = {}
        #: (module, function qualname) -> FunctionSummary
        self.functions: dict[tuple[str, str], FunctionSummary] = {}
        for module in sorted(self.modules):
            summary = self.modules[module]
            for cls in summary.classes:
                self.classes[(module, cls.name)] = cls
            for fn in summary.functions:
                self.functions[(module, fn.qualname)] = fn
        self._family = self._link_families()
        self._call_cache: dict[tuple[str, str, str], tuple] = {}

    # -- inheritance merge -------------------------------------------------
    def _link_families(self) -> dict[tuple[str, str], frozenset]:
        """Union-find over base-class edges: classes sharing an
        inheritance chain share one method and attribute namespace."""
        parent: dict[tuple[str, str], tuple[str, str]] = {
            key: key for key in self.classes
        }

        def find(key):
            while parent[key] != key:
                parent[key] = parent[parent[key]]
                key = parent[key]
            return key

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for (module, name), cls in sorted(self.classes.items()):
            for base in cls.bases:
                resolved = self._resolve_class(module, base)
                if resolved is not None:
                    union((module, name), resolved)

        groups: dict[tuple[str, str], set] = {}
        for key in self.classes:
            groups.setdefault(find(key), set()).add(key)
        return {
            key: frozenset(group)
            for group in groups.values()
            for key in group
        }

    def _resolve_class(self, module: str, base: str) -> tuple[str, str] | None:
        """Resolve a base-class spelling to a (module, class) key."""
        parts = base.split(".")
        imports = self.modules[module].import_map
        if len(parts) == 1:
            if (module, base) in self.classes:
                return (module, base)
            target = imports.get(base)
            if target and "." in target:
                owner, name = target.rsplit(".", 1)
                if (owner, name) in self.classes:
                    return (owner, name)
            return None
        root, rest = parts[0], parts[1:]
        owner = imports.get(root, root)
        candidate = (".".join([owner, *rest[:-1]]) if rest[:-1] else owner, rest[-1])
        return candidate if candidate in self.classes else None

    def family(self, module: str, cls: str) -> frozenset:
        """All (module, class) keys sharing an inheritance chain."""
        return self._family.get((module, cls), frozenset({(module, cls)}))

    def family_resource_attrs(self, module: str, cls: str) -> dict[str, str]:
        merged: dict[str, str] = {}
        for key in sorted(self.family(module, cls)):
            merged.update(self.classes[key].resource_attrs)
        return merged

    # -- call resolution ---------------------------------------------------
    def resolve_call(self, module: str, caller: str, callee: str) -> tuple:
        """(module, qualname) keys a call spelling may land on.

        Purely syntactic: ``self.m`` searches the caller's class family,
        bare names search the module then the import map, one-dot names
        go through the import map. Unresolvable spellings (attribute
        chains through objects) resolve to nothing — the analysis stays
        may-analysis over what it can see.
        """
        cache_key = (module, caller, callee)
        cached = self._call_cache.get(cache_key)
        if cached is not None:
            return cached
        resolved = tuple(self._resolve_call(module, caller, callee))
        self._call_cache[cache_key] = resolved
        return resolved

    def _resolve_call(self, module: str, caller: str, callee: str) -> Iterator:
        parts = callee.split(".")
        if parts[0] == "self" and len(parts) == 2:
            cls = self._caller_class(module, caller)
            if cls:
                for key in sorted(self.family(module, cls)):
                    candidate = (key[0], f"{key[1]}.{parts[1]}")
                    if candidate in self.functions:
                        yield candidate
                        return
            return
        if len(parts) == 1:
            nested = (module, f"{caller}.<locals>.{callee}")
            if nested in self.functions:
                yield nested
                return
            if (module, callee) in self.functions:
                yield (module, callee)
                return
            target = self.modules[module].import_map.get(callee) if module in self.modules else None
            if target and "." in target:
                owner, name = target.rsplit(".", 1)
                if (owner, name) in self.functions:
                    yield (owner, name)
                elif (owner, name) in self.classes:
                    # constructor call: treat as calling __init__
                    init = (owner, f"{name}.__init__")
                    if init in self.functions:
                        yield init
            return
        if len(parts) == 2 and parts[0] not in ("self", "cls"):
            owner = self.modules[module].import_map.get(parts[0]) if module in self.modules else None
            owner = owner or parts[0]
            if (owner, parts[1]) in self.functions:
                yield (owner, parts[1])
            return

    def _caller_class(self, module: str, caller: str) -> str | None:
        fn = self.functions.get((module, caller))
        if fn is not None and fn.cls:
            return fn.cls
        head = caller.split(".")[0]
        return head if (module, head) in self.classes else None

    def path_of(self, module: str) -> str:
        summary = self.modules.get(module)
        return summary.path if summary is not None else module


# ---------------------------------------------------------------------------
# REP015 — process-escape checking
# ---------------------------------------------------------------------------


class ProcessEscape(CrossFileRule):
    id = "REP015"
    title = (
        "callable shipped to a worker process reaches a parent-only "
        "resource (store / TSDB handle)"
    )

    def run(self, program: ProgramModel) -> Iterator[Finding]:
        for module in sorted(program.modules):
            summary = program.modules[module]
            for dispatch in summary.dispatches:
                targets = self._dispatch_targets(program, module, dispatch)
                for target in targets:
                    escape = self._find_escape(program, target)
                    if escape is None:
                        continue
                    what, anchors = escape
                    yield Finding(
                        rule=self.id,
                        path=summary.path,
                        line=dispatch.line,
                        message=(
                            f"'{dispatch.callee}' dispatched via {dispatch.api} "
                            f"to a worker process reaches parent-only resource: {what}"
                        ),
                        snippet="",
                        related=tuple(anchors),
                    )
                    break  # one finding per dispatch site

    def _dispatch_targets(self, program: ProgramModel, module: str, dispatch):
        return program.resolve_call(module, dispatch.function, dispatch.callee)

    def _find_escape(self, program: ProgramModel, start):
        """BFS over the call graph from the dispatched callable; returns
        (description, anchors) at the first resource touch, else None."""
        queue: list[tuple[tuple, tuple, int]] = [(start, (), 0)]
        visited = {start}
        while queue:
            (module, qualname), trail, depth = queue.pop(0)
            fn = program.functions.get((module, qualname))
            if fn is None:
                continue
            path = program.path_of(module)
            hop = (path, fn.line, f"reached via {qualname}")
            trail_here = (*trail, hop)
            hit = self._resource_touch(program, module, fn)
            if hit is not None:
                what, line, note = hit
                return what, [*trail_here, (path, line, note)]
            if depth >= _ESCAPE_MAX_DEPTH:
                continue
            for call in fn.calls:
                for target in program.resolve_call(module, qualname, call.callee):
                    if target not in visited:
                        visited.add(target)
                        queue.append((target, trail_here, depth + 1))
        return None

    def _resource_touch(self, program: ProgramModel, module: str, fn: FunctionSummary):
        """(description, line, note) when ``fn`` touches a parent resource."""
        summary = program.modules[module]
        # 1. module-level resource singletons
        for name, line in fn.reads:
            kind = summary.resource_globals.get(name)
            if kind is not None:
                return (
                    f"module-level {kind} '{name}'", line,
                    f"reads module-level {kind} '{name}'",
                )
        # 2. instance resources: the dispatched callable is (or calls) a
        # method, so `self` pickles the whole instance, resources included
        cls = fn.cls or fn.qualname.split(".")[0]
        if (module, cls) in program.classes:
            resources = program.family_resource_attrs(module, cls)
            for attr, line in fn.self_attr_reads:
                kind = resources.get(attr)
                if kind is not None:
                    label = kind.removeprefix("param:")
                    return (
                        f"instance resource self.{attr} ({label})", line,
                        f"reads self.{attr} bound to {label}",
                    )
        # 3. closure capture: a nested function reading a name the
        # enclosing function bound to a resource constructor / parameter
        if ".<locals>." in fn.qualname:
            outer_qual = fn.qualname.rsplit(".<locals>.", 1)[0]
            outer = program.functions.get((module, outer_qual))
            if outer is not None:
                for name, line in fn.reads:
                    ctor = outer.local_ctors.get(name)
                    if ctor in RESOURCE_CLASSES:
                        return (
                            f"closure-captured {ctor} '{name}'", line,
                            f"closure reads '{name}' = {ctor}(...) from {outer_qual}",
                        )
                    if name in outer.params and name in RESOURCE_PARAM_NAMES:
                        return (
                            f"closure-captured resource parameter '{name}'", line,
                            f"closure reads resource parameter '{name}' of {outer_qual}",
                        )
        return None


# ---------------------------------------------------------------------------
# REP016 — interprocedural determinism taint
# ---------------------------------------------------------------------------


class DeterminismTaint(CrossFileRule):
    id = "REP016"
    title = "seed parameter dropped or defaulted along a call path to an RNG"

    def run(self, program: ProgramModel) -> Iterator[Finding]:
        rng_makers = self._rng_constructing(program)
        yield from self._dropped_seeds(program, rng_makers)
        yield from self._dead_seeds(program, rng_makers)

    def _rng_constructing(self, program: ProgramModel) -> set:
        """Functions that (transitively) construct an RNG."""
        makers = {
            key for key, fn in program.functions.items() if fn.constructs_rng
        }
        changed = True
        rounds = 0
        while changed and rounds < 20:
            changed = False
            rounds += 1
            for key, fn in program.functions.items():
                if key in makers:
                    continue
                module, qualname = key
                for call in fn.calls:
                    if any(
                        target in makers
                        for target in program.resolve_call(module, qualname, call.callee)
                    ):
                        makers.add(key)
                        changed = True
                        break
        return makers

    def _dropped_seeds(self, program: ProgramModel, rng_makers: set) -> Iterator[Finding]:
        """A seeded caller invokes an RNG-constructing callee but lets the
        callee's own seed parameter default: determinism silently forks."""
        for key in sorted(program.functions):
            module, qualname = key
            fn = program.functions[key]
            if not fn.seed_params:
                continue
            path = program.path_of(module)
            for call in fn.calls:
                if call.has_star or call.seed_kwargs or call.caller_seeds_passed:
                    continue
                for target in program.resolve_call(module, qualname, call.callee):
                    if target not in rng_makers:
                        continue
                    callee = program.functions[target]
                    dropped = self._defaulted_seed_not_covered(callee, call)
                    if dropped is None:
                        continue
                    yield Finding(
                        rule=self.id,
                        path=path,
                        line=call.line,
                        message=(
                            f"seeded function '{qualname}' (seed params: "
                            f"{', '.join(fn.seed_params)}) calls RNG-constructing "
                            f"'{target[1]}' without passing a seed — its "
                            f"'{dropped}' parameter silently defaults"
                        ),
                        snippet="",
                        related=(
                            (program.path_of(target[0]), callee.line,
                             f"'{target[1]}' defined here with defaulted "
                             f"seed parameter '{dropped}'"),
                        ),
                    )
                    break

    @staticmethod
    def _defaulted_seed_not_covered(callee: FunctionSummary, call) -> str | None:
        params = [p for p in callee.params if p != "self"]
        for seed in callee.seed_params:
            if seed not in callee.defaulted_params:
                continue  # required: python itself enforces passing it
            try:
                position = params.index(seed)
            except ValueError:  # pragma: no cover - seed always in params
                continue
            covered = position < call.n_pos_args or seed in call.keywords
            if not covered:
                return seed
        return None

    def _dead_seeds(self, program: ProgramModel, rng_makers: set) -> Iterator[Finding]:
        """A function accepts a seed-ish parameter and never reads it:
        callers believe they determinized something; nothing flowed."""
        for key in sorted(program.functions):
            module, qualname = key
            fn = program.functions[key]
            if fn.is_stub or "<lambda" in qualname:
                continue
            dead = [
                p for p in fn.seed_params
                if p not in fn.seed_params_used and not p.startswith("_")
            ]
            if not dead:
                continue
            yield Finding(
                rule=self.id,
                path=program.path_of(module),
                line=fn.line,
                message=(
                    f"'{qualname}' accepts seed parameter"
                    f"{'s' if len(dead) > 1 else ''} "
                    f"{', '.join(repr(p) for p in dead)} but never reads "
                    f"{'them' if len(dead) > 1 else 'it'} — callers' seeds "
                    f"are silently dropped"
                ),
                snippet="",
            )


ALL_CROSS_RULES = (ProcessEscape, DeterminismTaint)

CROSS_RULE_IDS = frozenset(rule.id for rule in ALL_CROSS_RULES)


def default_cross_rules() -> tuple[CrossFileRule, ...]:
    """Fresh instances of every cross-file rule, in id order."""
    return tuple(rule() for rule in ALL_CROSS_RULES)
