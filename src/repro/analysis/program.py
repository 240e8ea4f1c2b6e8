"""Phase 2 of the whole-program analyzer: link summaries, run cross-file rules.

:class:`ProgramModel` stitches the per-file :class:`ModuleSummary`
records from :mod:`repro.analysis.summaries` into a repo-wide view — a
module index, a class-inheritance merge (union-find over base edges), a
call graph resolved through each module's import map, and canonical lock
identities (``repro.obs.metrics._Metric._lock``) that make the same lock
recognizable from every file that touches it.

Four rules run over the linked model:

- **REP013** lock-discipline inference: an attribute written under a
  ``self`` lock in one method is part of that lock's protocol; reading or
  writing it bare anywhere in the class family is a data race (or at
  best a torn read) — the whole-program generalization of REP003.
- **REP014** lock-ordering cycles: build the may-hold-while-acquiring
  graph (direct nested ``with`` plus calls made under a lock into
  functions that transitively acquire), canonicalize lock identities,
  and flag strongly-connected components — the classic deadlock shape —
  with a file/line anchor on every edge.
- **REP015** process-escape: a callable shipped to another process
  (``Process(target=...)``, ``ProcessPoolExecutor``, ``multiprocessing.Pool``)
  must not reach parent-only resources (stores, TSDB handles, locks);
  the child would get a pickled divergent copy or an unpicklable crash.
- **REP016** determinism taint: a seed parameter that stops flowing —
  dropped before an RNG-constructing callee whose own seed then
  defaults, or accepted but never read — silently decouples a "seeded"
  call from the RNG it was supposed to determinize.

Cross-file findings carry ``related`` anchors (path, line, note) for
every edge of a cycle or hop of an escape path; the engine fills their
snippets from the sources it already read, so they fingerprint and
baseline exactly like single-file findings.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .engine import Finding
from .summaries import (
    RESOURCE_CLASSES,
    ClassSummary,
    FunctionSummary,
    LockRef,
    ModuleSummary,
)

__all__ = [
    "CrossFileRule",
    "ProgramModel",
    "LockDiscipline",
    "LockOrderCycles",
    "ProcessEscape",
    "DeterminismTaint",
    "ALL_CROSS_RULES",
    "default_cross_rules",
    "CROSS_RULE_IDS",
]

#: Methods where bare attribute access is construction, not a race: the
#: object is not yet (or no longer) shared when they run.
_INIT_EXEMPT = frozenset({
    "__init__", "__new__", "__post_init__", "__del__",
    "__getstate__", "__setstate__", "__reduce__", "__copy__", "__deepcopy__",
})

_LOCK_CTOR_NONREENTRANT = frozenset({"Lock"})

_ESCAPE_MAX_DEPTH = 5


def _is_init_exempt(method_qualname: str) -> bool:
    leaf = method_qualname.split(".")[-1]
    return leaf in _INIT_EXEMPT or leaf.startswith("_init")


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
        self._canon_cache: dict[tuple, str] = {}
        self._call_cache: dict[tuple[str, str, str], tuple] = {}

    # -- inheritance merge -------------------------------------------------
    def _link_families(self) -> dict[tuple[str, str], frozenset]:
        """Union-find over base-class edges: classes sharing an
        inheritance chain share one attribute namespace for REP013."""
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

    def family_lock_attrs(self, module: str, cls: str) -> frozenset:
        attrs: set[str] = set()
        for key in self.family(module, cls):
            attrs.update(self.classes[key].lock_attrs)
        return frozenset(attrs)

    def family_resource_attrs(self, module: str, cls: str) -> dict[str, str]:
        merged: dict[str, str] = {}
        for key in sorted(self.family(module, cls)):
            merged.update(self.classes[key].resource_attrs)
        return merged

    # -- lock canonicalization ---------------------------------------------
    def canonical_lock(self, module: str, ref: LockRef) -> str | None:
        """A repo-wide identity for a lock reference, or None if the
        reference cannot be pinned to a single program object."""
        key = (module, ref.name, ref.via_self, ref.cls)
        cached = self._canon_cache.get(key)
        if cached is not None:
            return cached or None
        canon = self._canonical_lock(module, ref)
        self._canon_cache[key] = canon or ""
        return canon

    def _canonical_lock(self, module: str, ref: LockRef) -> str | None:
        if ref.via_self:
            if not ref.cls:
                return None
            # attach the attr to the family member that defines it, so
            # `self._lock` in a subclass and the base name the same lock.
            defining = sorted(
                key for key in self.family(module, ref.cls)
                if ref.name in self.classes[key].lock_attrs
            )
            owner = defining[0] if defining else (module, ref.cls)
            return f"{owner[0]}.{owner[1]}.{ref.name}"
        parts = ref.name.split(".")
        imports = self.modules[module].import_map if module in self.modules else {}
        if len(parts) == 1:
            target = imports.get(ref.name)
            return target if target and "." in target else f"{module}.{ref.name}"
        root = imports.get(parts[0], f"{module}.{parts[0]}")
        return ".".join([root, *parts[1:]])

    def lock_ctor(self, canonical: str) -> str | None:
        """Constructor name of a canonical ``module.Class.attr`` lock,
        when the defining class recorded one (reentrancy question)."""
        owner, attr = canonical.rsplit(".", 1)
        if "." not in owner:
            return None
        cls_module, cls_name = owner.rsplit(".", 1)
        cls = self.classes.get((cls_module, cls_name))
        return cls.ctor_attrs.get(attr) if cls is not None else None

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
# REP013 — lock-discipline inference
# ---------------------------------------------------------------------------


class LockDiscipline(CrossFileRule):
    id = "REP013"
    title = (
        "attribute written under a lock in one method must not be "
        "accessed bare elsewhere in the class family"
    )

    def run(self, program: ProgramModel) -> Iterator[Finding]:
        seen_families: set[frozenset] = set()
        for key in sorted(program.classes):
            family = program.family(*key)
            if family in seen_families:
                continue
            seen_families.add(family)
            yield from self._check_family(program, family)

    def _check_family(self, program: ProgramModel, family: frozenset) -> Iterator[Finding]:
        lock_attrs: set[str] = set()
        for member in family:
            lock_attrs.update(program.classes[member].lock_attrs)
        # attr -> (canonical lock, path, line, method) of one guarded write
        guarded: dict[str, tuple[str, str, int, str]] = {}
        for member in sorted(family):
            module, _ = member
            cls = program.classes[member]
            for access in cls.accesses:
                if access.kind != "write" or not access.locks:
                    continue
                if _is_init_exempt(access.method) or access.attr in lock_attrs:
                    continue
                if access.attr in guarded:
                    continue
                canon = program.canonical_lock(module, access.locks[-1])
                guarded[access.attr] = (
                    canon or access.locks[-1].name,
                    program.path_of(module), access.line, access.method,
                )
        if not guarded:
            return
        for member in sorted(family):
            module, _ = member
            cls = program.classes[member]
            path = program.path_of(module)
            flagged: set[tuple[str, int]] = set()
            for access in cls.accesses:
                if access.attr not in guarded or access.locks:
                    continue
                if _is_init_exempt(access.method):
                    continue
                if (access.attr, access.line) in flagged:
                    continue
                flagged.add((access.attr, access.line))
                lock, gpath, gline, gmethod = guarded[access.attr]
                yield Finding(
                    rule=self.id,
                    path=path,
                    line=access.line,
                    message=(
                        f"'{access.attr}' is written under {lock} "
                        f"(in {gmethod}) but {'written' if access.kind == 'write' else 'read'} "
                        f"here without holding it"
                    ),
                    snippet="",
                    related=((gpath, gline, f"guarded write in {gmethod}"),),
                )


# ---------------------------------------------------------------------------
# REP014 — lock-ordering cycle detection
# ---------------------------------------------------------------------------


class LockOrderCycles(CrossFileRule):
    id = "REP014"
    title = "may-hold-while-acquiring cycle across the repo (potential deadlock)"

    def run(self, program: ProgramModel) -> Iterator[Finding]:
        edges = self._build_edges(program)
        yield from self._self_loops(program, edges)
        yield from self._cycles(program, edges)

    # -- graph construction ------------------------------------------------
    def _build_edges(self, program: ProgramModel):
        """canonical-lock digraph: edge A->B with evidence anchors means
        B may be acquired while A is held."""
        # locks each function acquires directly, with anchors
        direct: dict[tuple, set] = {}
        for module in sorted(program.modules):
            summary = program.modules[module]
            for site in summary.lock_sites:
                canon = program.canonical_lock(module, site.lock)
                if canon is None:
                    continue
                direct.setdefault((module, site.function), set()).add(
                    (canon, summary.path, site.line)
                )
        # transitive closure over the resolved call graph
        trans = {key: set(value) for key, value in direct.items()}
        changed = True
        rounds = 0
        while changed and rounds < 20:
            changed = False
            rounds += 1
            for (module, qualname), fn in program.functions.items():
                bucket = trans.setdefault((module, qualname), set())
                before = len(bucket)
                for call in fn.calls:
                    for target in program.resolve_call(module, qualname, call.callee):
                        bucket |= trans.get(target, set())
                if len(bucket) != before:
                    changed = True

        edges: dict[tuple[str, str], list] = {}

        def add_edge(held: str, acquired: str, anchors, receiver_self: bool) -> None:
            entry = edges.setdefault((held, acquired), [])
            entry.append((anchors, receiver_self))

        for module in sorted(program.modules):
            summary = program.modules[module]
            path = summary.path
            for acq in summary.acquires:
                held = program.canonical_lock(module, acq.held)
                acquired = program.canonical_lock(module, acq.acquired)
                if held is None or acquired is None:
                    continue
                add_edge(
                    held, acquired,
                    ((path, acq.line,
                      f"{acquired} acquired while holding {held} in {acq.function}"),),
                    receiver_self=False,
                )
            for call in summary.held_calls:
                held = program.canonical_lock(module, call.held)
                if held is None:
                    continue
                receiver_self = call.callee.startswith("self.")
                for target in program.resolve_call(module, call.function, call.callee):
                    for canon, tpath, tline in sorted(trans.get(target, set())):
                        add_edge(
                            held, canon,
                            ((path, call.line,
                              f"{call.callee}() called in {call.function} "
                              f"while holding {held}"),
                             (tpath, tline, f"{canon} acquired inside the callee")),
                            receiver_self=receiver_self,
                        )
        return edges

    # -- self-loops --------------------------------------------------------
    def _self_loops(self, program: ProgramModel, edges) -> Iterator[Finding]:
        for (held, acquired), entries in sorted(edges.items()):
            if held != acquired:
                continue
            ctor = program.lock_ctor(held)
            if ctor is not None and ctor not in _LOCK_CTOR_NONREENTRANT:
                continue  # RLock/Condition: re-acquisition is legal
            for anchors, receiver_self in entries:
                # canonical ids merge instances; only a `self.`-rooted
                # path guarantees both acquisitions hit the same object.
                if len(anchors) > 1 and not receiver_self:
                    continue
                first = anchors[0]
                yield Finding(
                    rule=self.id,
                    path=first[0],
                    line=first[1],
                    message=(
                        f"{held} may be re-acquired while already held "
                        f"(non-reentrant Lock: self-deadlock)"
                    ),
                    snippet="",
                    related=tuple(anchors[1:]),
                )
                break  # one finding per lock

    # -- cycles ------------------------------------------------------------
    def _cycles(self, program: ProgramModel, edges) -> Iterator[Finding]:
        graph: dict[str, set[str]] = {}
        for held, acquired in edges:
            if held != acquired:
                graph.setdefault(held, set()).add(acquired)
                graph.setdefault(acquired, set())
        for component in _tarjan_sccs(graph):
            if len(component) < 2:
                continue
            cycle = _reconstruct_cycle(graph, component)
            if cycle is None:
                continue
            anchors: list[tuple[str, int, str]] = []
            for a, b in zip(cycle, cycle[1:]):
                entry = sorted(edges[(a, b)])[0]
                anchors.extend(entry[0])
            first = anchors[0]
            order = " -> ".join(cycle)
            yield Finding(
                rule=self.id,
                path=first[0],
                line=first[1],
                message=f"lock-ordering cycle (potential deadlock): {order}",
                snippet="",
                related=tuple(anchors[1:]),
            )


def _tarjan_sccs(graph: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components, iterative, deterministic order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
    return sccs


def _reconstruct_cycle(graph: dict[str, set[str]], component: list[str]) -> list[str] | None:
    """A concrete cycle through an SCC, as [a, b, ..., a]."""
    members = set(component)
    start = component[0]
    # DFS within the component back to start
    seen = {start}
    path = [start]

    def dfs(node: str) -> bool:
        for child in sorted(graph.get(node, ())):
            if child == start and len(path) > 1:
                return True
            if child in members and child not in seen:
                seen.add(child)
                path.append(child)
                if dfs(child):
                    return True
                path.pop()
        return False

    if dfs(start):
        return [*path, start]
    return None


# ---------------------------------------------------------------------------
# REP015 — process-escape checking
# ---------------------------------------------------------------------------


class ProcessEscape(CrossFileRule):
    id = "REP015"
    title = (
        "callable shipped to a worker process reaches a parent-only "
        "resource (store / TSDB handle / lock)"
    )

    def run(self, program: ProgramModel) -> Iterator[Finding]:
        for module in sorted(program.modules):
            summary = program.modules[module]
            for dispatch in summary.dispatches:
                if dispatch.boundary == "thread":
                    continue
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
                            f"to a {'worker process' if dispatch.boundary == 'process' else 'possibly-process pool'} "
                            f"reaches parent-only resource: {what}"
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
            locks = program.family_lock_attrs(module, cls)
            for attr, line in fn.self_attr_reads:
                kind = resources.get(attr)
                if kind is not None:
                    label = kind.removeprefix("param:")
                    return (
                        f"instance resource self.{attr} ({label})", line,
                        f"reads self.{attr} bound to {label}",
                    )
                if attr in locks:
                    return (
                        f"parent lock self.{attr}", line,
                        f"reads parent-process lock self.{attr}",
                    )
        # 3. closure capture: a nested function reading a name the
        # enclosing function bound to a resource constructor / parameter
        if ".<locals>." in fn.qualname:
            outer_qual = fn.qualname.rsplit(".<locals>.", 1)[0]
            outer = program.functions.get((module, outer_qual))
            if outer is not None:
                from .summaries import RESOURCE_PARAM_NAMES
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
                    if ctor is not None and "lock" in name.lower():
                        return (
                            f"closure-captured lock '{name}'", line,
                            f"closure reads lock '{name}' from {outer_qual}",
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


ALL_CROSS_RULES = (LockDiscipline, LockOrderCycles, ProcessEscape, DeterminismTaint)

CROSS_RULE_IDS = frozenset(rule.id for rule in ALL_CROSS_RULES)


def default_cross_rules() -> tuple[CrossFileRule, ...]:
    """Fresh instances of every cross-file rule, in id order."""
    return tuple(rule() for rule in ALL_CROSS_RULES)
