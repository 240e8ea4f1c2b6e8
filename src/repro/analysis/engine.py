"""Single-pass AST analysis engine: parse once, dispatch to every rule.

The engine is deliberately small: one :func:`ast.parse` per file, one
depth-first walk, and per-node dispatch to the rules that registered an
interest in that node type. Rules see a :class:`FileContext` carrying the
ancestor stack (for enclosing-function and loop questions) and the
module's import surface — everything the project-specific rules in :mod:`repro.analysis.rules` need without a
second pass.

Suppressions are inline comments of the form ``# repro: noqa[REP004]``
(multiple ids comma-separated). A suppression that matches no finding on
its line is itself reported under the reserved id ``REP000`` — dead
pragmas rot into lies about which lines are exempt, so they fail the scan
just like a real finding.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

from ..obs import get_observability

__all__ = [
    "Finding",
    "FileContext",
    "FileScan",
    "Rule",
    "RuleRegistry",
    "AnalysisResult",
    "Analyzer",
    "iter_python_files",
    "UNUSED_SUPPRESSION_ID",
]

_OBS = get_observability()
_M_FILES = _OBS.counter(
    "repro_analysis_files_scanned_total", "Python files parsed by repro.analysis."
)
_M_FINDINGS = _OBS.counter(
    "repro_analysis_findings_total",
    "Raw findings produced by repro.analysis rules (pre-suppression).",
    labels=("rule",),
)
_M_SUPPRESSED = _OBS.counter(
    "repro_analysis_suppressed_total",
    "Findings silenced by an inline `# repro: noqa[...]` pragma.",
)
_H_SCAN = _OBS.histogram(
    "repro_analysis_scan_seconds",
    "End-to-end latency of one repro.analysis scan (all files, all rules).",
    buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0),
)
_H_LINK = _OBS.histogram(
    "repro_analysis_link_seconds",
    "Latency of the phase-2 whole-program link (summaries -> cross-file rules).",
    buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0),
)
_M_CACHE_HITS = _OBS.counter(
    "repro_analysis_cache_hits_total",
    "Files whose phase-1 scan was replayed from the incremental cache.",
)

#: Reserved rule id for the unused-suppression check.
UNUSED_SUPPRESSION_ID = "REP000"

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation, addressable and fingerprintable.

    The fingerprint deliberately excludes the line *number*: baselined
    findings must survive unrelated edits above them, so identity is the
    (rule, path, source-line-text) triple plus nothing positional.
    """

    rule: str
    path: str  # repo-relative posix path
    line: int
    message: str
    snippet: str  # stripped source text of the offending line
    #: supporting anchors for multi-location findings (cycle edges,
    #: escape-path hops): (path, line, note) triples. Deliberately
    #: excluded from the fingerprint — a cycle is the same cycle even
    #: when an unrelated edit moves one of its edges.
    related: tuple = ()

    @property
    def fingerprint(self) -> str:
        return f"{self.rule}::{self.path}::{self.snippet}"

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} {self.message}"
        for rel_path, rel_line, note in self.related:
            text += f"\n    {rel_path}:{rel_line}: {note}"
        return text


class FileContext:
    """Everything rules may ask about the file currently being walked."""

    def __init__(self, path: str, tree: ast.Module, source: str):
        self.path = path
        self.tree = tree
        self.source = source
        self.lines = source.splitlines()
        parts = Path(path).parts
        self.is_test = "tests" in parts or Path(path).name.startswith("test_")
        self.is_benchmark = "benchmarks" in parts
        # the repro subpackage ('core', 'workflow', ...) when under src/repro/
        self.package = ""
        if "repro" in parts:
            tail = parts[parts.index("repro") + 1 :]
            if len(tail) > 1:
                self.package = tail[0]
        self.imports = _module_imports(tree)
        self.imports_numpy = bool({"numpy", "np"} & self.imports)
        #: ancestor stack maintained by the walker; stack[-1] is the parent
        #: of the node currently being dispatched.
        self.stack: list[ast.AST] = []

    # -- source access -----------------------------------------------------
    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # -- scope questions ---------------------------------------------------
    def enclosing_function(self) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for node in reversed(self.stack):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node
        return None


def _module_imports(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
                names.add(alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


class Rule:
    """Base class: subclasses declare ``id``/``title`` and visit hooks.

    ``node_types`` names the AST node classes the rule wants dispatched to
    :meth:`visit`; :meth:`start_file` / :meth:`finish_file` bracket each
    file for rules that keep per-file state (dataflow rules).
    """

    id: str = "REP000"
    title: str = ""
    node_types: tuple[type, ...] = ()

    def applies(self, ctx: FileContext) -> bool:
        return True

    def start_file(self, ctx: FileContext) -> None:
        pass

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[tuple[int, str]]:
        """Yield ``(lineno, message)`` pairs for violations at ``node``."""
        return iter(())

    def finish_file(self, ctx: FileContext) -> Iterator[tuple[int, str]]:
        return iter(())


class RuleRegistry:
    """Ordered rule set with id-uniqueness and by-node-type dispatch maps."""

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}

    def register(self, rule: Rule | type[Rule]) -> Rule:
        if isinstance(rule, type):
            rule = rule()
        if rule.id in self._rules:
            raise ValueError(f"duplicate rule id {rule.id!r}")
        if not re.fullmatch(r"REP\d{3}", rule.id):
            raise ValueError(f"rule id must look like REP### ; got {rule.id!r}")
        self._rules[rule.id] = rule
        return rule

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def get(self, rule_id: str) -> Rule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(f"no rule registered under {rule_id!r}") from None

    def ids(self) -> list[str]:
        return sorted(self._rules)


@dataclass
class FileScan:
    """Phase-1 outputs for one file: what the cache stores and replays."""

    findings: list[Finding]
    n_suppressed: int
    summary: object  # ModuleSummary (typed loosely to keep imports acyclic)
    #: line -> cross-file rule ids suppressed there; resolved after phase 2
    deferred: dict[int, list[str]] = field(default_factory=dict)


@dataclass
class AnalysisResult:
    """Outcome of one scan, before/after baseline application."""

    findings: list[Finding] = field(default_factory=list)
    n_files: int = 0
    n_suppressed: int = 0
    parse_errors: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    n_cache_hits: int = 0
    link_seconds: float = 0.0

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def _parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids suppressed on that line."""
    suppressions: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match:
                ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
                suppressions.setdefault(token.start[0], set()).update(ids)
    except tokenize.TokenError:  # pragma: no cover - parse already succeeded
        pass
    return suppressions


class Analyzer:
    """Run every applicable rule over a set of files in one AST pass each.

    ``cross_rules`` configures phase 2 (the whole-program link): the
    default ``"auto"`` loads :func:`repro.analysis.program.default_cross_rules`,
    an empty sequence disables linking. Phase 2 only runs in
    :meth:`analyze_paths` — :meth:`analyze_source` sees a single file and
    has no program to link, so cross-file suppressions in lone sources
    are dropped silently rather than reported as unused.
    """

    def __init__(self, registry: RuleRegistry, cross_rules="auto"):
        self.registry = registry
        if cross_rules == "auto":
            from .program import default_cross_rules

            cross_rules = default_cross_rules()
        self.cross_rules = tuple(cross_rules or ())
        self._cross_ids = frozenset(rule.id for rule in self.cross_rules)

    # -- single source unit ------------------------------------------------
    def analyze_source(self, source: str, path: str) -> list[Finding]:
        """Analyze one in-memory source text as if it lived at ``path``."""
        return self._analyze_unit(source, path).findings

    def _analyze_unit(self, source: str, path: str) -> FileScan:
        from .summaries import summarize_module

        tree = ast.parse(source, filename=path)
        ctx = FileContext(path, tree, source)
        summary = summarize_module(tree, path)
        active = [rule for rule in self.registry if rule.applies(ctx)]
        if not active and not self._cross_ids:
            return FileScan([], 0, summary)
        dispatch: dict[type, list[Rule]] = {}
        for rule in active:
            rule.start_file(ctx)
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)

        raw: list[tuple[str, int, str]] = []  # (rule_id, lineno, message)

        def walk(node: ast.AST) -> None:
            for rule in dispatch.get(type(node), ()):
                for lineno, message in rule.visit(node, ctx):
                    raw.append((rule.id, lineno, message))
            ctx.stack.append(node)
            for child in ast.iter_child_nodes(node):
                walk(child)
            ctx.stack.pop()

        walk(tree)
        for rule in active:
            for lineno, message in rule.finish_file(ctx):
                raw.append((rule.id, lineno, message))

        # -- suppressions ---------------------------------------------------
        suppressions = _parse_suppressions(source)
        used: dict[int, set[str]] = {}
        findings: list[Finding] = []
        deferred: dict[int, list[str]] = {}
        n_suppressed = 0
        for rule_id, lineno, message in raw:
            _M_FINDINGS.labels(rule=rule_id).inc()
            if rule_id in suppressions.get(lineno, ()):
                used.setdefault(lineno, set()).add(rule_id)
                _M_SUPPRESSED.inc()
                n_suppressed += 1
                continue
            findings.append(
                Finding(rule_id, path, lineno, message, self._snippet(ctx, lineno))
            )
        for lineno, ids in sorted(suppressions.items()):
            unused = ids - used.get(lineno, set())
            # cross-file rule pragmas can only be judged after phase 2:
            # defer them instead of calling them dead here.
            cross = sorted(unused & self._cross_ids)
            if cross:
                deferred[lineno] = cross
            for rule_id in sorted(unused - self._cross_ids):
                _M_FINDINGS.labels(rule=UNUSED_SUPPRESSION_ID).inc()
                findings.append(
                    Finding(
                        UNUSED_SUPPRESSION_ID,
                        path,
                        lineno,
                        f"unused suppression: no {rule_id} finding on this line",
                        self._snippet(ctx, lineno),
                    )
                )
        findings.sort(key=lambda f: (f.line, f.rule))
        return FileScan(findings, n_suppressed, summary, deferred)

    @staticmethod
    def _snippet(ctx: FileContext, lineno: int) -> str:
        return ctx.line_text(lineno)

    # -- trees of files ----------------------------------------------------
    def analyze_paths(
        self,
        paths: Iterable[str | Path],
        root: str | Path | None = None,
        on_file: Callable[[Path], None] | None = None,
        cache=None,
    ) -> AnalysisResult:
        """Scan files/directories; paths in findings are relative to ``root``
        (default: the current working directory) when possible.

        ``cache`` is an optional :class:`repro.analysis.cache.AnalysisCache`:
        phase 1 is replayed from it for files whose content hash matches,
        and phase 2 (the whole-program link) always re-runs over the full
        summary set, so cached and fresh files link identically.
        """
        root = Path(root) if root is not None else Path.cwd()
        result = AnalysisResult()
        scans: list[tuple[str, FileScan]] = []
        sources: dict[str, list[str]] = {}
        with _H_SCAN.time() as timer:
            for file_path in iter_python_files(paths):
                if on_file is not None:
                    on_file(file_path)
                try:
                    rel = file_path.resolve().relative_to(root.resolve()).as_posix()
                except ValueError:
                    rel = file_path.as_posix()
                try:
                    source = file_path.read_text()
                except OSError as error:
                    result.parse_errors.append(f"{rel}: {error}")
                    continue
                sources[rel] = source.splitlines()
                scan = None
                digest = ""
                if cache is not None:
                    digest = hashlib.sha256(
                        source.encode("utf-8", errors="replace")
                    ).hexdigest()
                    scan = cache.load(rel, digest)
                if scan is None:
                    try:
                        scan = self._analyze_unit(source, rel)
                    except SyntaxError as error:
                        result.parse_errors.append(f"{rel}: {error}")
                        continue
                    if cache is not None:
                        cache.store(rel, digest, scan)
                else:
                    result.n_cache_hits += 1
                    _M_CACHE_HITS.inc()
                result.n_files += 1
                _M_FILES.inc()
                result.n_suppressed += scan.n_suppressed
                result.findings.extend(scan.findings)
                scans.append((rel, scan))
            if self.cross_rules and scans:
                self._link(result, scans, sources)
        result.elapsed_seconds = timer.elapsed
        result.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return result

    def _link(
        self,
        result: AnalysisResult,
        scans: list[tuple[str, FileScan]],
        sources: dict[str, list[str]],
    ) -> None:
        """Phase 2: link summaries, run cross-file rules, settle deferred
        cross-rule suppressions."""
        from .program import ProgramModel

        def snippet_at(path: str, line: int) -> str:
            lines = sources.get(path)
            if lines and 1 <= line <= len(lines):
                return lines[line - 1].strip()
            return ""

        with _H_LINK.time() as timer:
            program = ProgramModel(scan.summary for _, scan in scans)
            deferred: dict[str, dict[int, set[str]]] = {
                rel: {line: set(ids) for line, ids in scan.deferred.items()}
                for rel, scan in scans
                if scan.deferred
            }
            used: dict[tuple[str, int], set[str]] = {}
            for rule in self.cross_rules:
                for finding in rule.run(program):
                    _M_FINDINGS.labels(rule=finding.rule).inc()
                    if finding.rule in deferred.get(finding.path, {}).get(finding.line, ()):
                        used.setdefault((finding.path, finding.line), set()).add(finding.rule)
                        _M_SUPPRESSED.inc()
                        result.n_suppressed += 1
                        continue
                    result.findings.append(
                        replace(finding, snippet=snippet_at(finding.path, finding.line))
                    )
            for rel, per_line in sorted(deferred.items()):
                for line, ids in sorted(per_line.items()):
                    for rule_id in sorted(ids - used.get((rel, line), set())):
                        _M_FINDINGS.labels(rule=UNUSED_SUPPRESSION_ID).inc()
                        result.findings.append(
                            Finding(
                                UNUSED_SUPPRESSION_ID,
                                rel,
                                line,
                                f"unused suppression: no {rule_id} finding on this line",
                                snippet_at(rel, line),
                            )
                        )
        result.link_seconds = timer.elapsed


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into sorted ``*.py`` files."""
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
