"""Single-pass AST analysis engine: parse once, dispatch to every rule.

The engine is deliberately small: one :func:`ast.parse` per file, one
depth-first walk, and per-node dispatch to the rules that registered an
interest in that node type. Rules see a :class:`FileContext` carrying the
ancestor stack (for enclosing-function and loop questions) and the
module's import surface — everything the project-specific rules in
:mod:`repro.analysis.rules` need without a second pass.

Suppressions are inline comments of the form ``# repro: noqa[REP004]``
(multiple ids comma-separated). A suppression that matches no finding on
its line is itself reported under the reserved id ``REP000`` — dead
pragmas rot into lies about which lines are exempt, so they fail the scan
just like a real finding.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..obs import get_observability

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "RuleRegistry",
    "AnalysisResult",
    "Analyzer",
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

#: Reserved rule id for the unused-suppression check.
UNUSED_SUPPRESSION_ID = "REP000"

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one line of one file."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class FileContext:
    """Everything rules may ask about the file currently being walked."""

    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        parts = Path(path).parts
        self.is_test = "tests" in parts or Path(path).name.startswith("test_")
        self.is_benchmark = "benchmarks" in parts
        # the repro subpackage ('core', 'workflow', ...) when under src/repro/
        self.package = ""
        if "repro" in parts:
            tail = parts[parts.index("repro") + 1 :]
            if len(tail) > 1:
                self.package = tail[0]
        self.imports_numpy = bool({"numpy", "np"} & _module_imports(tree))
        #: ancestor stack maintained by the walker; stack[-1] is the parent
        #: of the node currently being dispatched.
        self.stack: list[ast.AST] = []

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
    """Base class: subclasses declare ``id``/``title`` and a visit hook.

    ``node_types`` names the AST node classes the rule wants dispatched to
    :meth:`visit`.
    """

    id: str = "REP000"
    title: str = ""
    node_types: tuple[type, ...] = ()

    def applies(self, ctx: FileContext) -> bool:
        return True

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[tuple[int, str]]:
        """Yield ``(lineno, message)`` pairs for violations at ``node``."""
        return iter(())


class RuleRegistry:
    """Ordered rule set with id-uniqueness."""

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


@dataclass
class AnalysisResult:
    """Outcome of one scan."""

    findings: list[Finding] = field(default_factory=list)
    n_files: int = 0
    n_suppressed: int = 0
    parse_errors: list[str] = field(default_factory=list)

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
    """Run every applicable rule over a set of files in one AST pass each."""

    def __init__(self, registry: RuleRegistry):
        self.registry = registry

    def analyze_source(self, source: str, path: str) -> list[Finding]:
        """Analyze one in-memory source text as if it lived at ``path``."""
        return self._analyze_unit(source, path)[0]

    def _analyze_unit(self, source: str, path: str) -> tuple[list[Finding], int]:
        """One file's findings after suppression, and how many were suppressed."""
        tree = ast.parse(source, filename=path)
        ctx = FileContext(path, tree)
        dispatch: dict[type, list[Rule]] = {}
        for rule in self.registry:
            if rule.applies(ctx):
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

        if dispatch:
            walk(tree)

        suppressions = _parse_suppressions(source)
        used: dict[int, set[str]] = {}
        findings: list[Finding] = []
        n_suppressed = 0
        for rule_id, lineno, message in raw:
            _M_FINDINGS.labels(rule=rule_id).inc()
            if rule_id in suppressions.get(lineno, ()):
                used.setdefault(lineno, set()).add(rule_id)
                _M_SUPPRESSED.inc()
                n_suppressed += 1
                continue
            findings.append(Finding(rule_id, path, lineno, message))
        for lineno, ids in sorted(suppressions.items()):
            for rule_id in sorted(ids - used.get(lineno, set())):
                _M_FINDINGS.labels(rule=UNUSED_SUPPRESSION_ID).inc()
                findings.append(
                    Finding(
                        UNUSED_SUPPRESSION_ID,
                        path,
                        lineno,
                        f"unused suppression: no {rule_id} finding on this line",
                    )
                )
        findings.sort(key=lambda f: (f.line, f.rule))
        return findings, n_suppressed

    def analyze_paths(
        self, paths: Iterable[str | Path], root: str | Path | None = None
    ) -> AnalysisResult:
        """Scan files/directories; paths in findings are relative to ``root``
        (default: the current working directory) when possible."""
        root = Path(root) if root is not None else Path.cwd()
        result = AnalysisResult()
        with _H_SCAN.time():
            for file_path in iter_python_files(paths):
                try:
                    rel = file_path.resolve().relative_to(root.resolve()).as_posix()
                except ValueError:
                    rel = file_path.as_posix()
                try:
                    findings, n_suppressed = self._analyze_unit(file_path.read_text(), rel)
                except (OSError, SyntaxError) as error:
                    result.parse_errors.append(f"{rel}: {error}")
                    continue
                result.n_files += 1
                _M_FILES.inc()
                result.n_suppressed += n_suppressed
                result.findings.extend(findings)
        result.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return result


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into sorted ``*.py`` files."""
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
