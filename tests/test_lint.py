"""Lint gate wired into the test session.

Runs ``ruff check`` with the repo's ``[tool.ruff]`` config when the binary
is available. In environments without ruff (such as the offline test
container) a stdlib fallback still enforces the highest-signal subset:
every source file must parse, no module may carry unused imports, no
function may use a mutable default argument (ruff ``B006`` — a mutable
default once served as a hidden cross-invocation cache in ``cli.py``),
and no ``except`` handler may raise a *new* exception without chaining it
(``B904`` — losing the original fault blinds the resilience ladder).

The project's own AST engine (:mod:`repro.analysis`, the REP rules)
runs alongside either path — it has no external binary to
be missing.

A third gate keeps deleted code deleted: every public definition in
``src`` must be referenced by name from ``src``, ``examples`` or
``benchmarks`` (tests do not count, nor does the definition's own body),
or carry a reasoned entry in :data:`UNCALLED_EXCEPTIONS`.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE_ROOTS = ("src", "tests", "benchmarks")


def _python_files() -> list[Path]:
    files: list[Path] = []
    for root in SOURCE_ROOTS:
        files.extend(sorted((REPO / root).rglob("*.py")))
    assert files, "lint found no Python files — check SOURCE_ROOTS"
    return files


def _ruff_available() -> bool:
    return shutil.which("ruff") is not None


class _ImportUsage(ast.NodeVisitor):
    """Collect imported names and every identifier the module mentions."""

    def __init__(self) -> None:
        self.imported: dict[str, int] = {}
        self.used: set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            self.imported[name] = node.lineno

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "__future__":  # compiler directive, not a binding
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            self.imported[alias.asname or alias.name] = node.lineno

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        # __all__ entries and doctest-ish strings count as usage so that
        # re-export modules don't need per-name pragmas in the fallback.
        if isinstance(node.value, str) and node.value.isidentifier():
            self.used.add(node.value)


_MUTABLE_DEFAULT_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _mutable_defaults(path: Path, tree: ast.Module) -> list[str]:
    """Stdlib approximation of ruff B006: flag literal mutable defaults."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, _MUTABLE_DEFAULT_NODES):
                problems.append(
                    f"{path.relative_to(REPO)}:{default.lineno}: mutable default "
                    f"argument in {node.name}() (B006)"
                )
    return problems


def _unchained_raises(path: Path, tree: ast.Module) -> list[str]:
    """Stdlib approximation of ruff B904: ``raise X`` inside ``except``
    without ``from err``/``from None`` discards the original traceback."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Raise)
                and inner.exc is not None
                and inner.cause is None
                # re-raising the caught exception object itself is chained
                # by construction (`except E as err: ... raise err`)
                and not (
                    isinstance(inner.exc, ast.Name) and inner.exc.id == node.name
                )
            ):
                problems.append(
                    f"{path.relative_to(REPO)}:{inner.lineno}: raise inside "
                    "except without 'from' (B904)"
                )
    return problems


def _unused_imports(path: Path, tree: ast.Module) -> list[str]:
    visitor = _ImportUsage()
    visitor.visit(tree)
    lines = path.read_text().splitlines()
    return [
        f"{path.relative_to(REPO)}:{lineno}: unused import {name!r}"
        for name, lineno in visitor.imported.items()
        # ruff honours `# noqa: F401` on the import line; so does the fallback
        if name not in visitor.used and "noqa: F401" not in lines[lineno - 1]
    ]


def test_lint_scope_includes_obs():
    """The observability package (and its tests) must be inside the gate."""
    files = {path.relative_to(REPO).as_posix() for path in _python_files()}
    assert "src/repro/obs/metrics.py" in files
    assert "src/repro/obs/spans.py" in files
    assert any(name.startswith("tests/obs/") for name in files)
    assert "benchmarks/bench_observability.py" in files


def test_lint():
    if _ruff_available():
        result = subprocess.run(
            ["ruff", "check", *SOURCE_ROOTS],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, f"ruff check failed:\n{result.stdout}{result.stderr}"
        return

    problems: list[str] = []
    for path in _python_files():
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as error:  # pragma: no cover - tree should always parse
            problems.append(f"{path.relative_to(REPO)}: syntax error: {error}")
            continue
        if path.name != "__init__.py":  # __init__ re-exports are intentional
            problems.extend(_unused_imports(path, tree))
        problems.extend(_mutable_defaults(path, tree))
        problems.extend(_unchained_raises(path, tree))
    assert not problems, "lint fallback found issues:\n" + "\n".join(problems)


def test_repro_analysis_gate():
    """The in-repo AST engine scans src/ clean: no finding, no parse error.

    Exercised through the entry point developers use
    (``python -m repro.analysis``), from the repo root. The summary line
    must show that the scan actually covered the tree.
    """
    import re
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, (
        f"repro.analysis gate failed:\n{result.stdout}{result.stderr}"
    )
    assert "parse error" not in result.stdout
    match = re.search(r"^(\d+) files scanned: 0 finding", result.stdout, re.MULTILINE)
    assert match, f"no clean summary line in:\n{result.stdout}"
    assert int(match.group(1)) > 50  # the scan actually covered the tree


#: The per-file rules the analyzer ships, and the retired ones: the lock
#: rules (each process runs one thread, and REP011 keeps threads in the
#: serve supervisor) and the cross-file rules (DESIGN §15).
PER_FILE_RULES = (
    "REP001", "REP002", "REP004", "REP006", "REP007",
    "REP009", "REP010", "REP011", "REP012",
)
RETIRED_RULES = ("REP003", "REP005", "REP013", "REP014", "REP015", "REP016")


def test_repro_analysis_catalog_is_the_per_file_rules():
    """--list-rules prints exactly the nine per-file rules."""
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    listed = [line.split()[0] for line in result.stdout.splitlines() if line.strip()]
    assert listed == list(PER_FILE_RULES)
    for rule_id in RETIRED_RULES:
        assert rule_id not in result.stdout, f"{rule_id} still in --list-rules"


#: Trees whose code counts as a caller. Tests are not callers: a definition
#: only a test reaches is dead weight the test keeps alive.
CALLER_ROOTS = ("src", "examples", "benchmarks")

#: Public src definitions kept without a production reference, each with
#: the reason it stays.
UNCALLED_EXCEPTIONS = {
    "AlarmStore.acknowledge": "campaign_summary's triage count reads the column it sets",
    "SimulatedClock.advance": "the test control of the policies' injectable clock",
    "Analyzer.analyze_source": "the single-file entry the analyzer's rule tests drive",
    "run_encoder_topology_table": "EXPERIMENTS' 'Encoder zoo vs. topology' table",
    "render_prometheus": "the registry's Prometheus text exposition, the obs scrape format",
}


def _all_nodes(tree: ast.Module) -> set[int]:
    """Ids of the nodes inside ``__all__ = [...]``: exporting is not calling."""
    inside: set[int] = set()
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            inside.update(id(child) for child in ast.walk(node))
    return inside


def _is_exempt(node: ast.AST) -> bool:
    if node.name.startswith("_") or node.name.startswith("visit_"):
        return True  # private/dunder, or NodeVisitor dispatch by name
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = getattr(target, "id", getattr(target, "attr", ""))
        if name.startswith("register_"):
            return True  # reached through a registry, not by name
    return False


def _reference_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        return node.value
    return None


def _scopes(where: str, tree: ast.Module):
    """Yield ``(statement, owners)`` for the module's statements, where
    ``owners`` are the keys of the top-level definition and top-level-class
    method the statement sits in: a reference inside them is self-reference."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, ()
            continue
        outer = f"{where}:{node.lineno}"
        if not isinstance(node, ast.ClassDef):
            yield node, (outer,)
            continue
        # the class header (bases, decorators, keywords) belongs to the class
        for header in (*node.bases, *node.keywords, *node.decorator_list):
            yield header, (outer,)
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield member, (outer, f"{where}:{member.lineno}")
            else:
                yield member, (outer,)


def uncalled_public_definitions(root: Path) -> list[str]:
    """Public top-level functions/classes and top-level-class methods under
    ``root/src`` whose name no file under :data:`CALLER_ROOTS` references
    from outside the definition itself.

    A reference is a ``Name``, an ``Attribute``, an ``ImportFrom`` name or
    an identifier string constant. ``__init__.py`` files and ``__all__``
    lists are skipped: re-exporting a name does not call it. A reference
    inside the definition's own body, its string annotations included
    (``-> "Cls"``), does not count: recursion is not a caller.
    """
    # name -> the owner keys of each place that references it
    referenced: dict[str, set[tuple[str, ...]]] = {}
    definitions: list[tuple[str, str, str]] = []
    for caller_root in CALLER_ROOTS:
        for path in sorted((root / caller_root).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            exported = _all_nodes(tree)
            where = path.relative_to(root).as_posix()
            for statement, owners in _scopes(where, tree):
                for node in ast.walk(statement):
                    if id(node) in exported:
                        continue
                    if isinstance(node, ast.ImportFrom):
                        for alias in node.names:
                            referenced.setdefault(alias.name, set()).add(owners)
                        continue
                    name = _reference_name(node)
                    if name is not None:
                        referenced.setdefault(name, set()).add(owners)
            if caller_root != "src":
                continue
            for node in tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if not _is_exempt(node):
                    definitions.append(
                        (node.name, f"{where}:{node.lineno}", f"{where}:{node.lineno} {node.name}")
                    )
                methods = node.body if isinstance(node, ast.ClassDef) else ()
                for method in methods:
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_exempt(method):
                        definitions.append((
                            method.name,
                            f"{where}:{method.lineno}",
                            f"{where}:{method.lineno} {node.name}.{method.name}",
                        ))
    return [
        label
        for name, key, label in definitions
        if not any(key not in owners for owners in referenced.get(name, ()))
    ]


def test_no_uncalled_public_definitions():
    """No public src definition outlives its last caller in src, examples
    or benchmarks; a kept one needs a reason in UNCALLED_EXCEPTIONS."""
    assert len(UNCALLED_EXCEPTIONS) <= 6, "the exception list is meant to stay short"
    uncalled = {label.split(" ", 1)[1]: label for label in uncalled_public_definitions(REPO)}
    unexpected = [label for name, label in uncalled.items() if name not in UNCALLED_EXCEPTIONS]
    stale = sorted(set(UNCALLED_EXCEPTIONS) - set(uncalled))
    assert not unexpected, (
        "public definitions nothing in src/examples/benchmarks calls "
        "(delete them, or justify them in UNCALLED_EXCEPTIONS):\n" + "\n".join(unexpected)
    )
    assert not stale, f"UNCALLED_EXCEPTIONS entries that now have a caller: {stale}"


def test_uncalled_definition_guard_can_fail(tmp_path):
    """The collector reports an uncalled method; a benchmark reference clears
    it, and an ``__all__`` entry alone does not. A class whose only
    reference is its own ``-> "Cls"`` annotation is reported too, until an
    example calls it."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    (tmp_path / "benchmarks").mkdir()
    (package / "__init__.py").write_text("from .mod import Widget\n__all__ = ['Widget']\n")
    (package / "mod.py").write_text(
        "__all__ = ['Widget', 'spin']\n\n"
        "class Widget:\n"
        "    def spin(self):\n"
        "        return 1\n\n"
        "def build():\n"
        "    return Widget()\n\n"
        "class Gadget:\n"
        "    def tune(self) -> \"Gadget\":\n"
        "        return self\n"
    )
    (tmp_path / "examples" / "demo.py").write_text("from pkg.mod import build\nbuild()\n")
    assert uncalled_public_definitions(tmp_path) == [
        "src/pkg/mod.py:4 Widget.spin",
        "src/pkg/mod.py:10 Gadget",
        "src/pkg/mod.py:11 Gadget.tune",
    ]

    (tmp_path / "examples" / "tune.py").write_text("from pkg.mod import Gadget\nGadget().tune()\n")
    assert uncalled_public_definitions(tmp_path) == ["src/pkg/mod.py:4 Widget.spin"]

    (tmp_path / "benchmarks" / "bench_spin.py").write_text(
        "from pkg.mod import build\nbuild().spin()\n"
    )
    assert uncalled_public_definitions(tmp_path) == []
