"""AST infrastructure shared by every lint rule.

The linter is deliberately self-contained (stdlib ``ast`` only) so it can
run in CI before any optional dependency is installed. A :class:`Module`
bundles one parsed file with the bookkeeping every rule needs: source
lines, inline suppressions, the set of module-level names, and the source
path relative to the repo root.

Suppressions are trailing comments::

    for v in order:          # lint: ignore[R1]
    def peel(graph, tracker):  # lint: ignore

``ignore`` with no bracket silences every rule on that line; a finding is
also suppressed when the comment sits on the ``def`` line of its enclosing
function (function-wide suppression).
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

__all__ = [
    "Finding",
    "Module",
    "Rule",
    "collect_python_files",
    "parse_module",
    "run_rules",
    "call_name",
    "root_name",
    "enclosing_map",
]

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    symbol: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class Module:
    """One parsed source file plus the context rules need."""

    path: str
    tree: ast.Module
    lines: List[str]
    # line number -> set of suppressed rule ids ("*" = all rules)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    module_globals: Set[str] = field(default_factory=set)
    # module-level names whose bound value is a mutable literal/constructor
    mutable_globals: Set[str] = field(default_factory=set)

    def suppressed(self, line: int, rule: str) -> bool:
        rules = self.suppressions.get(line)
        return bool(rules) and ("*" in rules or rule in rules)


class Rule:
    """Base class: one rule family, identified by ``rule_id``.

    Intra-module rules implement :meth:`check`. Interprocedural rules set
    ``requires_project = True`` and implement :meth:`check_project`
    instead — :func:`run_rules` hands them one shared
    :class:`~repro.lint.callgraph.Project` built over every scanned
    module.
    """

    rule_id: str = "R?"
    name: str = ""
    requires_project: bool = False

    def check(self, module: Module) -> List[Finding]:  # pragma: no cover
        raise NotImplementedError

    def check_project(self, project) -> List[Finding]:  # pragma: no cover
        raise NotImplementedError


def _scan_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    out: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(text)
        if m is None:
            continue
        if m.group(1) is None:
            out[lineno] = {"*"}
        else:
            out[lineno] = {r.strip() for r in m.group(1).split(",") if r.strip()}
    return out


_MUTABLE_CTORS = {"dict", "list", "set", "defaultdict", "deque", "Counter"}


def _module_globals(tree: ast.Module) -> tuple[Set[str], Set[str]]:
    names: Set[str] = set()
    mutable: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets, value = [node.target], node.value
        for t in targets:
            if isinstance(t, ast.Name):
                names.add(t.id)
                if isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                    isinstance(value, ast.Call)
                    and call_name(value) in _MUTABLE_CTORS
                ):
                    mutable.add(t.id)
    return names, mutable


def parse_module(path: str, root: Optional[str] = None) -> Module:
    """Parse one file into a :class:`Module` (raises ``SyntaxError``)."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    rel = os.path.relpath(path, root) if root else path
    tree = ast.parse(source, filename=rel)
    lines = source.splitlines()
    names, mutable = _module_globals(tree)
    return Module(
        path=rel,
        tree=tree,
        lines=lines,
        suppressions=_scan_suppressions(lines),
        module_globals=names,
        mutable_globals=mutable,
    )


def collect_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in {"__pycache__", ".git"}
                )
                for fn in sorted(filenames):
                    if fn.endswith(".py"):
                        out.append(os.path.join(dirpath, fn))
        elif p.endswith(".py"):
            out.append(p)
        else:
            raise FileNotFoundError(f"not a python file or directory: {p}")
    return sorted(dict.fromkeys(out))


def run_rules(
    modules: Iterable[Module],
    rules: Sequence[Rule],
    root: Optional[str] = None,
) -> List[Finding]:
    """Apply every rule to every module, dropping suppressed findings.

    Project rules (``requires_project``) run once over a shared
    :class:`~repro.lint.callgraph.Project`; their findings go through the
    same suppression filter via the module they landed in (findings in
    non-scanned files — e.g. a docs file — are kept as-is).
    """
    modules = list(modules)
    by_path: Dict[str, Module] = {m.path: m for m in modules}
    enclosing_cache: Dict[str, Dict[int, ast.AST]] = {}
    project = None

    def keep(f: Finding) -> bool:
        module = by_path.get(f.path)
        if module is None:
            return True
        if module.suppressed(f.line, f.rule):
            return False
        enclosing = enclosing_cache.get(f.path)
        if enclosing is None:
            enclosing = enclosing_cache[f.path] = enclosing_map(module.tree)
        fn = enclosing.get(f.line)
        return fn is None or not module.suppressed(fn.lineno, f.rule)

    findings: List[Finding] = []
    for rule in rules:
        if rule.requires_project:
            if project is None:
                from .callgraph import Project

                project = Project(modules, root=root)
            findings.extend(f for f in rule.check_project(project) if keep(f))
        else:
            for module in modules:
                findings.extend(f for f in rule.check(module) if keep(f))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# -- small AST helpers used by several rule families ----------------------


def call_name(node: ast.Call) -> str:
    """Dotted name of a call target (``np.flatnonzero``), '' if dynamic."""
    parts: List[str] = []
    cur: ast.expr = node.func
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return ""


def root_name(node: ast.expr) -> Optional[str]:
    """The base ``Name`` under a chain of subscripts/attributes/calls."""
    cur = node
    while True:
        if isinstance(cur, (ast.Subscript, ast.Attribute, ast.Starred)):
            cur = cur.value
        elif isinstance(cur, ast.Call):
            cur = cur.func
        elif isinstance(cur, ast.Name):
            return cur.id
        else:
            return None


def enclosing_map(tree: ast.Module) -> Dict[int, ast.AST]:
    """Map every source line to its innermost enclosing function def."""
    out: Dict[int, ast.AST] = {}

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                end = getattr(child, "end_lineno", child.lineno)
                for line in range(child.lineno, (end or child.lineno) + 1):
                    out[line] = child
            visit(child)

    visit(tree)
    return out


def qualsymbol(module: Module, node: ast.AST) -> str:
    """Best-effort symbol name for a finding (innermost function or module)."""
    target_line = getattr(node, "lineno", 0)
    best: Optional[ast.AST] = None
    best_span = None

    def visit(n: ast.AST, stack: List[str]) -> None:
        nonlocal best, best_span
        for child in ast.iter_child_nodes(n):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                end = getattr(child, "end_lineno", child.lineno) or child.lineno
                if child.lineno <= target_line <= end:
                    span = end - child.lineno
                    if best_span is None or span <= best_span:
                        best = child
                        best_span = span
                    visit(child, stack + [child.name])
                    continue
            visit(child, stack)

    visit(module.tree, [])
    return getattr(best, "name", "<module>")
