"""Repo-aware static analysis for the reproduction's own invariants.

Eight rule families, each enforcing a property the test suite cannot see.
Intra-module (one file at a time):

* **R1** instrumentation completeness — tracker-accepting functions must
  charge every loop (:mod:`~repro.lint.rules_instrumentation`);
* **R2** parallel-region purity — no shared-scope writes inside
  ``region.task()`` blocks or forked executor workers
  (:mod:`~repro.lint.rules_purity`);
* **R3** determinism — no hash-ordered iteration feeding output, no
  ``eval``, no process-global RNG (:mod:`~repro.lint.rules_determinism`);
* **R4** complexity smells — list membership probes and repeated
  expensive preprocessing inside loops
  (:mod:`~repro.lint.rules_complexity`).

Interprocedural, on the project call graph
(:mod:`~repro.lint.callgraph`):

* **R5** parallel-region escape — functions *reachable from* worker
  entry points must not write module globals, mutate default-arg
  containers, or call impure stdlib APIs
  (:mod:`~repro.lint.rules_escape`);
* **R6** frozen-array discipline — arrays born in frozen-class
  constructors must be sealed and never escape writable; ``Frozen:``
  docstring parameters must not be mutated
  (:mod:`~repro.lint.rules_frozen`);
* **R7** PRAM contract certifier — ``Work:``/``Depth:`` docstring bounds
  vs. loop nesting and callee contracts
  (:mod:`~repro.lint.rules_contracts`);
* **R8** instrumentation drift — ``tracker.phase``/metric call sites vs.
  the tables in docs/OBSERVABILITY.md (:mod:`~repro.lint.rules_obs`).

Run via ``python -m repro lint [paths] [--format text|json] [--rules
IDS]``; suppress single findings with a trailing ``# lint: ignore[R1]``
comment. Every finding is fixed or suppressed inline; none is carried in
a file. The runtime counterpart — the CREW write-set sanitizer — lives
in :mod:`repro.pram.sanitize`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .callgraph import Project
from .core import Finding, Module, Rule, collect_python_files, parse_module, run_rules
from .reporting import format_json, format_text
from .rules_complexity import ComplexityRule
from .rules_contracts import ContractRule
from .rules_determinism import DeterminismRule
from .rules_escape import EscapeRule
from .rules_frozen import FrozenArrayRule
from .rules_instrumentation import InstrumentationRule
from .rules_obs import ObsDriftRule
from .rules_purity import PurityRule

__all__ = [
    "ALL_RULES",
    "Finding",
    "Module",
    "Project",
    "Rule",
    "run_lint",
    "collect_python_files",
    "parse_module",
    "format_text",
    "format_json",
    "rules_by_id",
]

ALL_RULES: Sequence[Rule] = (
    InstrumentationRule(),
    PurityRule(),
    DeterminismRule(),
    ComplexityRule(),
    EscapeRule(),
    FrozenArrayRule(),
    ContractRule(),
    ObsDriftRule(),
)


def rules_by_id(spec: str) -> List[Rule]:
    """Resolve ``"R5,R6"``-style selectors against :data:`ALL_RULES`."""
    wanted = {s.strip().upper() for s in spec.split(",") if s.strip()}
    known = {rule.rule_id for rule in ALL_RULES}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})"
        )
    return [rule for rule in ALL_RULES if rule.rule_id in wanted]


def run_lint(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[str] = None,
) -> List[Finding]:
    """Lint files/directories and return all unsuppressed findings."""
    selected = ALL_RULES if rules is None else rules
    modules = [parse_module(p, root=root) for p in collect_python_files(paths)]
    return run_rules(modules, selected, root=root)
