"""R6 — frozen-array discipline (the PR 3 bug class, statically).

The repo's shared tables — CSR adjacency, the frontier tables and their
shard blocks — are built once and then read by many queries (and, when
the frontier executor runs with ``workers > 1``, by many forked workers
through copy-on-write pages).
The convention is to *seal* every such array with
``arr.setflags(write=False)`` / ``arr.flags.writeable = False`` so an
accidental in-place update raises instead of corrupting every later
query. PR 3 shipped exactly that bug: a constructor returned an internal
buffer unsealed and a caller's in-place AND corrupted the shared rows.

The rule enforces three contracts:

* **Missing seal** — a class documented as frozen (docstring mentions
  *immutable* / *frozen* / *read-only*, or the class has a ``freeze()``
  method) whose constructor builds a numpy array attribute that no
  method of the class ever seals.
* **Buffer aliasing** — a method of a frozen class that ``return``s such
  an *unsealed* constructor-born array (or a subscript view of it): the
  caller receives a writable handle into shared state. Sealed arrays may
  be returned freely — their views are read-only.
* **Frozen-parameter mutation** — a function whose docstring declares
  ``Frozen: <params>`` must not mutate those parameters: no
  subscript/attribute stores, no augmented assignment into them, no
  mutating numpy method (``.sort()``, ``.fill()``, ``.setflags()``, …),
  and no passing them as an ``out=`` target.

Mutation of a not-yet-sealed array *inside* the declaring class (e.g.
filling rows before ``freeze()``) is deliberately allowed — the
discipline is about what escapes the constructor, not how it fills.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from .core import Finding, Module, Rule, call_name, root_name

__all__ = ["FrozenArrayRule"]

_FROZEN_DOC_RE = re.compile(r"\b(immutable|frozen|read-only)\b", re.IGNORECASE)
_FROZEN_PARAM_RE = re.compile(r"^\s*Frozen:\s*(.+?)\s*$", re.MULTILINE)

# Call tails that allocate a fresh numpy array (the "born here" markers).
_ARRAY_FACTORIES = {
    "zeros", "ones", "empty", "full", "array", "asarray",
    "ascontiguousarray", "arange", "zeros_like", "ones_like", "empty_like",
    "full_like", "copy", "frombuffer", "fromiter", "tile", "repeat",
    "concatenate", "stack",
}

# In-place numpy mutators (receiver is modified, not replaced).
_ARRAY_MUTATORS = {
    "sort", "fill", "put", "itemset", "partition", "resize", "setflags",
    "append", "extend", "insert", "remove", "pop", "clear", "update", "add",
}


def _frozen_params(fn: ast.AST) -> Set[str]:
    """Parameter names declared ``Frozen:`` in the function docstring."""
    doc = ast.get_docstring(fn, clean=True) or ""
    out: Set[str] = set()
    for m in _FROZEN_PARAM_RE.finditer(doc):
        out.update(p for p in re.split(r"[,\s]+", m.group(1)) if p)
    return out


def _is_factory_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and call_name(node).split(".")[-1] in _ARRAY_FACTORIES
    )


def _self_attr(node: ast.expr) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class FrozenArrayRule(Rule):
    rule_id = "R6"
    name = "frozen-array-discipline"

    def check(self, module: Module) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_frozen_params(module, node))
        return findings

    # -- frozen classes ----------------------------------------------------

    @staticmethod
    def _is_frozen_class(cls: ast.ClassDef) -> bool:
        doc = ast.get_docstring(cls) or ""
        if _FROZEN_DOC_RE.search(doc):
            return True
        return any(
            isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            and m.name == "freeze"
            for m in cls.body
        )

    def _check_class(
        self, module: Module, cls: ast.ClassDef
    ) -> List[Finding]:
        if not self._is_frozen_class(cls):
            return []
        born = self._constructor_born_arrays(cls)
        if not born:
            return []
        sealed = self._sealed_attrs(cls)
        findings: List[Finding] = []
        for attr, assign in sorted(born.items()):
            if attr in sealed:
                continue
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=module.path,
                    line=assign.lineno,
                    col=assign.col_offset,
                    symbol=f"{cls.name}.__init__",
                    message=(
                        f"frozen class '{cls.name}' builds array attribute "
                        f"'{attr}' but never seals it; add "
                        f"'self.{attr}.setflags(write=False)' once filled"
                    ),
                )
            )
        unsealed = set(born) - sealed
        if unsealed:
            findings.extend(self._check_alias_returns(module, cls, unsealed))
        return findings

    @staticmethod
    def _constructor_born_arrays(cls: ast.ClassDef) -> Dict[str, ast.stmt]:
        """``self.X = <fresh numpy array>`` assignments in ``__init__``."""
        init = next(
            (
                m
                for m in cls.body
                if isinstance(m, ast.FunctionDef) and m.name == "__init__"
            ),
            None,
        )
        if init is None:
            return {}
        # Locals assigned from a factory call count too: the common shape
        # is ``arr = np.ascontiguousarray(arg); self.arr = arr``.
        factory_locals: Set[str] = set()
        born: Dict[str, ast.stmt] = {}
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign):
                continue
            from_factory = _is_factory_call(stmt.value) or (
                isinstance(stmt.value, ast.Name)
                and stmt.value.id in factory_locals
            )
            for target in stmt.targets:
                if isinstance(target, ast.Name) and _is_factory_call(stmt.value):
                    factory_locals.add(target.id)
                attr = _self_attr(target)
                if attr is not None and from_factory:
                    born.setdefault(attr, stmt)
        return born

    @staticmethod
    def _sealed_attrs(cls: ast.ClassDef) -> Set[str]:
        """Attributes sealed anywhere in the class body.

        Recognizes ``<recv>.X.setflags(write=False)`` and
        ``<recv>.X.flags.writeable = False`` for any simple receiver name
        (``self`` in methods, the instance variable in classmethod
        constructors).
        """
        sealed: Set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setflags"
                    and isinstance(node.func.value, ast.Attribute)
                    and isinstance(node.func.value.value, ast.Name)
                    and any(
                        kw.arg == "write"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                        for kw in node.keywords
                    )
                ):
                    sealed.add(node.func.value.attr)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "writeable"
                        and isinstance(target.value, ast.Attribute)
                        and target.value.attr == "flags"
                        and isinstance(target.value.value, ast.Attribute)
                        and isinstance(node.value, ast.Constant)
                        and node.value.value is False
                    ):
                        sealed.add(target.value.value.attr)
        return sealed

    def _check_alias_returns(
        self, module: Module, cls: ast.ClassDef, unsealed: Set[str]
    ) -> List[Finding]:
        findings: List[Finding] = []
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                value = node.value
                # Unwrap subscript views: ``return self._buf[a:b]`` still
                # aliases the buffer.
                while isinstance(value, ast.Subscript):
                    value = value.value
                attr = _self_attr(value)
                if attr is not None and attr in unsealed:
                    findings.append(
                        Finding(
                            rule=self.rule_id,
                            path=module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            symbol=f"{cls.name}.{method.name}",
                            message=(
                                f"'{cls.name}.{method.name}' returns the "
                                f"unsealed internal buffer '{attr}'; the "
                                "caller gets a writable alias into shared "
                                "state — seal the array or return a copy"
                            ),
                        )
                    )
        return findings

    # -- Frozen: parameter contracts ---------------------------------------

    def _check_frozen_params(
        self, module: Module, fn: ast.AST
    ) -> List[Finding]:
        frozen = _frozen_params(fn)
        if not frozen:
            return []
        findings: List[Finding] = []

        def emit(node: ast.AST, message: str) -> None:
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=module.path,
                    line=getattr(node, "lineno", fn.lineno),
                    col=getattr(node, "col_offset", 0),
                    symbol=fn.name,
                    message=message,
                )
            )

        for sub in ast.walk(fn):
            if isinstance(sub, (ast.Subscript, ast.Attribute)) and isinstance(
                sub.ctx, ast.Store
            ):
                base = root_name(sub)
                if base in frozen:
                    emit(
                        sub,
                        f"'{fn.name}' writes into parameter '{base}' "
                        "declared Frozen in its docstring",
                    )
            elif isinstance(sub, ast.AugAssign) and isinstance(
                sub.target, (ast.Subscript, ast.Attribute)
            ):
                base = root_name(sub.target)
                if base in frozen:
                    emit(
                        sub,
                        f"'{fn.name}' accumulates into parameter '{base}' "
                        "declared Frozen in its docstring",
                    )
            elif isinstance(sub, ast.Call):
                if isinstance(sub.func, ast.Attribute):
                    base = root_name(sub.func)
                    if base in frozen and sub.func.attr in _ARRAY_MUTATORS:
                        emit(
                            sub,
                            f"'{fn.name}' calls in-place mutator "
                            f"'.{sub.func.attr}()' on Frozen parameter "
                            f"'{base}'",
                        )
                for kw in sub.keywords:
                    if kw.arg == "out" and root_name(kw.value) in frozen:
                        emit(
                            sub,
                            f"'{fn.name}' passes Frozen parameter "
                            f"'{root_name(kw.value)}' as an out= target "
                            f"of '{call_name(sub)}'",
                        )
        return findings
