"""Finding formatters for terminal and machine consumption."""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .core import Finding

__all__ = ["format_text", "format_json"]


def format_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: RULE [symbol] message`` line per finding."""
    lines: List[str] = []
    for f in findings:
        lines.append(f"{f.location()}: {f.rule} [{f.symbol}] {f.message}")
    if findings:
        by_rule: Dict[str, int] = {}
        for f in findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        summary = ", ".join(f"{r}: {c}" for r, c in sorted(by_rule.items()))
        lines.append(f"{len(findings)} finding(s) ({summary})")
    else:
        lines.append("no findings")
    return "\n".join(lines)


def format_json(findings: Sequence[Finding]) -> str:
    payload = {
        "version": 1,
        "count": len(findings),
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "symbol": f.symbol,
                "message": f.message,
            }
            for f in findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
