"""Regression checking between two bench records.

``repro bench --compare BASELINE.json`` runs the benchmark, builds a
fresh record, and calls :func:`compare_records` against the committed
baseline. A cell regresses when a watched metric grows by more than the
tolerance (``current > baseline * (1 + tolerance)``); the CLI exits
nonzero on any regression, which is what turns the bench trajectory from
a decoration into a gate.

Which metrics to watch depends on where the comparison runs:

* ``work`` / ``depth`` / ``peak_candidate`` are *deterministic* — the
  same code on the same graph charges the same cost on any machine, so
  CI compares them with a tight tolerance (they are the quantities the
  seed's ``has_clique`` bug would have tripped: a full count where an
  early-exit suffices multiplies tracked work, not just wall time);
* ``wall_mean`` is noisy and machine-dependent — compare it locally with
  a generous tolerance, or not at all in CI.

Count mismatches are always fatal: differing clique counts mean the two
records measured different computations, and no speedup excuses that.
Engine mismatches are fatal for the same reason — when both records
carry the resolved-engine tag (schema ≥ this version), a cell whose
baseline ran one engine and whose current run resolved to another is a
dispatch change, not a perf delta, and must be re-baselined explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from .records import entry_key

__all__ = [
    "CellDelta",
    "ComparisonReport",
    "compare_records",
    "DEFAULT_METRICS",
]

DEFAULT_METRICS: Tuple[str, ...] = ("work", "depth", "wall_mean")


@dataclass
class CellDelta:
    """One watched metric of one cell, baseline vs current."""

    key: Tuple[str, str, int]  # (graph, algorithm, k)
    metric: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.current > 0 else 1.0
        return self.current / self.baseline

    def describe(self) -> str:
        graph, algo, k = self.key
        return (
            f"{graph}/{algo}/k={k} {self.metric}: "
            f"{self.baseline:.6g} -> {self.current:.6g} "
            f"({self.ratio:.3f}x)"
        )


@dataclass
class ComparisonReport:
    """Outcome of one baseline-vs-current comparison."""

    tolerance: float
    metrics: Tuple[str, ...]
    regressions: List[CellDelta] = field(default_factory=list)
    improvements: List[CellDelta] = field(default_factory=list)
    count_mismatches: List[str] = field(default_factory=list)
    engine_mismatches: List[str] = field(default_factory=list)
    missing_cells: List[str] = field(default_factory=list)
    new_cells: List[str] = field(default_factory=list)
    compared_cells: int = 0

    @property
    def ok(self) -> bool:
        return (
            not self.regressions
            and not self.count_mismatches
            and not self.engine_mismatches
        )

    def breaches(self) -> List[str]:
        """One line per breached field: what failed, where, by how much.

        This is the exit-3 diagnostic: each line names the *metric* (or
        the fatal mismatch class) first, then the cell, so the CI
        log says which tolerance was breached without decoding the full
        summary.
        """
        lines: List[str] = []
        lines.extend(
            f"count mismatch (fatal) in cell {s.split(':', 1)[0]}"
            for s in self.count_mismatches
        )
        lines.extend(
            f"engine mismatch (fatal) in cell {s.split(':', 1)[0]}"
            for s in self.engine_mismatches
        )
        lines.extend(
            f"metric {d.metric!r} breached tolerance {self.tolerance:g} "
            f"in cell {d.key[0]}/{d.key[1]}/k={d.key[2]} "
            f"({d.baseline:.6g} -> {d.current:.6g})"
            for d in self.regressions
        )
        return lines

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"bench compare {status}: {self.compared_cells} cell(s), "
            f"metrics={','.join(self.metrics)}, tolerance={self.tolerance:g}"
        ]
        lines.extend(f"  COUNT MISMATCH {s}" for s in self.count_mismatches)
        lines.extend(f"  ENGINE MISMATCH {s}" for s in self.engine_mismatches)
        lines.extend(f"  REGRESSION {d.describe()}" for d in self.regressions)
        lines.extend(f"  improved   {d.describe()}" for d in self.improvements)
        lines.extend(f"  (baseline-only cell: {s})" for s in self.missing_cells)
        lines.extend(f"  (new cell, no baseline: {s})" for s in self.new_cells)
        return "\n".join(lines)


def compare_records(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.25,
    metrics: Sequence[str] = DEFAULT_METRICS,
    improvement_threshold: float = 0.10,
) -> ComparisonReport:
    """Compare two bench records cell by cell.

    A regression is ``current > baseline * (1 + tolerance)`` on any
    watched metric; an improvement is a drop of more than
    ``improvement_threshold`` (reported so a future PR can tighten the
    baseline). Cells present in only one record are reported but do not
    fail the comparison — the matrix is allowed to grow.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    report = ComparisonReport(tolerance=tolerance, metrics=tuple(metrics))
    base_by_key = {entry_key(e): e for e in baseline["entries"]}
    cur_by_key = {entry_key(e): e for e in current["entries"]}

    for key in sorted(base_by_key):
        if key not in cur_by_key:
            report.missing_cells.append("/".join(map(str, key)))
    for key in sorted(cur_by_key):
        if key not in base_by_key:
            report.new_cells.append("/".join(map(str, key)))
            continue
        base, cur = base_by_key[key], cur_by_key[key]
        report.compared_cells += 1
        if base["count"] != cur["count"]:
            report.count_mismatches.append(
                f"{'/'.join(map(str, key))}: baseline counted "
                f"{base['count']}, current counted {cur['count']}"
            )
            continue
        # Only enforceable when both records carry the tag: committed
        # baselines predating the `engine` field stay comparable.
        if (
            base.get("engine")
            and cur.get("engine")
            and base["engine"] != cur["engine"]
        ):
            report.engine_mismatches.append(
                f"{'/'.join(map(str, key))}: baseline ran engine "
                f"{base['engine']!r}, current resolved to {cur['engine']!r}"
            )
            continue
        for metric in metrics:
            if metric not in base or metric not in cur:
                continue
            delta = CellDelta(
                key=key,
                metric=metric,
                baseline=float(base[metric]),
                current=float(cur[metric]),
            )
            if delta.current > delta.baseline * (1.0 + tolerance):
                report.regressions.append(delta)
            elif delta.current < delta.baseline * (1.0 - improvement_threshold):
                report.improvements.append(delta)
    return report
