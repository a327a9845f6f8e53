"""The budgeted differential-fuzz loop behind ``repro fuzz``.

Draws replayable cases from :mod:`repro.fuzz.strategies`, runs the
oracle suite from :mod:`repro.fuzz.oracles` on each, and on a violation:

* buckets the failure by ``(oracle, k)`` so one bug does not flood the
  report;
* shrinks the first case of each bucket with
  :func:`repro.fuzz.shrink.shrink_graph` (re-running the *same* oracle
  with the *same* seed, so metamorphic partners are pinned);
* writes a JSON repro artifact (case spec + shrunk edge list) and,
  optionally, a ready-to-commit pytest regression into
  ``tests/regressions/``.

Per-case metrics flow through :mod:`repro.obs.metrics` (``fuzz.*`` —
see docs/OBSERVABILITY.md), so a CI smoke run exports the same
observability document as a bench run.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..obs.metrics import MetricsRegistry
from .oracles import ORACLES, run_oracle, shared_brute_force
from .shrink import emit_regression, shrink_graph
from .strategies import CaseSpec, derive_seed, edge_list, sample_case

__all__ = ["FuzzFailure", "FuzzReport", "run_fuzz"]

DEFAULT_KS = (4, 5)


@dataclass
class FuzzFailure:
    """One oracle violation, with everything needed to replay it."""

    case: CaseSpec
    k: int
    oracle: str
    oracle_seed: int
    message: str
    bucket: str
    shrunk_vertices: Optional[int] = None
    shrunk_edges: Optional[List[Tuple[int, int]]] = None
    artifact_path: Optional[str] = None
    regression_path: Optional[str] = None

    def to_dict(self) -> Dict:
        return {
            "case": json.loads(self.case.to_json()),
            "k": self.k,
            "oracle": self.oracle,
            "oracle_seed": self.oracle_seed,
            "message": self.message,
            "bucket": self.bucket,
            "shrunk": None
            if self.shrunk_edges is None
            else {
                "num_vertices": self.shrunk_vertices,
                "edges": [list(p) for p in self.shrunk_edges],
            },
            "regression": self.regression_path,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    budget: int
    seed: int
    oracles: Tuple[str, ...]
    ks: Tuple[int, ...]
    cases: int = 0
    checks: int = 0
    elapsed: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)
    buckets: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"fuzz {status}: {self.cases} cases x "
            f"{len(self.oracles)} oracles x k∈{list(self.ks)} "
            f"({self.checks} checks, {self.elapsed:.1f}s, seed={self.seed})"
        ]
        for bucket in sorted(self.buckets):
            lines.append(f"  bucket {bucket}: {self.buckets[bucket]} case(s)")
        for failure in self.failures:
            lines.append(
                f"  VIOLATION [{failure.oracle} k={failure.k} "
                f"case={failure.case.label()}] {failure.message}"
            )
            if failure.shrunk_vertices is not None:
                lines.append(
                    f"    shrunk to {failure.shrunk_vertices} vertices / "
                    f"{len(failure.shrunk_edges or [])} edges"
                )
            if failure.regression_path:
                lines.append(f"    regression: {failure.regression_path}")
            if failure.artifact_path:
                lines.append(f"    artifact:   {failure.artifact_path}")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "oracles": list(self.oracles),
            "ks": list(self.ks),
            "cases": self.cases,
            "checks": self.checks,
            "elapsed": self.elapsed,
            "ok": self.ok,
            "buckets": dict(sorted(self.buckets.items())),
            "failures": [f.to_dict() for f in self.failures],
        }


def _write_artifact(directory: str, failure: FuzzFailure) -> str:
    os.makedirs(directory, exist_ok=True)
    name = f"fuzz_{failure.oracle}_k{failure.k}_{len(os.listdir(directory))}.json"
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(failure.to_dict(), fh, indent=2, sort_keys=True)
    return path


def _handle_failure(
    failure: FuzzFailure,
    graph: CSRGraph,
    shrink: bool,
    emit_dir: Optional[str],
    artifact_dir: Optional[str],
    metrics: MetricsRegistry,
) -> None:
    """Shrink + persist the first failure of a bucket."""
    if shrink:
        started = time.perf_counter()

        def still_failing(candidate: CSRGraph) -> bool:
            return bool(
                run_oracle(
                    failure.oracle, candidate, failure.k, seed=failure.oracle_seed
                )
            )

        small = shrink_graph(graph, still_failing)
        metrics.histogram("fuzz.shrink_wall_ms").record(
            (time.perf_counter() - started) * 1000.0
        )
        metrics.gauge("fuzz.shrunk_vertices").set(small.num_vertices)
        failure.shrunk_vertices = small.num_vertices
        failure.shrunk_edges = edge_list(small)
        if emit_dir is not None:
            failure.regression_path = emit_regression(
                emit_dir,
                small,
                failure.k,
                failure.oracle,
                oracle_seed=failure.oracle_seed,
                note=f"Found by case {failure.case.to_json()}",
            )
    if artifact_dir is not None:
        failure.artifact_path = _write_artifact(artifact_dir, failure)


def run_fuzz(
    budget: int = 100,
    seed: int = 0,
    oracles: Optional[Sequence[str]] = None,
    ks: Sequence[int] = DEFAULT_KS,
    max_vertices: int = 26,
    shrink: bool = True,
    emit_dir: Optional[str] = None,
    artifact_dir: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    time_limit: Optional[float] = None,
    verbose: bool = False,
) -> FuzzReport:
    """Run a fuzz campaign of ``budget`` cases; deterministic under ``seed``.

    ``oracles`` restricts the suite (default: all of
    :data:`repro.fuzz.oracles.ORACLES`); ``time_limit`` (seconds, > 0)
    stops drawing new cases early without breaking replayability — a
    longer run with the same seed visits a superset of the same cases.
    The limit is checked between cases, so every campaign runs at least
    one case. Failures are bucketed by ``(oracle, k)``; only the first
    case of each bucket is shrunk/emitted, later ones are counted.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if time_limit is not None and time_limit <= 0:
        raise ValueError(f"time_limit must be > 0, got {time_limit}")
    chosen = tuple(sorted(ORACLES) if oracles is None else oracles)
    for name in chosen:
        if name not in ORACLES:
            raise ValueError(
                f"unknown oracle {name!r}; choose from {sorted(ORACLES)}"
            )
    ks = tuple(ks)
    metrics = metrics if metrics is not None else MetricsRegistry()
    report = FuzzReport(budget=budget, seed=seed, oracles=chosen, ks=ks)
    rng = np.random.default_rng(seed)
    cases_counter = metrics.counter("fuzz.cases")
    checks_counter = metrics.counter("fuzz.checks")
    violations_counter = metrics.counter("fuzz.violations")
    vertices_hist = metrics.histogram("fuzz.case_vertices")
    edges_hist = metrics.histogram("fuzz.case_edges")
    wall_hist = metrics.histogram("fuzz.case_wall_ms")
    started = time.perf_counter()

    for index in range(budget):
        if (
            index > 0
            and time_limit is not None
            and time.perf_counter() - started > time_limit
        ):
            break
        spec = sample_case(rng, max_vertices=max_vertices)
        case_started = time.perf_counter()
        graph = spec.build()
        cases_counter.inc()
        vertices_hist.record(graph.num_vertices)
        edges_hist.record(graph.num_edges)
        # engines, variants and listings share one brute-force
        # enumeration per (case, k); the memo closes with the case.
        with shared_brute_force():
            for k in ks:
                for name in chosen:
                    oracle_seed = derive_seed(seed, index, name, k)
                    messages = run_oracle(name, graph, k, seed=oracle_seed)
                    checks_counter.inc()
                    metrics.counter(f"fuzz.oracle.{name}.checks").inc()
                    for message in messages:
                        violations_counter.inc()
                        metrics.counter(f"fuzz.oracle.{name}.violations").inc()
                        bucket = f"{name}:k={k}"
                        first = bucket not in report.buckets
                        report.buckets[bucket] = report.buckets.get(bucket, 0) + 1
                        failure = FuzzFailure(
                            case=spec,
                            k=k,
                            oracle=name,
                            oracle_seed=oracle_seed,
                            message=message,
                            bucket=bucket,
                        )
                        if first:
                            _handle_failure(
                                failure, graph, shrink, emit_dir, artifact_dir,
                                metrics,
                            )
                            report.failures.append(failure)
        wall_hist.record((time.perf_counter() - case_started) * 1000.0)
        report.cases += 1
        if verbose:
            print(
                f"case {index}: {spec.label()} n={graph.num_vertices} "
                f"m={graph.num_edges} "
                f"({'ok' if report.ok else len(report.failures)} so far)"
            )
    report.checks = int(checks_counter.value)
    report.elapsed = time.perf_counter() - started
    return report
