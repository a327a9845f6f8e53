"""Cross-engine self-check: a built-in randomized validator.

A reproduction's strongest evidence is agreement: this module runs every
counting engine in the repository (the six Table-1 variants, the
triangle-growing extension, the frontier executor — cold, warm,
kernelized, and over a sharded plan at unlimited and adversarially tiny
budgets — the process-parallel reference wrapper, and the three
baselines)
against each other — and against the brute-force oracle on small
instances — over randomized graphs, and reports the first disagreement.
Exposed as ``python -m repro selfcheck``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .baselines.arbcount import arbcount_count
from .baselines.bruteforce import brute_force_count
from .baselines.chiba_nishizeki import chiba_nishizeki_count
from .baselines.kclist import kclist_count
from .core.api import count_cliques
from .core.existence import find_clique
from .core.frontier import frontier_count_cliques
from .core.motifs import count_cliques_triangle_growing
from .core.parallel import count_cliques_parallel
from .core.prepared import PreparedGraph
from .core.sharded import sharded_count_cliques
from .core.variants import VARIANTS, run_variant
from .graphs.csr import CSRGraph
from .graphs.generators import gnm_random_graph, plant_cliques
from .pram.tracker import Tracker

__all__ = ["SelfCheckReport", "self_check"]


@dataclass
class SelfCheckReport:
    """Outcome of one self-check run."""

    trials: int
    engines: List[str]
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"self-check {status}: {self.trials} random instances × "
            f"{len(self.engines)} engines"
        ]
        lines.extend(f"  MISMATCH {f}" for f in self.failures)
        return "\n".join(lines)


def _warm_variant_count(g: CSRGraph, k: int, v: str) -> int:
    """Second query on a shared context (every piece a cache hit)."""
    ctx = PreparedGraph(g)
    run_variant(g, k, v, Tracker(), prepared=ctx)
    return run_variant(g, k, v, Tracker(), prepared=ctx).count


def _warm_frontier_count(g: CSRGraph, k: int) -> int:
    """Second frontier query on a shared context (tables served cached)."""
    ctx = PreparedGraph(g)
    frontier_count_cliques(g, k, prepared=ctx)
    return frontier_count_cliques(g, k, prepared=ctx)


def _auto_frontier_count(g: CSRGraph, k: int) -> int:
    """Default dispatch, asserting it actually routes to the frontier.

    ``count_cliques`` with everything at defaults is the paper regime
    (best-work counting, pruning on); for k ≥ 4 the recalibrated
    heuristic must resolve to the frontier engine — a silent fallback to
    a slower engine is a dispatch regression even when counts agree.
    """
    result = count_cliques(g, k)
    if k >= 4 and result.engine != "frontier":
        raise AssertionError(
            f"auto dispatch resolved to {result.engine!r} for k={k}; "
            f"expected 'frontier' ({result.engine_reason})"
        )
    return result.count


def _engines() -> Dict[str, object]:
    table: Dict[str, object] = {
        f"variant:{v}": (lambda g, k, v=v: run_variant(g, k, v, Tracker()).count)
        for v in VARIANTS
    }
    # Warm twins: the same variants served from a shared PreparedGraph,
    # answering from cached order/orientation/communities — a cache bug
    # (stale or cross-wired piece) shows up as a count mismatch here.
    table.update(
        {
            f"variant:{v}:warm": (
                lambda g, k, v=v: _warm_variant_count(g, k, v)
            )
            for v in VARIANTS
        }
    )
    table.update(
        {
            "kclist": lambda g, k: kclist_count(g, k).count,
            "arbcount": lambda g, k: arbcount_count(g, k).count,
            "chiba-nishizeki": lambda g, k: chiba_nishizeki_count(g, k).count,
            "triangle-growing": lambda g, k: count_cliques_triangle_growing(
                g, k
            ).count,
            "process-parallel": lambda g, k: count_cliques_parallel(
                g, k, n_workers=1
            ),
            "frontier": frontier_count_cliques,
            "frontier:warm": _warm_frontier_count,
            "frontier:kernelized": lambda g, k: count_cliques(
                g, k, engine="frontier", kernelize=True
            ).count,
            # The façade with engine dispatch left on auto (whatever the
            # heuristic picks must agree with everything else), plus the
            # stricter twin that also pins *which* engine auto resolves
            # to in the k >= 4 default regime.
            "engine:auto": lambda g, k: count_cliques(g, k).count,
            "engine:auto-frontier": _auto_frontier_count,
            # Out-of-core twins: unlimited budget (single shard — the
            # identity case) and a 1-byte budget (one vertex per shard,
            # maximal slicing) must both match every in-RAM engine.
            "sharded": lambda g, k: sharded_count_cliques(g, k),
            "sharded:tiny-budget": lambda g, k: sharded_count_cliques(
                g, k, memory_budget_bytes=1, verify=True
            ),
        }
    )
    return table


def _is_clique(graph: CSRGraph, vertices, k: int) -> bool:
    """Whether ``vertices`` really are ``k`` distinct pairwise-adjacent ids."""
    vs = list(vertices)
    if len(vs) != k or len(set(vs)) != k:
        return False
    return all(
        graph.has_edge(int(vs[i]), int(vs[j]))
        for i in range(k)
        for j in range(i + 1, k)
    )


def self_check(
    trials: int = 10,
    max_vertices: int = 28,
    k_values: Optional[List[int]] = None,
    seed: int = 0,
    verbose: bool = False,
) -> SelfCheckReport:
    """Fuzz all engines against each other (and the oracle when small).

    Each trial draws a random G(n, m), sometimes with a planted clique,
    and compares every engine's count for each k in ``k_values``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    ks = k_values if k_values is not None else [4, 5, 6]
    rng = np.random.default_rng(seed)
    engines = _engines()
    # find_clique is a decision engine, not a counter: it joins the check
    # through the consistency assertion below rather than the counts table.
    report = SelfCheckReport(
        trials=trials, engines=sorted(engines) + ["existence:find-clique"]
    )

    for trial in range(trials):
        n = int(rng.integers(6, max_vertices + 1))
        max_m = n * (n - 1) // 2
        m = int(rng.integers(n, max(max_m // 2, n + 1)))
        graph: CSRGraph = gnm_random_graph(n, min(m, max_m), seed=int(rng.integers(2**31)))
        if rng.random() < 0.5 and n >= 8:
            size = int(rng.integers(5, min(n, 9)))
            graph, _ = plant_cliques(
                graph, [size], seed=int(rng.integers(2**31))
            )
        for k in ks:
            counts = {name: fn(graph, k) for name, fn in engines.items()}
            reference: Optional[int] = None
            if n <= 30:
                reference = brute_force_count(graph, k)
                counts["brute-force"] = reference
            distinct = set(counts.values())
            if len(distinct) != 1:
                report.failures.append(
                    f"trial={trial} n={n} m={graph.num_edges} k={k}: {counts}"
                )
                continue
            # The early-exit existence search must agree with the counters
            # (this is the decision/counting consistency the has_clique
            # fast path rests on), and any witness must be a real clique.
            count = next(iter(distinct))
            witness = find_clique(graph, k)
            if (witness is not None) != (count > 0):
                report.failures.append(
                    f"trial={trial} n={n} m={graph.num_edges} k={k}: "
                    f"find_clique says {witness!r} but count is {count}"
                )
            elif witness is not None and not _is_clique(graph, witness, k):
                report.failures.append(
                    f"trial={trial} n={n} m={graph.num_edges} k={k}: "
                    f"find_clique witness {witness!r} is not a {k}-clique"
                )
            if verbose:
                print(
                    f"trial {trial}: n={n} m={graph.num_edges} k={k} "
                    f"count={next(iter(distinct))} ({len(counts)} engines agree)"
                )
    return report
