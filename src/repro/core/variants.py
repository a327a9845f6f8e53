"""The six Table-1 configurations of the clique-listing algorithm (§4).

Degeneracy-parameterized (Algorithm 1):

* ``best-work`` — exact degeneracy order: W = O(km((s+3−k)/2)^{k−2}),
  D = O(n + k log n).
* ``best-depth`` — (2+ε)-approximate degeneracy order:
  W = O(km((s(2+ε)+3−k)/2)^{k−2}), D = O(k log n + log² n).
* ``hybrid`` (§4.2) — approximate order outside, exact order inside each
  out-neighborhood: W = O(kns((s+3−k)/2)^{k−2}), D = O(s + k log n + log² n).

Community-degeneracy-parameterized (Algorithm 3):

* ``cd-best-work`` — exact greedy edge order (σ candidate sets).
* ``cd-best-depth`` — Algorithm 4's (3+ε)-approximate edge order.
* ``cd-hybrid`` — approximate edge order outside, exact degeneracy
  orientation inside each candidate subgraph.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.digraph import orient_by_order
from ..orders.degeneracy import degeneracy_order
from ..pram.cost import Cost
from ..pram.primitives import log2p1
from ..pram.schedule import TaskLog
from ..pram.tracker import Tracker
from .clique_listing import CliqueSearchResult, count_cliques_on_dag
from .community_variant import count_cliques_community_order
from .prepared import PreparedGraph, prepared_for
from .recursive import SearchStats

__all__ = ["VARIANTS", "run_variant"]

# Variants whose order construction consumes the approximation parameter
# (a prepared context is keyed per eps, so a mismatch must be an error,
# not a silently-wrong reuse).
_EPS_VARIANTS = ("best-depth", "hybrid", "cd-best-depth", "cd-hybrid")

VARIANTS = (
    "best-work",
    "best-depth",
    "hybrid",
    "cd-best-work",
    "cd-best-depth",
    "cd-hybrid",
)


def run_variant(
    graph: CSRGraph,
    k: int,
    variant: str,
    tracker: Tracker,
    eps: float = 0.5,
    collect: bool = False,
    prune: bool = True,
    prepared: Optional[PreparedGraph] = None,
) -> CliqueSearchResult:
    """Count (or list) k-cliques with one of the Table-1 variants.

    In listing mode (``collect=True``) the returned ``cliques`` are
    canonical: each clique a sorted tuple of original vertex ids, the list
    in lexicographic order. This is the *only* place the listing is
    sorted — consumers (``list_cliques``, tests, diffing two engines) must
    not pay for a second sort.

    ``prepared`` shares the query-independent preprocessing (order,
    orientation, communities, edge orders) across calls: the first query
    on a context is charged exactly like a cold run, later ones charge
    only the search. Without it the call builds everything on a private
    context.
    """
    result = _dispatch(graph, k, variant, tracker, eps, collect, prune, prepared)
    if collect and result.cliques is not None:
        result.cliques.sort()
    return result


def _dispatch(
    graph: CSRGraph,
    k: int,
    variant: str,
    tracker: Tracker,
    eps: float,
    collect: bool,
    prune: bool,
    prepared: Optional[PreparedGraph],
) -> CliqueSearchResult:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")
    ctx = prepared_for(graph, prepared, eps)
    if variant in _EPS_VARIANTS and ctx.eps != eps:
        raise ValueError(
            f"prepared context has eps={ctx.eps}, query asked for "
            f"eps={eps}; prepare a context per eps"
        )

    if variant == "hybrid":
        return _run_hybrid(
            graph, k, tracker, collect=collect, prune=prune, ctx=ctx
        )
    # Community-degeneracy variants need k >= 4; fall back to the plain
    # algorithm for trivial sizes (the edge order plays no role there).
    if variant in ("best-work", "best-depth") or k < 4:
        order = "approx" if variant == "best-depth" else "degeneracy"
        return count_cliques_on_dag(
            ctx.dag(order, tracker),
            k,
            tracker,
            comms=ctx.communities(order, tracker),
            collect=collect,
            prune=prune,
        )
    edge_order = ctx.edge_order(
        "exact" if variant == "cd-best-work" else "approx", tracker
    )
    # cd-hybrid (§4.3): approximate edge order outside, exact degeneracy
    # orientation inside each candidate subgraph.
    return count_cliques_community_order(
        graph,
        k,
        edge_order,
        tracker,
        collect=collect,
        inner_order="degeneracy" if variant == "cd-hybrid" else "id",
    )


def _count_in_subgraph(
    sub: CSRGraph,
    k: int,
    collect: bool,
    labels: np.ndarray,
    cliques: Optional[List[Tuple[int, ...]]],
    extra: Tuple[int, ...],
    prune: bool = True,
) -> Tuple[int, Cost, SearchStats]:
    """Count k-cliques of an induced subgraph with the exact-order engine.

    ``labels`` maps subgraph ids back to parent ids; ``extra`` vertices are
    prepended to every listed clique. Returns (count, task cost, stats);
    the cost is accumulated on a private sub-tracker and returned so the
    caller can charge it as one task of its parallel region (R1: a
    ``tracker`` parameter here would claim instrumentation this function
    does not provide).
    """
    sub_tracker = Tracker()
    if k == 1:
        cnt = sub.num_vertices
        if collect and cliques is not None:
            for v in range(cnt):
                cliques.append(tuple(sorted(extra + (int(labels[v]),))))
        return cnt, Cost(cnt, 1), SearchStats()
    if k == 2:
        cnt = sub.num_edges
        if collect and cliques is not None:
            us, vs = sub.edge_array()
            for u, v in zip(us, vs):
                cliques.append(
                    tuple(sorted(extra + (int(labels[u]), int(labels[v]))))
                )
        return cnt, Cost(2 * cnt, 1), SearchStats()

    order = degeneracy_order(sub, tracker=sub_tracker).order
    dag = orient_by_order(sub, order, tracker=sub_tracker)
    res = count_cliques_on_dag(dag, k, sub_tracker, collect=collect, prune=prune)
    if collect and cliques is not None and res.cliques is not None:
        for cl in res.cliques:
            cliques.append(tuple(sorted(extra + tuple(int(labels[x]) for x in cl))))
    return res.count, sub_tracker.total, res.stats


def _run_hybrid(
    graph: CSRGraph,
    k: int,
    tracker: Tracker,
    collect: bool,
    prune: bool,
    ctx: PreparedGraph,
) -> CliqueSearchResult:
    """§4.2: (2.5)-approximate order outside, exact order per N⁺(v)."""
    n = graph.num_vertices
    dag = ctx.dag("approx", tracker)

    stats = SearchStats()
    task_log = TaskLog()
    cliques: Optional[List[Tuple[int, ...]]] = [] if collect else None
    orig = dag.original_ids

    if k == 1:
        tracker.charge(Cost(n, 1))
        if collect:
            cliques.extend((v,) for v in range(n))
        return CliqueSearchResult(
            k=k, count=n, cost=tracker.total, stats=stats, task_log=task_log,
            phases=tracker.phases, gamma=0, max_out_degree=dag.max_out_degree,
            cliques=cliques,
        )

    total = 0
    max_gamma = 0
    undirected = graph
    metrics = tracker.metrics
    cand_hist = (
        metrics.histogram("search.candidate_size") if metrics is not None else None
    )
    with tracker.phase("search"):
        with tracker.parallel() as region:
            for v in range(n):
                out = dag.out_neighbors(v)
                if out.size < k - 1:
                    continue
                if cand_hist is not None:
                    cand_hist.record(int(out.size))
                # Induced subgraph on the out-neighborhood, in ORIGINAL ids.
                members = np.sort(orig[out]).astype(np.int32)
                sub, labels = undirected.subgraph(members)
                build_cost = Cost(
                    float(members.size) * (dag.max_out_degree + 1),
                    log2p1(members.size) + 1,
                )
                cnt, sub_cost, sub_stats = _count_in_subgraph(
                    sub,
                    k - 1,
                    collect,
                    labels,
                    cliques,
                    extra=(int(orig[v]),),
                    prune=prune,
                )
                total += cnt
                max_gamma = max(max_gamma, members.size)
                task_cost = build_cost + sub_cost
                region.add_task_cost(task_cost)
                task_log.add(task_cost)
                stats.merge(sub_stats)
    with tracker.phase("reduce"):
        tracker.charge(Cost(float(n), log2p1(n)))
    if metrics is not None:
        metrics.gauge("search.peak_candidate").set_max(max_gamma)
        metrics.counter("search.probes").inc(stats.probes)
        metrics.counter("search.intersections").inc(stats.intersections)
        metrics.counter("search.calls").inc(stats.calls)
        metrics.counter("search.emitted").inc(stats.emitted)

    return CliqueSearchResult(
        k=k,
        count=total,
        cost=tracker.total,
        stats=stats,
        task_log=task_log,
        phases=tracker.phases,
        gamma=max_gamma,
        max_out_degree=dag.max_out_degree,
        cliques=cliques,
    )

