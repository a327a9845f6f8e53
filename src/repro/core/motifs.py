"""Triangle-growing clique search — the paper's §5 future-work extension.

The conclusion asks: *"It might be interesting to consider generalizations
that extend the cliques by larger motifs such as triangles."* This module
implements that generalization: instead of adding an edge (2 vertices) per
recursion level, each level adds a *triangle* (3 vertices), cutting the
recursion depth from ⌊(k−2)/2⌋ to ⌈(k−2)/3⌉ levels.

Unique counting: the remaining clique vertices S (|S| = c) are consumed by
the triple ``(u, w, v)`` where ``u = min S``, ``v = max S`` and ``w`` is
the *second-smallest* element; the residual set then lies strictly between
``w`` and ``v`` inside ``C(u, v) ∩ N(w)``, so each clique decomposes into
exactly one chain of triangles. The relevant-pair pruning carries over:
``(u, v)`` still needs ``δ_I(u, v) ≥ c − 2``, and ``w`` needs at least
``c − 3`` candidates after it inside ``I ∩ C(u, v)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.digraph import OrientedDAG
from ..pram.cost import Cost
from ..pram.primitives import log2p1
from ..pram.schedule import TaskLog
from ..pram.tracker import Tracker
from ..triangles.communities import EdgeCommunities
from .clique_listing import CliqueSearchResult
from .prepared import prepared_for
from .recursive import SearchStats

__all__ = ["count_cliques_triangle_growing"]


def _recurse_triangles(
    dag: OrientedDAG,
    comms: EdgeCommunities,
    candidates: np.ndarray,
    c: int,
    k: int,
    stats: SearchStats,
) -> Tuple[int, float]:
    """Count c-cliques in DAG[candidates], consuming 3 vertices per level."""
    stats.calls += 1
    I = candidates
    ni = int(I.size)

    if c == 1:
        stats.work += k * ni
        stats.emitted += ni
        return ni, 1.0

    if c == 2:
        count = 0
        for i in range(ni - 1):
            u = int(I[i])
            hits = np.intersect1d(
                dag.out_neighbors(u), I[i + 1 :], assume_unique=True
            )
            stats.probes += int(ni - 1 - i)
            count += int(hits.size)
        stats.work += ni * ni / 2 + k * count
        stats.emitted += count
        return count, 1.0 + log2p1(ni)

    if c == 3:
        # Count triangles of DAG[I]: each via its extreme pair (u, v).
        count = 0
        for i in range(ni - 2):
            u = int(I[i])
            targets = I[i + 2 :]
            stats.probes += int(targets.size)
            hits = np.intersect1d(dag.out_neighbors(u), targets, assume_unique=True)
            for v in hits.tolist():
                eid = dag.edge_id(u, v)
                inner = np.intersect1d(I, comms.of(eid), assume_unique=True)
                stats.work += float(inner.size + ni)
                count += int(inner.size)
        stats.emitted += count
        stats.work += k * count
        return count, 1.0 + log2p1(ni)

    # c >= 4: pick the extreme pair (u, v), then the second-smallest w.
    gap = c - 1  # delta_I(u, v) >= c - 2
    count = 0
    max_child = 0.0
    for i in range(ni - gap):
        u = int(I[i])
        targets = I[i + gap :]
        stats.probes += int(targets.size)
        hits = np.intersect1d(dag.out_neighbors(u), targets, assume_unique=True)
        for v in hits.tolist():
            eid = dag.edge_id(u, v)
            middle = np.intersect1d(I, comms.of(eid), assume_unique=True)
            stats.intersections += 1
            stats.work += float(middle.size + ni)
            if middle.size < c - 2:
                continue
            # w must leave >= c-3 candidates of `middle` after it.
            for j in range(middle.size - (c - 3)):
                w = int(middle[j])
                rest = middle[j + 1 :]
                # Residual candidates: strictly after w, adjacent to w.
                sub = np.intersect1d(
                    dag.out_neighbors(w), rest, assume_unique=True
                )
                stats.intersections += 1
                stats.work += float(rest.size + dag.out_degree(w))
                if sub.size < c - 3:
                    continue
                got, child = _recurse_triangles(dag, comms, sub, c - 3, k, stats)
                count += got
                if child > max_child:
                    max_child = child
    depth = 1.0 + log2p1(ni) + log2p1(comms.max_size) + max_child
    return count, depth


def count_cliques_triangle_growing(
    graph: CSRGraph,
    k: int,
    tracker: Optional[Tracker] = None,
) -> CliqueSearchResult:
    """Count k-cliques by growing triangles instead of edges (§5).

    Same preprocessing as the best-work variant (exact degeneracy order +
    edge communities); the recursion consumes 3 vertices per level. Counts
    are identical to every other engine — only the work/depth profile
    changes (fewer, wider levels).
    """
    tracker = tracker if tracker is not None else Tracker()
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")

    ctx = prepared_for(graph)
    dag = ctx.dag("degeneracy", tracker)
    comms = ctx.communities("degeneracy", tracker)

    stats = SearchStats()
    task_log = TaskLog()
    n = dag.num_vertices
    m = dag.num_edges

    if k == 1:
        tracker.charge(Cost(n, 1))
        total = n
    elif k == 2:
        tracker.charge(Cost(m, 1))
        total = m
    elif k == 3:
        tracker.charge(Cost(m, log2p1(m)))
        total = comms.num_triangles
    else:
        eligible = np.flatnonzero(comms.sizes >= (k - 2))
        tracker.charge(Cost(m, log2p1(m) + 1))
        total = 0
        with tracker.phase("search"):
            with tracker.parallel() as region:
                for eid in eligible.tolist():
                    edge_stats = SearchStats()
                    got, depth = _recurse_triangles(
                        dag, comms, comms.of(eid), k - 2, k, edge_stats
                    )
                    total += got
                    cost = Cost(edge_stats.work, depth)
                    region.add_task_cost(cost)
                    task_log.add(cost)
                    stats.merge(edge_stats)

    return CliqueSearchResult(
        k=k,
        count=total,
        cost=tracker.total,
        stats=stats,
        task_log=task_log,
        phases=tracker.phases,
        gamma=comms.max_size,
        max_out_degree=dag.max_out_degree,
        cliques=None,
    )
