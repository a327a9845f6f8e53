"""k-clique densest subgraph — the downstream application of [54].

Tsourakakis (WWW'15): find the subgraph maximizing the *k-clique density*
ρ_k(S) = (#k-cliques in G[S]) / |S|. The greedy peel — repeatedly remove
the vertex contained in the fewest k-cliques and keep the best prefix —
is a 1/k-approximation. It needs exactly the primitive this library
provides: per-vertex k-clique counts, recomputed as the graph shrinks.

This is both a worked "what the engine is for" application and the
k-clique *peeling* direction of Shi et al.'s title ("Parallel clique
counting and peeling algorithms").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.kernels import kcore_kernel
from ..pram.tracker import NULL_TRACKER, Tracker
from .clique_listing import count_cliques_on_dag
from .prepared import PreparedGraph, prepared_for

__all__ = ["per_vertex_clique_counts", "DensestResult", "kclique_densest_subgraph"]


def per_vertex_clique_counts(
    graph: CSRGraph,
    k: int,
    tracker: Tracker = NULL_TRACKER,
    prepared: Optional[PreparedGraph] = None,
) -> np.ndarray:
    """``counts[v]`` = number of k-cliques containing vertex ``v``.

    Computed from the listing engine (each clique contributes to k
    entries). Sum of the array equals ``k × (#k-cliques)``. ``prepared``
    reuses a shared orientation/communities, which matters when this is
    called per ``k`` on the same graph (the densest-subgraph peel builds
    fresh subgraphs per iteration, so it cannot reuse one).
    """
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")
    ctx = prepared_for(graph, prepared)
    n = graph.num_vertices
    counts = np.zeros(n, dtype=np.int64)
    if n == 0:
        return counts
    if k == 1:
        return np.ones(n, dtype=np.int64)
    if k == 2:
        return graph.degrees.astype(np.int64)
    dag = ctx.dag("degeneracy", tracker)
    comms = ctx.communities("degeneracy", tracker)
    sub_tracker = Tracker() if tracker.enabled else NULL_TRACKER
    res = count_cliques_on_dag(dag, k, sub_tracker, comms=comms, collect=True)
    if tracker.enabled:
        tracker.charge(sub_tracker.total)
    for clique in res.cliques or []:
        for v in clique:
            counts[v] += 1
    return counts


@dataclass(frozen=True)
class DensestResult:
    """Output of the greedy k-clique densest-subgraph peel."""

    vertices: Tuple[int, ...]  # the best subgraph found (original ids)
    density: float  # k-cliques per vertex in that subgraph
    k: int
    densities: Dict[int, float]  # peel-size -> density trace (for plots)


def kclique_densest_subgraph(
    graph: CSRGraph, k: int, tracker: Tracker = NULL_TRACKER
) -> DensestResult:
    """Greedy 1/k-approximate k-clique densest subgraph [Tsourakakis'15].

    Repeatedly removes the vertex in the fewest k-cliques, tracking the
    density of every prefix and returning the best one. The instance is
    first kernelized to the (k−1)-core (vertices outside it are in no
    k-clique and never belong to the optimum's support... they can only
    lower the density).
    """
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")
    kernel = kcore_kernel(graph, k, tracker=tracker)
    g = kernel.graph
    labels = kernel.labels
    if g.num_vertices == 0:
        return DensestResult(vertices=(), density=0.0, k=k, densities={})

    active = np.ones(g.num_vertices, dtype=bool)
    best_density = -1.0
    best_set: Tuple[int, ...] = ()
    trace: Dict[int, float] = {}

    while active.any():
        members = np.flatnonzero(active).astype(np.int32)
        sub, sub_labels = g.subgraph(members)
        counts = per_vertex_clique_counts(sub, k, tracker=tracker)
        total = int(counts.sum()) // k if k > 0 else 0
        density = total / members.size
        trace[int(members.size)] = density
        if density > best_density:
            best_density = density
            best_set = tuple(sorted(int(labels[v]) for v in members))
        if total == 0:
            break
        # Remove the vertex in the fewest cliques (ties -> smallest id).
        victim = int(sub_labels[int(np.argmin(counts))])
        active[victim] = False

    return DensestResult(
        vertices=best_set, density=max(best_density, 0.0), k=k, densities=trace
    )
