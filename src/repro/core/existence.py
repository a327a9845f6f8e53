"""Decision queries: k-clique existence, maximum clique size, spectrum.

The listing engines enumerate everything; the decision problem ("is there
a k-clique?") admits an early-exit search with the same pruning. This
module provides:

* :func:`find_clique` — return one k-clique or ``None``, abandoning the
  search at the first witness (worst case matches the counting bound, but
  typical instances exit after a tiny fraction of the work);
* :func:`max_clique_size` — the clique number ω computed by scanning k
  downward from the degeneracy bound ω ≤ s + 1 (§1.1);
* :func:`clique_spectrum` — counts for every k in one pass over a shared
  preprocessing (orientation + communities built once).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.digraph import OrientedDAG
from ..pram.tracker import NULL_TRACKER, Tracker
from ..triangles.communities import EdgeCommunities
from .clique_listing import count_cliques_on_dag
from .prepared import PreparedGraph, prepared_for

__all__ = ["find_clique", "max_clique_size", "clique_spectrum"]


class _Found(Exception):
    """Internal control flow: a witness clique was found."""

    def __init__(self, vertices: List[int]):
        self.vertices = vertices


def _search_one(
    dag: OrientedDAG,
    comms: EdgeCommunities,
    candidates: np.ndarray,
    c: int,
    prefix: List[int],
) -> None:
    """Depth-first early-exit variant of Algorithm 2 (raises _Found)."""
    if c == 1:
        if candidates.size:
            raise _Found(prefix + [int(candidates[0])])
        return
    if c == 2:
        for i in range(candidates.size - 1):
            u = int(candidates[i])
            hits = np.intersect1d(
                dag.out_neighbors(u), candidates[i + 1 :], assume_unique=True
            )
            if hits.size:
                raise _Found(prefix + [u, int(hits[0])])
        return
    gap = c - 1
    for i in range(candidates.size - gap):
        u = int(candidates[i])
        targets = candidates[i + gap :]
        hits = np.intersect1d(dag.out_neighbors(u), targets, assume_unique=True)
        for v in hits.tolist():
            eid = dag.edge_id(u, v)
            sub = np.intersect1d(candidates, comms.of(eid), assume_unique=True)
            if sub.size >= c - 2:
                _search_one(dag, comms, sub, c - 2, prefix + [u, v])


def _witness_on_dag(
    dag: OrientedDAG, comms: EdgeCommunities, k: int
) -> Optional[Tuple[int, ...]]:
    """One k-clique (k >= 3) on a prebuilt orientation, or ``None``.

    Factored out of :func:`find_clique` so callers that probe several k
    (e.g. :func:`max_clique_size`) pay for the orientation and the edge
    communities once instead of once per query (R4).
    """
    orig = dag.original_ids

    if k == 3:
        sizes = comms.sizes
        hit = np.flatnonzero(sizes > 0)
        if hit.size == 0:
            return None
        eid = int(hit[0])
        us, vs = dag.edge_endpoints()
        w = int(comms.of(eid)[0])
        return tuple(sorted((int(orig[us[eid]]), int(orig[w]), int(orig[vs[eid]]))))

    eligible = np.flatnonzero(comms.sizes >= k - 2)
    us, vs = dag.edge_endpoints()
    try:
        for eid in eligible.tolist():
            _search_one(
                dag,
                comms,
                comms.of(eid),
                k - 2,
                [int(us[eid]), int(vs[eid])],
            )
    except _Found as found:
        return tuple(sorted(int(orig[v]) for v in found.vertices))
    return None


def find_clique(
    graph: CSRGraph,
    k: int,
    tracker: Tracker = NULL_TRACKER,
    prepared: Optional[PreparedGraph] = None,
) -> Optional[Tuple[int, ...]]:
    """Return one k-clique (sorted original vertex ids) or ``None``.

    Uses the exact degeneracy orientation and exits at the first witness.
    ``prepared`` shares the orientation/communities with other queries;
    the degeneracy fast path (``k > s + 1`` → ``None`` without building
    communities) is preserved either way.
    """
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")
    ctx = prepared_for(graph, prepared)
    n = graph.num_vertices
    if k == 1:
        return (0,) if n else None
    if k == 2:
        us, vs = graph.edge_array()
        return (int(us[0]), int(vs[0])) if us.size else None
    if k > ctx.degeneracy(tracker) + 1:
        return None  # an s-degenerate graph has no (s+2)-clique (§1.1)
    dag = ctx.dag("degeneracy", tracker)
    comms = ctx.communities("degeneracy", tracker)
    return _witness_on_dag(dag, comms, k)


def max_clique_size(
    graph: CSRGraph,
    tracker: Tracker = NULL_TRACKER,
    prepared: Optional[PreparedGraph] = None,
) -> int:
    """The clique number ω, via early-exit searches from s+1 downward.

    An s-degenerate graph has ω ≤ s + 1, so at most s − 1 existence
    queries are needed; the orientation and edge communities are built
    once and shared by every query (they depend only on the graph) — or
    reused from ``prepared`` across *calls* as well.
    """
    ctx = prepared_for(graph, prepared)
    n = graph.num_vertices
    if n == 0:
        return 0
    if graph.num_edges == 0:
        return 1
    s = ctx.degeneracy(tracker)
    dag = ctx.dag("degeneracy", tracker)
    comms = ctx.communities("degeneracy", tracker)
    for k in range(s + 1, 2, -1):
        if _witness_on_dag(dag, comms, k) is not None:
            return k
    return 2  # there is at least one edge


def clique_spectrum(
    graph: CSRGraph,
    k_max: Optional[int] = None,
    tracker: Tracker = NULL_TRACKER,
    prepared: Optional[PreparedGraph] = None,
) -> Dict[int, int]:
    """Counts of k-cliques for every k from 1 to ``k_max`` (default ω bound).

    Orientation and communities are built once and shared across all k,
    which is how a user profiles a graph's "clique spectrum" (the intro's
    motif-statistics use case) without paying preprocessing per size.
    With ``prepared`` they are shared across *calls* too.
    """
    ctx = prepared_for(graph, prepared)
    n = graph.num_vertices
    s = ctx.degeneracy(tracker)
    bound = s + 1 if graph.num_edges else 1
    top = bound if k_max is None else min(k_max, bound)
    spectrum: Dict[int, int] = {}
    if n == 0:
        return spectrum
    dag = ctx.dag("degeneracy", tracker)
    comms = ctx.communities("degeneracy", tracker)
    for k in range(1, max(top, 1) + 1):
        sub_tracker = Tracker() if tracker.enabled else NULL_TRACKER
        result = count_cliques_on_dag(dag, k, sub_tracker, comms=comms)
        if tracker.enabled:
            tracker.charge(sub_tracker.total)
        spectrum[k] = result.count
        if result.count == 0 and k >= 2:
            # No k-clique implies no larger clique; fill zeros and stop.
            for kk in range(k + 1, max(top, 1) + 1):
                spectrum[kk] = 0
            break
    if k_max is not None:
        for kk in range(top + 1, k_max + 1):
            spectrum[kk] = 0
    return spectrum
