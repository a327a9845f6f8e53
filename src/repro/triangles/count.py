"""Triangle listing and counting on oriented DAGs.

The standard O(m·s̃)-work, O(log² n)-depth oriented enumeration
[Shi et al.'20, Chiba–Nishizeki'85]: for each directed edge ``(u, w)``
intersect ``N⁺(u)`` with ``N⁺(w)``; every completion vertex ``v`` yields
the triangle ``u < w < v`` exactly once. Triangles are reported with their
DAG roles: ``(u, w, v)`` where ``(u, v)`` is the *supporting* edge (first
and last vertex in the order) and ``w`` the community member.

The intersection runs as a vectorized wedge check: the candidates for
``(u, w)`` are the later out-neighbours ``v`` of ``u``, and a candidate
survives when ``(w, v)`` is a DAG edge (:meth:`OrientedDAG.edge_ids`).
Wedges are generated in edge order, in chunks of at most
:data:`WEDGE_CHUNK`, so the rows come out in lexicographic ``(u, w, v)``
order with bounded temporaries.
"""

from __future__ import annotations

import numpy as np

from ..graphs.digraph import OrientedDAG
from ..pram.cost import Cost
from ..pram.primitives import log2p1
from ..pram.tracker import NULL_TRACKER, Tracker

__all__ = [
    "list_triangles",
    "count_triangles",
    "per_edge_triangle_counts",
    "supporting_edge_ids",
]

# Wedges checked per vectorized step: bounds the per-step temporaries
# (a few int64 arrays of this length) independently of the graph.
WEDGE_CHUNK = 1 << 16


def _intersection_work(dag: OrientedDAG) -> int:
    """The merge-intersection charge of the oriented enumeration.

    ``|N⁺(u)| + |N⁺(w)|`` for every edge ``(u, w)`` except the last of
    each out-row (it has no later candidate), plus ``|N⁺(u)|`` for every
    ``u`` with fewer than two out-neighbours.
    """
    deg = dag.out_degrees
    last_w = dag.out_indices[dag.out_indptr[1:][deg > 0] - 1]
    # Row u has du - 1 non-last edges, each charging du.
    own = (deg * (deg - 1)).sum()
    theirs = deg[dag.out_indices].sum() - deg[last_w].sum()
    return int(own + theirs + deg[deg < 2].sum())


def list_triangles(
    dag: OrientedDAG, tracker: Tracker = NULL_TRACKER
) -> np.ndarray:
    """All triangles as an (T, 3) array of rows ``(u, w, v)``, ``u < w < v``.

    Charges O(m·s̃) work and O(log² n) depth.
    """
    n = dag.num_vertices
    m = dag.num_edges
    us, ws = dag.edge_endpoints()
    # Edge j = (u, w) has the later slots of u's row as its candidates;
    # wedge_start[j] numbers its first one in edge order.
    later = dag.out_indptr[1:][us] - np.arange(1, m + 1)
    wedge_start = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(later, out=wedge_start[1:])
    wedges = int(wedge_start[-1])
    rows = []
    for lo in range(0, wedges, WEDGE_CHUNK):
        wedge = np.arange(lo, min(lo + WEDGE_CHUNK, wedges))
        edge = np.searchsorted(wedge_start, wedge, side="right") - 1
        v = dag.out_indices[edge + 1 + (wedge - wedge_start[edge])]
        keep = dag.edge_ids(ws[edge], v) >= 0
        if keep.any():
            edge = edge[keep]
            rows.append(np.stack([us[edge], ws[edge], v[keep]], axis=1))
    work = float(_intersection_work(dag))
    tracker.charge(Cost(work + m + n, 2 * log2p1(n) ** 2 + 2))
    if not rows:
        return np.empty((0, 3), dtype=np.int32)
    return np.concatenate(rows, axis=0)


def count_triangles(dag: OrientedDAG, tracker: Tracker = NULL_TRACKER) -> int:
    """Total number of triangles (same cost as listing)."""
    return int(list_triangles(dag, tracker=tracker).shape[0])


def supporting_edge_ids(dag: OrientedDAG, triangles: np.ndarray) -> np.ndarray:
    """Dense id of each triangle's supporting edge ``(u, v)``.

    Raises :class:`ValueError` when a row's ``(u, v)`` is not an edge of
    ``dag`` (the rows were not listed on this DAG).
    """
    eids = dag.edge_ids(triangles[:, 0], triangles[:, 2])
    bad = np.flatnonzero(eids < 0)
    if bad.size:
        u, _, v = (int(x) for x in triangles[bad[0]])
        raise ValueError(
            f"triangle row {int(bad[0])}: ({u}, {v}) is not an edge of the DAG"
        )
    return eids


def per_edge_triangle_counts(
    dag: OrientedDAG, tracker: Tracker = NULL_TRACKER
) -> np.ndarray:
    """|C(e)| for every directed edge id of ``dag``.

    ``counts[eid]`` is the size of the community of the edge with dense id
    ``eid`` — the number of triangles the edge *supports* (i.e. for which
    it connects the first and last vertex of the total order).
    """
    tri = list_triangles(dag, tracker=tracker)
    m = dag.num_edges
    if tri.shape[0] == 0:
        return np.zeros(m, dtype=np.int64)
    counts = np.bincount(supporting_edge_ids(dag, tri), minlength=m)
    tracker.charge(Cost(float(tri.shape[0]) * (log2p1(dag.max_out_degree) + 1), log2p1(tri.shape[0]) + 1))
    return counts
