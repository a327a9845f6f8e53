"""Edge communities: the per-edge candidate sets of Algorithm 1.

For a DAG oriented by a total order, the community of a directed edge
``e = (u, v)`` is ``C(e) = N⁺(u) ∩ N⁻(v)`` — exactly the vertices ordered
strictly between ``u`` and ``v`` adjacent to both. Each triangle belongs
to the community of exactly one edge: its *supporting* edge (first, last).

:class:`EdgeCommunities` materializes all communities as one CSR structure
over directed edge ids, with members **sorted** (Algorithm 1 line 1:
"Build the communities and sort them"), charging the paper's
preprocessing cost of O(m·s̃) for the triangle pass plus
O(T log γ) for the sort.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graphs.digraph import OrientedDAG
from ..pram.cost import Cost
from ..pram.primitives import log2p1
from ..pram.tracker import NULL_TRACKER, Tracker
from .count import list_triangles, supporting_edge_ids

__all__ = ["EdgeCommunities", "build_communities"]


class EdgeCommunities:
    """Sorted community arrays for every directed edge of a DAG."""

    __slots__ = ("dag", "indptr", "members", "_sizes")

    def __init__(self, dag: OrientedDAG, indptr: np.ndarray, members: np.ndarray):
        self.dag = dag
        self.indptr = indptr
        self.members = members
        # |C(e)| is read in engine hot loops (eligibility filters, metrics)
        # on every query; materialize it once, read-only, instead of
        # allocating a fresh np.diff per property access.
        self._sizes = np.diff(indptr)
        self._sizes.setflags(write=False)

    @property
    def num_triangles(self) -> int:
        """Total triangle count (each triangle in exactly one community)."""
        return int(self.members.size)

    @property
    def sizes(self) -> np.ndarray:
        """|C(e)| for every directed edge id (cached, read-only)."""
        return self._sizes

    @property
    def max_size(self) -> int:
        """γ — the largest community size (Theorem 2.1's parameter)."""
        s = self.sizes
        return int(s.max()) if s.size else 0

    def of(self, eid: int) -> np.ndarray:
        """Sorted community members of directed edge ``eid``."""
        return self.members[self.indptr[eid] : self.indptr[eid + 1]]

    def of_pair(self, u: int, v: int) -> np.ndarray:
        """Community of the edge ``(u, v)``; empty if the edge is absent."""
        eid = self.dag.edge_id(u, v)
        if eid < 0:
            return self.members[:0]
        return self.of(eid)


def build_communities(
    dag: OrientedDAG,
    tracker: Tracker = NULL_TRACKER,
    triangles: Optional[np.ndarray] = None,
) -> EdgeCommunities:
    """Materialize all edge communities of ``dag`` (Algorithm 1, line 1).

    ``triangles`` may pass a precomputed :func:`list_triangles` result;
    a row whose ``(u, v)`` is not an edge of ``dag`` raises
    :class:`ValueError`.
    """
    if triangles is None:
        triangles = list_triangles(dag, tracker=tracker)
    m = dag.num_edges
    t = triangles.shape[0]
    if t == 0:
        return EdgeCommunities(
            dag, np.zeros(m + 1, dtype=np.int64), np.empty(0, dtype=np.int32)
        )

    # Supporting-edge id of each triangle (u, w, v) is edge (u, v).
    eids = supporting_edge_ids(dag, triangles)
    ws = triangles[:, 1].astype(np.int64)
    # Semisort by (edge id, member) so each community comes out sorted.
    order = np.lexsort((ws, eids))
    eids_sorted = eids[order]
    members = ws[order].astype(np.int32)
    counts = np.bincount(eids_sorted, minlength=m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    gamma = int(counts.max()) if counts.size else 0
    # Cost of the semisort/sort of communities: O(T log γ) work, O(log n) depth.
    tracker.charge(Cost(t * (log2p1(gamma) + 1) + m, 2 * log2p1(max(t, m)) + 2))
    return EdgeCommunities(dag, indptr, members)
