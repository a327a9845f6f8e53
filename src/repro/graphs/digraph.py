"""Orientation of an undirected graph by a total vertex order.

Directing each edge from its lower-ranked to its higher-ranked endpoint
produces a DAG (§1.1). For the clique kernels it is convenient to
*relabel* vertices by their rank so that the total order coincides with
integer order: communities become sorted integer arrays and the distance
function δ reduces to index arithmetic. :class:`OrientedDAG` stores the
relabeled out/in adjacency plus the mapping back to original ids.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..pram.cost import Cost
from ..pram.primitives import log2p1
from ..pram.tracker import NULL_TRACKER, Tracker
from .csr import CSRGraph

__all__ = ["OrientedDAG", "orient_by_order", "orient_by_rank"]


class OrientedDAG:
    """A graph oriented by a total order, with vertices relabeled by rank.

    Vertex ``i`` of the DAG is the ``i``-th vertex of the total order; all
    out-neighbors of ``i`` are therefore ``> i`` and the out-adjacency rows
    are sorted ascending. ``original_ids[i]`` recovers the input label.

    Immutable once constructed: every engine shares one DAG across many
    queries (and process fan-outs fork it to workers), so the adjacency
    arrays are sealed read-only — an accidental in-place update raises
    instead of corrupting every later query.
    """

    __slots__ = (
        "out_indptr",
        "out_indices",
        "in_indptr",
        "in_indices",
        "original_ids",
        "_keys",
    )

    def __init__(
        self,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        original_ids: np.ndarray,
    ) -> None:
        self.out_indptr = np.ascontiguousarray(out_indptr, dtype=np.int64)
        self.out_indices = np.ascontiguousarray(out_indices, dtype=np.int32)
        self.original_ids = np.ascontiguousarray(original_ids, dtype=np.int32)
        self.in_indptr, self.in_indices = self._build_in_adjacency()
        self._keys: Optional[np.ndarray] = None
        self.out_indptr.setflags(write=False)
        self.out_indices.setflags(write=False)
        self.original_ids.setflags(write=False)
        self.in_indptr.setflags(write=False)
        self.in_indices.setflags(write=False)

    def _build_in_adjacency(self) -> Tuple[np.ndarray, np.ndarray]:
        n = self.num_vertices
        sources = np.repeat(
            np.arange(n, dtype=np.int32), np.diff(self.out_indptr)
        )
        targets = self.out_indices
        order = np.lexsort((sources, targets))
        in_indices = sources[order]
        counts = np.bincount(targets, minlength=n)
        in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=in_indptr[1:])
        return in_indptr, in_indices

    # -- accessors ----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.out_indptr.size - 1

    @property
    def num_edges(self) -> int:
        return int(self.out_indices.size)

    def out_neighbors(self, v: int) -> np.ndarray:
        """Sorted out-neighbors of ``v`` (all ``> v``)."""
        return self.out_indices[self.out_indptr[v] : self.out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sorted in-neighbors of ``v`` (all ``< v``)."""
        return self.in_indices[self.in_indptr[v] : self.in_indptr[v + 1]]

    def out_degree(self, v: int) -> int:
        return int(self.out_indptr[v + 1] - self.out_indptr[v])

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_indptr)

    @property
    def max_out_degree(self) -> int:
        """s̃ of Theorem 2.1 — the largest out-degree under this order."""
        deg = self.out_degrees
        return int(deg.max()) if deg.size else 0

    def has_edge(self, u: int, v: int) -> bool:
        """Probe the directed edge ``(u, v)`` in O(log outdeg(u))."""
        row = self.out_neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < row.size and row[i] == v)

    def edge_id(self, u: int, v: int) -> int:
        """Dense id of directed edge ``(u, v)`` (its slot in out_indices).

        Returns -1 when the edge does not exist.
        """
        row = self.out_neighbors(u)
        i = np.searchsorted(row, v)
        if i < row.size and row[i] == v:
            return int(self.out_indptr[u] + i)
        return -1

    @property
    def edge_keys(self) -> np.ndarray:
        """``source·n + target`` of every edge slot, ascending; built once.

        Out-rows are sorted and sources ascend, so the keys are sorted in
        edge-id order and one ``searchsorted`` maps a pair to its slot.
        """
        keys = self._keys
        if keys is None:
            src, dst = self.edge_endpoints()
            keys = src.astype(np.int64) * self.num_vertices + dst
            keys.setflags(write=False)
            self._keys = keys
        return keys

    def edge_ids(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Dense ids of the directed edges ``(us[i], vs[i])``, -1 if absent.

        One ``searchsorted`` over the packed edge keys resolves every
        pair. With q pairs:

        Work: O(m + q log m)
        Depth: O(log m)
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        n = self.num_vertices
        keys = self.edge_keys
        want = us * n + vs
        if not keys.size:
            return np.full(want.shape, -1, dtype=np.int64)
        valid = (us >= 0) & (us < n) & (vs >= 0) & (vs < n)
        slot = np.searchsorted(keys, want)
        np.minimum(slot, keys.size - 1, out=slot)
        return np.where(valid & (keys[slot] == want), slot, -1)

    def present_edge_ids(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Dense ids of directed edges the caller knows exist.

        :meth:`edge_ids` without its range and presence checks: for pairs
        taken from this DAG's own triangle rows, which cannot be missing.
        An absent pair gets an arbitrary slot, not -1.

        Work: O(q log m)
        Depth: O(log m)
        """
        want = np.asarray(us, dtype=np.int64) * self.num_vertices + vs
        return np.searchsorted(self.edge_keys, want)

    def edge_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """Arrays ``(us, vs)`` such that edge id ``j`` is ``(us[j], vs[j])``."""
        us = np.repeat(
            np.arange(self.num_vertices, dtype=np.int32),
            np.diff(self.out_indptr),
        )
        return us, self.out_indices

    def community(self, u: int, v: int) -> np.ndarray:
        """C(u, v) = N⁺(u) ∩ N⁻(v), sorted. Empty if not an edge's span.

        This is the *directed* community of §1.1; for an edge of a DAG
        oriented by a total order it contains exactly the common neighbors
        ordered strictly between ``u`` and ``v``.
        """
        return np.intersect1d(
            self.out_neighbors(u), self.in_neighbors(v), assume_unique=True
        )

    def to_undirected(self) -> CSRGraph:
        """Forget orientation (useful for induced-subgraph reuse in tests)."""
        us, vs = self.edge_endpoints()
        edges = np.stack([us.astype(np.int64), vs.astype(np.int64)], axis=1)
        from .builder import from_edges

        return from_edges(edges, num_vertices=self.num_vertices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OrientedDAG(n={self.num_vertices}, m={self.num_edges})"


def orient_by_order(
    graph: CSRGraph,
    order: np.ndarray,
    tracker: Tracker = NULL_TRACKER,
) -> OrientedDAG:
    """Orient ``graph`` by a total order given as a vertex permutation.

    ``order[i]`` is the original id of the ``i``-th vertex in the order.
    Bucketing by rank with a scan, as in the parallel orientation of
    [Shi et al.'20]:

    Work: O(n + m)
    Depth: O(log n)
    """
    order = np.asarray(order, dtype=np.int64)
    n = graph.num_vertices
    if order.size != n or (n and not np.array_equal(np.sort(order), np.arange(n))):
        raise ValueError("order must be a permutation of 0..n-1")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return orient_by_rank(graph, rank, tracker=tracker)


def orient_by_rank(
    graph: CSRGraph,
    rank: np.ndarray,
    tracker: Tracker = NULL_TRACKER,
) -> OrientedDAG:
    """Orient ``graph`` by ``rank`` (``rank[v]`` = position of ``v``).

    Work: O(n + m)
    Depth: O(log n)
    """
    rank = np.asarray(rank, dtype=np.int64)
    n = graph.num_vertices
    if rank.size != n or (n and not np.array_equal(np.sort(rank), np.arange(n))):
        raise ValueError("rank must be a permutation of 0..n-1")

    tracker.charge(Cost(2 * graph.num_edges + n, 2 * log2p1(n) + 2))

    us, vs = graph.edge_array()
    ru, rv = rank[us], rank[vs]
    src = np.where(ru < rv, ru, rv)
    dst = np.where(ru < rv, rv, ru)
    key = src * n + dst
    sorted_idx = np.argsort(key, kind="mergesort")
    src, dst = src[sorted_idx], dst[sorted_idx]
    counts = np.bincount(src, minlength=n)
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=out_indptr[1:])
    order = np.empty(n, dtype=np.int64)
    order[rank] = np.arange(n)
    return OrientedDAG(out_indptr, dst.astype(np.int32), order.astype(np.int32))
