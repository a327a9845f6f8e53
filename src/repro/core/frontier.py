"""Frontier-vectorized counting engine: level-synchronous, no recursion.

Every other engine in the repository walks the Algorithm-2 recursion one
partial clique at a time, paying a CPython function call (and several
small-array numpy calls) per node of the search tree — O(#cliques)
interpreter steps. This engine runs the *same* search level-synchronously
(the formulation of Shi–Dhulipala–Shun's parallel clique counting): the
whole frontier of partial cliques is one flat numpy structure, and each
round advances **all** of them with whole-array word operations, so the
interpreter executes O(k) steps total while the per-clique work happens
inside vectorized C loops.

Representation
--------------
A partial clique at parameter ``c`` is a pair ``(base, mask)``:

* ``base`` — the row offset of its top-level source vertex ``u``: the
  members of its candidate set live in the renamed universe
  ``N⁺(u) = 0..outdeg(u)-1``, exactly the renaming the bitset kernel
  (:mod:`repro.core.fast`) uses per source vertex;
* ``mask`` — the candidate set as packed uint64 words over that universe
  (all masks padded to the global width ``ceil(s̃/64)``).

The glue that makes one *global* frontier possible is the edge-indexed
bitrow table (:func:`build_frontier_tables`): directed edge id ``e``
doubles as the row index of its target ``v`` inside the universe of its
source ``u`` (out-rows are sorted, so ``e - out_indptr[u]`` *is* the
local rename of ``v``). ``rows[e]`` holds N⁺(v) ∩ N⁺(u) and
``rows_in[e]`` holds N⁻(v) ∩ N⁺(u) — hence the initial frontier for the
eligible edges is literally ``rows_in[eligible]``, one gather.

One round at parameter ``c ≥ 3`` (the body of :func:`_drive`):

1. enumerate every candidate bit of every mask (one byte-peeling
   :func:`~repro.graphs.bitset.set_bits_2d`) — the (item, member)
   *units*, row-major, so an item's units are contiguous and their rank
   order is their position order;
2. gather each member's out-row, AND with its item's mask — the edges of
   ``DAG[I]`` per item;
3. apply the relevant-pair rule δ_I(u,v) ≥ c−2 as a mask *before* the
   second enumeration: unit ``i`` can only be the lower endpoint of a
   relevant pair if unit ``i + (c−1)`` is in the same item, and its
   relevant targets are exactly the members at positions
   ``≥ pos[i + (c−1)]``, so the bits below that threshold are cleared
   and the enumeration yields only relevant pairs — counts stay
   bit-identical to the reference engine;
4. child masks = ``(mask & rows[w]) & rows_in[x]`` — the step-2 AND
   reused, one more gathered AND — kept where ``popcount ≥ c−2``.

``c ∈ {1, 2}`` are closed-form leaf rounds (popcounts). Like the bitset
kernel, the search itself is untracked — a tracker passed to the entry
points only accounts the shared preprocessing — but the frontier shape
is observable: ``frontier.rounds``, ``frontier.width``,
``frontier.peak_width``, ``frontier.pairs`` and ``frontier.children``
land in the tracker's metrics registry when one is attached.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..graphs.bitset import popcount_rows, set_bits_2d
from ..graphs.csr import CSRGraph
from ..graphs.digraph import OrientedDAG
from ..pram.tracker import NULL_TRACKER, Tracker
from .prepared import PreparedGraph

__all__ = [
    "FrontierTables",
    "build_frontier_tables",
    "frontier_count_cliques",
    "frontier_list_cliques",
    "count_frontier_slice",
]

_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)
# _FROM[s] keeps bits s..63 of a word; s = 64 keeps none.
_FROM = np.append(~np.uint64(0) << np.arange(64, dtype=np.uint64), np.uint64(0))


class FrontierTables:
    """Edge-indexed packed adjacency of every per-source renamed universe.

    ``rows[e]`` / ``rows_in[e]`` are the out-/in-neighbor bitsets of the
    target of directed edge ``e`` restricted to (and renamed within) the
    out-neighborhood of its source; ``base[e]`` is the source's row
    offset, so member bit ``p`` of any mask derived from edge ``e``
    denotes DAG vertex ``out_indices[base[e] + p]`` and its own rows sit
    at index ``base[e] + p``. ``width`` is the shared word count
    ``ceil(s̃/64)``.

    Immutable: the three arrays are sealed read-only by
    :func:`build_frontier_tables`, so process workers can share the
    tables copy-on-write and a stray in-place write raises instead of
    silently corrupting every sibling worker.
    """

    __slots__ = ("rows", "rows_in", "base", "width")

    def __init__(
        self,
        rows: np.ndarray,
        rows_in: np.ndarray,
        base: np.ndarray,
        width: int,
    ) -> None:
        self.rows = rows
        self.rows_in = rows_in
        self.base = base
        self.width = width


def build_frontier_tables(
    dag: OrientedDAG, triangles: np.ndarray
) -> FrontierTables:
    """Build the packed per-source adjacency from the triangle list.

    Each triangle ``(u, w, v)`` contributes exactly one local edge
    ``w → v`` inside the universe of ``u``; both endpoints' local renames
    fall out of the edge ids ``(u, w)`` / ``(u, v)`` by subtracting the
    source's row offset (:meth:`OrientedDAG.edge_ids`). Vectorized, no
    per-source Python loop; with T triangles and m directed edges:

    Work: O(m + T log m)
    Depth: O(log m)
    """
    m = dag.num_edges
    width = (dag.max_out_degree + 63) // 64
    rows = np.zeros((m, width), dtype=np.uint64)
    rows_in = np.zeros((m, width), dtype=np.uint64)
    us, _ = dag.edge_endpoints()
    base = dag.out_indptr[us.astype(np.int64)]
    if triangles.shape[0] and width:
        u = triangles[:, 0]
        e_uw = dag.edge_ids(u, triangles[:, 1])
        e_uv = dag.edge_ids(u, triangles[:, 2])
        src_base = dag.out_indptr[u]
        iw = e_uw - src_base  # local rename of w in N+(u)
        iv = e_uv - src_base  # local rename of v in N+(u)
        np.bitwise_or.at(rows, (e_uw, iv >> 6), _BITS[iv & 63])
        np.bitwise_or.at(rows_in, (e_uv, iw >> 6), _BITS[iw & 63])
    rows.setflags(write=False)
    rows_in.setflags(write=False)
    base.setflags(write=False)
    return FrontierTables(rows, rows_in, base, width)


def _drive(
    tables: FrontierTables,
    base: np.ndarray,
    masks: np.ndarray,
    c: int,
    prune: bool = True,
    prefixes: Optional[np.ndarray] = None,
    out_indices: Optional[np.ndarray] = None,
    metrics=None,
) -> Tuple[int, Optional[np.ndarray]]:
    """Advance the frontier to its leaves; return (count, clique rows).

    ``prefixes`` (an ``(F, depth)`` int array of DAG vertex ids) switches
    on listing mode: the returned second element is a ``(count, k)``
    array of DAG-vertex clique rows (unsorted); counting mode returns
    ``None`` there.

    Frozen: tables
    """
    collect = prefixes is not None
    rows, rows_in = tables.rows, tables.rows_in
    word_start = 64 * np.arange(tables.width, dtype=np.int64)
    total = 0
    emitted: List[np.ndarray] = []
    rounds = width_hist = peak = pairs_ctr = children_ctr = None
    if metrics is not None:
        rounds = metrics.counter("frontier.rounds")
        width_hist = metrics.histogram("frontier.width")
        peak = metrics.gauge("frontier.peak_width")
        pairs_ctr = metrics.counter("frontier.pairs")
        children_ctr = metrics.counter("frontier.children")

    while base.size:
        if metrics is not None:
            rounds.inc()
            width_hist.record(int(base.size))
            peak.set_max(int(base.size))

        if c == 1:
            counts = popcount_rows(masks)
            total += int(counts.sum())
            if collect:
                item, pos = set_bits_2d(masks)
                verts = out_indices[base[item] + pos]
                emitted.append(
                    np.concatenate(
                        [prefixes[item], verts[:, None].astype(prefixes.dtype)],
                        axis=1,
                    )
                )
            break

        item, pos = set_bits_2d(masks)
        w_rows = base[item] + pos

        if c == 2:
            inter = rows[w_rows] & masks[item]
            total += int(popcount_rows(inter).sum())
            if collect:
                unit, x_pos = set_bits_2d(inter)
                w_verts = out_indices[w_rows[unit]]
                x_verts = out_indices[base[item[unit]] + x_pos]
                emitted.append(
                    np.concatenate(
                        [
                            prefixes[item[unit]],
                            w_verts[:, None].astype(prefixes.dtype),
                            x_verts[:, None].astype(prefixes.dtype),
                        ],
                        axis=1,
                    )
                )
            break

        # Expansion round (c >= 3): one relevant DAG[I]-edge per child.
        # Units of one item are contiguous and in increasing `pos`, so a
        # unit's rank among its item's members is its position order: unit
        # i is the lower endpoint of a relevant pair iff unit i + gap still
        # belongs to its item, and then its relevant targets are exactly
        # the members at positions >= pos[i + gap].
        gap = (c - 1) if prune else 1
        lo = np.flatnonzero(item[gap:] == item[: max(item.size - gap, 0)])
        item_v = item[lo]
        w_rows_v = w_rows[lo]
        # Per word, the bits at or above the threshold position pos[i + gap].
        shift = np.clip(pos[lo + gap][:, None] - word_start, 0, 64)
        edges = rows[w_rows_v] & masks[item_v]
        unit, x_pos = set_bits_2d(edges & _FROM[shift])
        if pairs_ctr is not None:
            pairs_ctr.inc(int(unit.size))
        item2 = item_v[unit]

        child = edges[unit] & rows_in[base[item2] + x_pos]
        alive = popcount_rows(child) >= (c - 2)
        if children_ctr is not None:
            children_ctr.inc(int(np.count_nonzero(alive)))
        if collect:
            w_verts = out_indices[w_rows_v[unit]]
            x_verts = out_indices[base[item2] + x_pos]
            prefixes = np.concatenate(
                [
                    prefixes[item2],
                    w_verts[:, None].astype(prefixes.dtype),
                    x_verts[:, None].astype(prefixes.dtype),
                ],
                axis=1,
            )[alive]
        masks = child[alive]
        base = base[item2[alive]]
        c -= 2

    if not collect:
        return total, None
    if emitted:
        return total, emitted[0]
    return total, np.empty((0, prefixes.shape[1]), dtype=prefixes.dtype)


def count_frontier_slice(
    tables: FrontierTables,
    eligible: np.ndarray,
    c: int,
    prune: bool = True,
    metrics=None,
) -> int:
    """Count the cliques rooted at a slice of eligible edges (no listing).

    The process-parallel wrapper fans the eligible-edge range out in
    chunks; each worker calls this on its slice against the shared
    (copy-on-write) tables. The out-of-core engine drives it per shard
    block — ``metrics`` (optional) lets those streamed drives record the
    ``frontier.*`` instruments like the monolithic path does.

    Frozen: tables
    """
    eids = np.asarray(eligible, dtype=np.int64)
    total, _ = _drive(
        tables,
        tables.base[eids],
        tables.rows_in[eids],
        c,
        prune=prune,
        metrics=metrics,
    )
    return total


def _setup(
    graph: CSRGraph,
    k: int,
    prepared: Optional[PreparedGraph],
    tracker: Tracker,
):
    """Shared entry validation + preprocessing for count/list."""
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")
    ctx = prepared if prepared is not None else PreparedGraph(graph)
    if ctx.graph is not graph:
        raise ValueError("prepared context was built for a different graph")
    dag = ctx.dag("degeneracy", tracker)
    comms = ctx.communities("degeneracy", tracker)
    return ctx, dag, comms


def frontier_count_cliques(
    graph: CSRGraph,
    k: int,
    prepared: Optional[PreparedGraph] = None,
    tracker: Tracker = NULL_TRACKER,
    prune: bool = True,
) -> int:
    """Count k-cliques with the level-synchronous frontier engine.

    Bit-identical to the reference engine (asserted across the test suite
    and ``repro selfcheck``). ``tracker`` is charged for preprocessing
    built on a miss; the frontier advance itself is untracked (its cost
    model is the reference engine's — this engine exists to make the same
    computation fast).
    """
    n = graph.num_vertices
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")
    if k == 1:
        return n
    if k == 2:
        return graph.num_edges
    ctx, dag, comms = _setup(graph, k, prepared, tracker)
    if k == 3:
        return comms.num_triangles
    eligible = np.flatnonzero(comms.sizes >= (k - 2))
    if eligible.size == 0:
        return 0
    tables = ctx.frontier_tables("degeneracy", tracker)
    total, _ = _drive(
        tables,
        tables.base[eligible],
        tables.rows_in[eligible],
        k - 2,
        prune=prune,
        metrics=tracker.metrics,
    )
    return total


def frontier_list_cliques(
    graph: CSRGraph,
    k: int,
    prepared: Optional[PreparedGraph] = None,
    tracker: Tracker = NULL_TRACKER,
) -> List[Tuple[int, ...]]:
    """List k-cliques canonically (sorted tuples, lexicographic order).

    Byte-identical to the reference listing: each clique a sorted tuple
    of original vertex ids, the list sorted — the canonical form
    ``run_variant`` produces, so the two engines' outputs diff clean.
    """
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")
    if k == 1:
        return [(v,) for v in range(graph.num_vertices)]
    if k == 2:
        us, vs = graph.edge_array()
        return sorted(
            (int(u), int(v)) if u < v else (int(v), int(u))
            for u, v in zip(us, vs)
        )
    ctx, dag, comms = _setup(graph, k, prepared, tracker)
    orig = dag.original_ids.astype(np.int64)
    if k == 3:
        us, vs = dag.edge_endpoints()
        out: List[Tuple[int, ...]] = []
        for eid in range(dag.num_edges):
            for w in comms.of(eid).tolist():
                out.append(
                    tuple(
                        sorted(
                            (int(orig[us[eid]]), int(orig[w]), int(orig[vs[eid]]))
                        )
                    )
                )
        out.sort()
        return out
    eligible = np.flatnonzero(comms.sizes >= (k - 2))
    if eligible.size == 0:
        return []
    tables = ctx.frontier_tables("degeneracy", tracker)
    us, vs = dag.edge_endpoints()
    prefixes = np.stack(
        [us[eligible].astype(np.int64), vs[eligible].astype(np.int64)], axis=1
    )
    _, rows = _drive(
        tables,
        tables.base[eligible],
        tables.rows_in[eligible],
        k - 2,
        prune=True,
        prefixes=prefixes,
        out_indices=dag.out_indices.astype(np.int64),
        metrics=tracker.metrics,
    )
    assert rows is not None
    canonical = np.sort(orig[rows], axis=1)
    return sorted(map(tuple, canonical.tolist()))
