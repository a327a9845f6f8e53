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
  ``N⁺(u) = 0..outdeg(u)-1``;
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

``c ∈ {1, 2}`` are closed-form leaf rounds (popcounts).

Complete communities
--------------------
A drive rooted at edge ``e`` counts the c-cliques of DAG[C(e)]. When
that subgraph is complete, the answer is C(|C(e)|, c) without a round,
so :func:`build_frontier_tables` also seals a per-edge ``complete`` flag
(:func:`complete_flags`, one vectorized pass over the filled rows).
Counting answers flagged edges in closed form and drives only the rest;
listing drives every edge.

The executor
------------
A drive rooted at the eligible edges of source ``u`` reads only the
table rows of ``N⁺(u)``, so Algorithm 1's per-edge subproblems split
along any source range. :func:`execute` serves every frontier query over
a *shard plan*: a list of source-range shards, each a self-contained
table block. The in-RAM plan (:func:`resident_plan`) is one resident
shard, the memoized tables themselves; the budgeted plan
(:func:`repro.core.sharded.budgeted_plan`) streams RAM blocks built on
demand through a bounded window. The executor owns the k ≤ 3 closed
forms, drives each shard's eligible edges once for canonical listings
(and its eligible edges with an incomplete community for counts), and
with ``workers > 1`` fans contiguous chunks of eligible edges, weighted by
community size, out over processes. Eligibility and weights come from the
plan: the resident plan reads them as the row popcounts of ``rows_in``
(:attr:`FrontierTables.sizes`), so it never builds the edge communities.

The search itself is untracked — a tracker passed to the entry points
only accounts the shared preprocessing — but the frontier shape is
observable: ``frontier.rounds``, ``frontier.width``,
``frontier.peak_width``, ``frontier.pairs`` and ``frontier.children``
(driven edges only) and ``frontier.closed_edges`` (edges answered in
closed form) land in the tracker's metrics registry when one is
attached.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

import numpy as np

from ..graphs.bitset import popcount_rows, set_bits_2d
from ..graphs.csr import CSRGraph
from ..graphs.digraph import OrientedDAG
from ..obs.metrics import MetricsRegistry
from ..pram.executor import parallel_map_reduce, worker_state
from ..pram.tracker import NULL_TRACKER, Tracker
from .prepared import PreparedGraph, prepared_for

__all__ = [
    "FrontierTables",
    "build_frontier_tables",
    "patch_frontier_tables",
    "scatter_triangles",
    "complete_flags",
    "source_row_starts",
    "execute",
    "resident_plan",
    "frontier_count_cliques",
    "frontier_list_cliques",
]

_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)
# _FROM[s] keeps bits s..63 of a word; s = 64 keeps none.
_FROM = np.append(~np.uint64(0) << np.arange(64, dtype=np.uint64), np.uint64(0))


class FrontierTables:
    """Edge-indexed packed adjacency of every per-source renamed universe.

    ``rows[e]`` / ``rows_in[e]`` are the out-/in-neighbor bitsets of the
    target of directed edge ``e`` restricted to (and renamed within) the
    out-neighborhood of its source: with ``base`` the source's row
    offset (:func:`source_row_starts`), member bit ``p`` of any mask
    derived from edge ``e`` denotes DAG vertex
    ``out_indices[base + p]`` and its own rows sit at index
    ``base + p``. ``complete[e]`` says that the community
    ``rows_in[e]`` induces a complete graph in the DAG (see
    :func:`complete_flags`). ``width`` is the shared word count
    ``ceil(s̃/64)``.

    Immutable: the three arrays are sealed read-only by
    :func:`build_frontier_tables`, so forked workers can share the
    tables copy-on-write and a stray in-place write raises instead of
    silently corrupting every sibling worker.
    """

    __slots__ = ("rows", "rows_in", "complete", "width", "_sizes")

    def __init__(
        self,
        rows: np.ndarray,
        rows_in: np.ndarray,
        complete: np.ndarray,
        width: int,
    ) -> None:
        self.rows = rows
        self.rows_in = rows_in
        self.complete = complete
        self.width = width
        self._sizes: Optional[np.ndarray] = None

    @property
    def sizes(self) -> np.ndarray:
        """|C(e)| of every row: ``popcount_rows(rows_in)``, memoized.

        Equal to the edge communities' sizes, so the frontier path never
        needs the communities themselves. Computed on first use only, so
        a shard block that is never asked holds no extra bytes.
        """
        sizes = self._sizes
        if sizes is None:
            sizes = popcount_rows(self.rows_in)
            sizes.setflags(write=False)
            self._sizes = sizes
        return sizes

    @property
    def max_size(self) -> int:
        """γ — the largest community size."""
        sizes = self.sizes
        return int(sizes.max()) if sizes.size else 0


def build_frontier_tables(
    dag: OrientedDAG, triangles: np.ndarray
) -> FrontierTables:
    """Build the packed per-source adjacency from the triangle list.

    Each triangle ``(u, w, v)`` contributes exactly one local edge
    ``w → v`` inside the universe of ``u``; both endpoints' local renames
    fall out of the edge ids ``(u, w)`` / ``(u, v)`` by subtracting the
    source's row offset (:meth:`OrientedDAG.present_edge_ids`). The
    per-edge completeness flags follow from the filled rows. Vectorized,
    no per-source Python loop; with T triangles and m directed edges:

    Work: O(m·W + T log m + T·W)
    Depth: O(log m)
    """
    m = dag.num_edges
    width = (dag.max_out_degree + 63) // 64
    rows = np.zeros((m, width), dtype=np.uint64)
    rows_in = np.zeros((m, width), dtype=np.uint64)
    e_uw, e_uv = scatter_triangles(dag, triangles, rows, rows_in)
    complete = complete_flags(rows, rows_in, e_uw, e_uv)
    return _sealed(rows, rows_in, complete, width)


def _sealed(
    rows: np.ndarray, rows_in: np.ndarray, complete: np.ndarray, width: int
) -> FrontierTables:
    rows.setflags(write=False)
    rows_in.setflags(write=False)
    complete.setflags(write=False)
    return FrontierTables(rows, rows_in, complete, width)


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(starts[i], ends[i])`` over all i."""
    lens = ends - starts
    first = np.cumsum(lens) - lens
    return np.repeat(starts - first, lens) + np.arange(int(lens.sum()))


def patch_frontier_tables(
    old: FrontierTables,
    old_dag: OrientedDAG,
    dag: OrientedDAG,
    triangles: np.ndarray,
    op: str,
    lo: np.ndarray,
    hi: np.ndarray,
    touched: np.ndarray,
) -> FrontierTables:
    """The tables of ``dag`` patched from ``old``, the tables of ``old_dag``.

    ``dag`` is ``old_dag`` with the DAG edges ``(lo[i], hi[i])`` (rank
    ids, lower first) inserted or deleted under ``op``, ``triangles`` its
    sorted triangle rows, and ``touched`` every source whose rows can
    differ: the lower endpoint of each batch edge (its universe N⁺(u)
    changed, so its renames did) and the first vertex of each triangle
    through a batch edge (a local edge of its universe appeared or went).
    Every other source keeps its rows, ``rows_in`` and ``complete``
    byte for byte; they only move by the edge-id shift, one
    ``np.insert``/``np.delete`` of the batch slots per array. The touched
    sources' rows are cleared, their slice of ``triangles`` re-scattered
    (:func:`scatter_triangles`) and their completeness flags recomputed.
    A change of the word width W falls back to
    :func:`build_frontier_tables`. With T' triangles and m' edges of the
    touched sources:

    Work: O(m·W + T' log m + (m' + T')·W)
    Depth: O(log m)
    """
    width = (dag.max_out_degree + 63) // 64
    if width != old.width:
        return build_frontier_tables(dag, triangles)
    if op == "insert":
        slots = np.sort(dag.present_edge_ids(lo, hi))
        slots -= np.arange(slots.size)
        rows = np.insert(old.rows, slots, 0, axis=0)
        rows_in = np.insert(old.rows_in, slots, 0, axis=0)
        complete = np.insert(old.complete, slots, False)
    else:
        slots = old_dag.present_edge_ids(lo, hi)
        rows = np.delete(old.rows, slots, axis=0)
        rows_in = np.delete(old.rows_in, slots, axis=0)
        complete = np.delete(old.complete, slots)
    touched = np.unique(touched)
    edges = _ranges(dag.out_indptr[touched], dag.out_indptr[touched + 1])
    rows[edges] = 0
    rows_in[edges] = 0
    first = triangles[:, 0]
    tri = triangles[
        _ranges(
            np.searchsorted(first, touched, side="left"),
            np.searchsorted(first, touched, side="right"),
        )
    ]
    e_uw, e_uv = scatter_triangles(dag, tri, rows, rows_in)
    complete[edges] = complete_flags(rows, rows_in, e_uw, e_uv, edges)
    return _sealed(rows, rows_in, complete, width)


def source_row_starts(dag: OrientedDAG, edges: np.ndarray) -> np.ndarray:
    """The row offset of each directed edge's source: its drive's ``base``.

    The source of edge ``e`` is ``edge_keys[e] // n`` (the DAG's memoized
    ``source·n + target`` keys), and its rows start at ``out_indptr`` of
    that source. Two gathers over the given edges, O(|edges|).
    """
    return dag.out_indptr[dag.edge_keys[edges] // dag.num_vertices]


def scatter_triangles(
    dag: OrientedDAG,
    triangles: np.ndarray,
    rows: np.ndarray,
    rows_in: np.ndarray,
    e0: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """OR the local edge of every triangle into table rows ``[e0, ...)``.

    Triangle ``(u, w, v)`` sets bit ``v`` in ``rows[(u, w) - e0]`` and
    bit ``w`` in ``rows_in[(u, v) - e0]``, both renamed within N⁺(u);
    the edge ids come from one :meth:`OrientedDAG.present_edge_ids`
    lookup each. ``rows``/``rows_in`` may be a block of the full tables
    (a shard's block), in which case every triangle's source must lie
    in it. Returns the block rows ``(u, w) - e0`` and ``(u, v) - e0``
    of every triangle.
    """
    u = triangles[:, 0]
    e_uw = dag.present_edge_ids(u, triangles[:, 1])
    e_uv = dag.present_edge_ids(u, triangles[:, 2])
    src_base = dag.out_indptr[u]
    iw = e_uw - src_base  # local rename of w in N+(u)
    iv = e_uv - src_base  # local rename of v in N+(u)
    e_uw -= e0
    e_uv -= e0
    np.bitwise_or.at(rows, (e_uw, iv >> 6), _BITS[iv & 63])
    np.bitwise_or.at(rows_in, (e_uv, iw >> 6), _BITS[iw & 63])
    return e_uw, e_uv


def complete_flags(
    rows: np.ndarray,
    rows_in: np.ndarray,
    e_uw: np.ndarray,
    e_uv: np.ndarray,
    edges: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per table row: does the community induce a complete DAG subgraph?

    Member ``w`` of the community ``C(e) = rows_in[e]`` has
    ``popcount(rows[(u, w)] & rows_in[e])`` out-neighbors inside it, so
    summing over the triangles ``(u, w, v)`` of ``e = (u, v)`` (the
    rows :func:`scatter_triangles` returns) counts the edges of
    DAG[C(e)]; it is complete when that equals ``p(p−1)/2`` with
    ``p = |C(e)|``. ``edges`` restricts the answer to those rows, whose
    triangles must all be among the given ones. With T triangles, m
    rows and W words per row:

    Work: O(m·W + T·W)
    Depth: O(log T)
    """
    inside = rows[e_uw]
    inside &= rows_in[e_uv]
    inner = np.bincount(
        e_uv, weights=popcount_rows(inside), minlength=rows.shape[0]
    ).astype(np.int64)
    if edges is not None:
        inner = inner[edges]
        rows_in = rows_in[edges]
    p = popcount_rows(rows_in)
    return 2 * inner == p * (p - 1)


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




# -- the executor: one drive per shard of a plan ----------------------------


class _Resident:
    """The in-RAM tables as a plan of one shard, served without a copy."""

    sharded = False

    def __init__(self, tables: FrontierTables) -> None:
        self.tables = tables
        self.edge_bounds = np.array([0, tables.rows.shape[0]], dtype=np.int64)

    def block(self, index: int, metrics: Any = None) -> FrontierTables:
        return self.tables

    def community_sizes(self, ctx: PreparedGraph, tracker: Tracker) -> np.ndarray:
        """|C(e)| of every edge, from the tables (no communities built)."""
        return self.tables.sizes

    def evict_all(self) -> None:
        pass


def resident_plan(ctx: PreparedGraph, tracker: Tracker) -> ContextManager[Any]:
    """Open the in-RAM plan: the memoized tables as one resident shard."""
    return nullcontext(_Resident(ctx.frontier_tables("degeneracy", tracker)))


def _canonical(rows: np.ndarray) -> List[Tuple[int, ...]]:
    """Clique rows as sorted tuples in lexicographic order.

    The reference engine's listing form, so every engine's output diffs
    clean against it.
    """
    rows = np.sort(rows, axis=1)
    order = np.lexsort(rows.T[::-1])
    return list(map(tuple, rows[order].tolist()))


def _closed_count(sizes: np.ndarray, c: int) -> int:
    """Σ C(p, c) over community sizes ``p``, exact in Python ints.

    A drive rooted at an edge counts the c-cliques of DAG[mask]; a
    complete mask of p members has exactly C(p, c) of them.
    """
    values, repeats = np.unique(sizes, return_counts=True)
    return sum(
        times * math.comb(p, c)
        for p, times in zip(values.tolist(), repeats.tolist())
    )


def _drive_shard(
    state: Tuple[Any, ...],
    index: int,
    lo: int,
    hi: int,
    c: int,
    prune: bool,
    metrics: Any,
) -> Tuple[int, Optional[np.ndarray]]:
    """Drive eligible edges ``[lo, hi)``, all in shard ``index``.

    Counting answers the edges whose community is complete in closed
    form (:func:`_closed_count`) and drives only the rest; listing
    drives every edge. Only driven edges pay for their row start.

    Frozen: state
    """
    source, dag, eligible, sizes, _, prefixes = state
    tables = source.block(index, metrics=metrics)
    e0, e1 = source.edge_bounds[index], source.edge_bounds[index + 1]
    seeds = eligible[lo:hi]
    closed = 0
    if prefixes is None:
        flagged = tables.complete[seeds - e0]
        closed = _closed_count(sizes[lo:hi][flagged], c)
        if metrics is not None:
            metrics.counter("frontier.closed_edges").inc(
                int(np.count_nonzero(flagged))
            )
        seeds = seeds[~flagged]
    got, rows = _drive(
        tables,
        source_row_starts(dag, seeds) - e0,
        tables.rows_in[seeds - e0],
        c,
        prune=prune,
        prefixes=None if prefixes is None else prefixes[lo:hi],
        out_indices=dag.out_indices[e0:e1],
        metrics=metrics,
    )
    return closed + got, rows


def _run_units(
    state: Tuple[Any, ...],
    lo: int,
    hi: int,
    c: int,
    prune: bool,
    verify: bool,
    metrics: Any = None,
) -> Tuple[int, List[np.ndarray]]:
    """Drive eligible edges ``[lo, hi)`` shard by shard.

    Returns the count and the listed row blocks (none when counting).
    ``verify`` re-counts each shard's slice as two halves and asserts
    the sums agree: the disjoint-union additivity the plan rests on.

    Frozen: state
    """
    source, _, _, _, bounds, _ = state
    total = 0
    pieces: List[np.ndarray] = []
    walls: List[float] = []
    for index in range(bounds.size - 1):
        a, b = max(lo, int(bounds[index])), min(hi, int(bounds[index + 1]))
        if a >= b:
            continue
        t0 = time.perf_counter()
        got, rows = _drive_shard(state, index, a, b, c, prune, metrics)
        if verify and b - a > 1:
            mid = (a + b) // 2
            left, _ = _drive_shard(state, index, a, mid, c, prune, None)
            right, _ = _drive_shard(state, index, mid, b, c, prune, None)
            if left + right != got:
                raise AssertionError(
                    f"shard {index}: additivity violated "
                    f"({left} + {right} != {got})"
                )
        walls.append(time.perf_counter() - t0)
        total += got
        if rows is not None and rows.shape[0]:
            pieces.append(rows)
    if metrics is not None and source.sharded and walls:
        mean = sum(walls) / len(walls)
        if mean > 0:
            metrics.gauge("shard.wall_imbalance").set_max(max(walls) / mean)
    return total, pieces


_Partial = Tuple[int, List[np.ndarray], List[Dict[str, Any]]]


def _plan_worker(
    chunk: np.ndarray, c: int, prune: bool, verify: bool
) -> _Partial:
    """Process-pool worker: drive one contiguous chunk of eligible edges.

    Each forked child builds the blocks its chunk needs through its own
    copy-on-write window and evicts them when done. Its instruments go
    to a private registry whose export comes back with the count for the
    parent to merge.
    """
    state = worker_state()
    metrics = MetricsRegistry()
    try:
        total, pieces = _run_units(
            state, int(chunk[0]), int(chunk[-1]) + 1, c, prune, verify, metrics
        )
    finally:
        state[0].evict_all()
    return total, pieces, [metrics.to_dict()]


def _merge(a: _Partial, b: _Partial) -> _Partial:
    return a[0] + b[0], a[1] + b[1], a[2] + b[2]


def execute(
    graph: CSRGraph,
    k: int,
    prepared: Optional[PreparedGraph] = None,
    tracker: Tracker = NULL_TRACKER,
    open_plan: Callable[[PreparedGraph, Tracker], ContextManager[Any]] = resident_plan,
    prune: bool = True,
    workers: Optional[int] = None,
    listing: bool = False,
    verify: bool = False,
) -> Tuple[int, Optional[List[Tuple[int, ...]]]]:
    """Count (or canonically list) k-cliques over a shard plan.

    Returns ``(count, listing)``; ``listing`` is ``None`` unless
    ``listing=True``. k ≤ 3 are closed forms. For k ≥ 4, ``open_plan``
    yields the plan's tables: :func:`resident_plan` (the default) or the
    budgeted :func:`repro.core.sharded.budgeted_plan`. Each shard's
    eligible edges are driven once. ``workers > 1`` fans contiguous
    chunks of eligible edges, weighted by community size, out over
    processes; otherwise everything runs in this process.
    """
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")
    n = graph.num_vertices
    if k == 1:
        return n, [(v,) for v in range(n)] if listing else None
    if k == 2:
        if not listing:
            return graph.num_edges, None
        us, vs = graph.edge_array()
        return graph.num_edges, _canonical(np.stack([us, vs], axis=1))
    ctx = prepared_for(graph, prepared)
    dag = ctx.dag("degeneracy", tracker)
    if k == 3:
        tri = ctx.triangles("degeneracy", tracker)
        if not listing:
            return int(tri.shape[0]), None
        return int(tri.shape[0]), _canonical(dag.original_ids[tri])
    metrics = tracker.metrics
    with open_plan(ctx, tracker) as source:
        sizes = source.community_sizes(ctx, tracker)
        eligible = np.flatnonzero(sizes >= (k - 2))
        if eligible.size == 0:
            return 0, [] if listing else None
        prefixes = None
        if listing:
            us, vs = dag.edge_endpoints()
            prefixes = np.stack([us[eligible], vs[eligible]], axis=1).astype(
                np.int64
            )
        if metrics is not None and source.sharded:
            metrics.gauge("shard.count").set(source.edge_bounds.size - 1)
        bounds = np.searchsorted(eligible, source.edge_bounds)
        sizes = sizes[eligible]
        state = (source, dag, eligible, sizes, bounds, prefixes)
        if workers is not None and workers > 1:
            got = parallel_map_reduce(
                _plan_worker,
                int(eligible.size),
                args=(k - 2, prune, verify),
                combine=_merge,
                n_workers=workers,
                state=state,
                initial=(0, [], []),
                tracker=tracker,
                weights=sizes.astype(np.float64),
            )
            assert got is not None
            total, pieces, exports = got
            if metrics is not None:
                for exported in exports:
                    metrics.merge(exported)
        else:
            total, pieces = _run_units(
                state, 0, int(eligible.size), k - 2, prune, verify, metrics
            )
    if not listing:
        return total, None
    if not pieces:
        return total, []
    return total, _canonical(dag.original_ids[np.concatenate(pieces)])


def frontier_count_cliques(
    graph: CSRGraph,
    k: int,
    prepared: Optional[PreparedGraph] = None,
    tracker: Tracker = NULL_TRACKER,
    prune: bool = True,
) -> int:
    """Count k-cliques over the in-RAM tables.

    Bit-identical to the reference engine (asserted across the test suite
    and the ``repro fuzz`` oracles). ``tracker`` is charged for preprocessing
    built on a miss; the frontier advance itself is untracked (its cost
    model is the reference engine's — this engine exists to make the same
    computation fast).
    """
    return execute(graph, k, prepared, tracker, prune=prune)[0]


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
    listed = execute(graph, k, prepared, tracker, listing=True)[1]
    assert listed is not None
    return listed
