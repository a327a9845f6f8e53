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

The executor
------------
A drive rooted at the eligible edges of source ``u`` reads only the
table rows of ``N⁺(u)``, so Algorithm 1's per-edge subproblems split
along any source range. :func:`execute` serves every frontier query over
a *shard plan*: a list of source-range shards, each a self-contained
table block. The in-RAM plan (:func:`resident_plan`) is one resident
shard, the memoized tables themselves; the budgeted plan
(:func:`repro.core.sharded.spilled_plan`) streams memmapped blocks built
on demand. The executor owns the k ≤ 3 closed forms, drives each shard's
eligible edges once for counts and canonical listings, and with
``workers > 1`` fans contiguous chunks of eligible edges, weighted by
community size, out over processes.

The search itself is untracked — a tracker passed to the entry points
only accounts the shared preprocessing — but the frontier shape is
observable: ``frontier.rounds``, ``frontier.width``,
``frontier.peak_width``, ``frontier.pairs`` and ``frontier.children``
land in the tracker's metrics registry when one is attached.
"""

from __future__ import annotations

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
    "scatter_triangles",
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
    out-neighborhood of its source; ``base[e]`` is the source's row
    offset, so member bit ``p`` of any mask derived from edge ``e``
    denotes DAG vertex ``out_indices[base[e] + p]`` and its own rows sit
    at index ``base[e] + p``. ``width`` is the shared word count
    ``ceil(s̃/64)``.

    Immutable: the three arrays are sealed read-only by
    :func:`build_frontier_tables`, so forked workers can share the
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
    scatter_triangles(dag, triangles, rows, rows_in)
    rows.setflags(write=False)
    rows_in.setflags(write=False)
    base.setflags(write=False)
    return FrontierTables(rows, rows_in, base, width)


def scatter_triangles(
    dag: OrientedDAG,
    triangles: np.ndarray,
    rows: np.ndarray,
    rows_in: np.ndarray,
    e0: int = 0,
) -> None:
    """OR the local edge of every triangle into table rows ``[e0, ...)``.

    Triangle ``(u, w, v)`` sets bit ``v`` in ``rows[(u, w) - e0]`` and
    bit ``w`` in ``rows_in[(u, v) - e0]``, both renamed within N⁺(u);
    the edge ids come from one :meth:`OrientedDAG.edge_ids` lookup each.
    ``rows``/``rows_in`` may be a block of the full tables (a shard's
    memmap), in which case every triangle's source must lie in it.
    """
    if not triangles.shape[0]:
        return
    u = triangles[:, 0]
    e_uw = dag.edge_ids(u, triangles[:, 1])
    e_uv = dag.edge_ids(u, triangles[:, 2])
    src_base = dag.out_indptr[u]
    iw = e_uw - src_base  # local rename of w in N+(u)
    iv = e_uv - src_base  # local rename of v in N+(u)
    np.bitwise_or.at(rows, (e_uw - e0, iv >> 6), _BITS[iv & 63])
    np.bitwise_or.at(rows_in, (e_uv - e0, iw >> 6), _BITS[iw & 63])


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

    spilled = False

    def __init__(self, tables: FrontierTables) -> None:
        self.tables = tables
        self.edge_bounds = np.array([0, tables.rows.shape[0]], dtype=np.int64)

    def block(self, index: int, metrics: Any = None) -> FrontierTables:
        return self.tables

    def evict_all(self) -> int:
        return 0


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

    Frozen: state
    """
    source, out_indices, eligible, _, prefixes = state
    tables = source.block(index, metrics=metrics)
    e0, e1 = source.edge_bounds[index], source.edge_bounds[index + 1]
    local = eligible[lo:hi] - e0
    return _drive(
        tables,
        tables.base[local],
        tables.rows_in[local],
        c,
        prune=prune,
        prefixes=None if prefixes is None else prefixes[lo:hi],
        out_indices=out_indices[e0:e1],
        metrics=metrics,
    )


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
    source, _, _, bounds, _ = state
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
    if metrics is not None and source.spilled and walls:
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
    window (spill filenames are pid-scoped, so siblings never collide)
    and evicts them when done. Its instruments go to a private registry
    whose export comes back with the count for the parent to merge.
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
    budgeted :func:`repro.core.sharded.spilled_plan`. Each shard's
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
    if k == 3 and listing:
        tri = ctx.triangles("degeneracy", tracker)
        return int(tri.shape[0]), _canonical(dag.original_ids[tri])
    comms = ctx.communities("degeneracy", tracker)
    if k == 3:
        return comms.num_triangles, None
    eligible = np.flatnonzero(comms.sizes >= (k - 2))
    if eligible.size == 0:
        return 0, [] if listing else None
    prefixes = None
    if listing:
        us, vs = dag.edge_endpoints()
        prefixes = np.stack([us[eligible], vs[eligible]], axis=1).astype(np.int64)
    metrics = tracker.metrics
    with open_plan(ctx, tracker) as source:
        if metrics is not None and source.spilled:
            metrics.gauge("shard.count").set(source.edge_bounds.size - 1)
        bounds = np.searchsorted(eligible, source.edge_bounds)
        state = (source, dag.out_indices, eligible, bounds, prefixes)
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
                weights=comms.sizes[eligible].astype(np.float64),
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
    and ``repro selfcheck``). ``tracker`` is charged for preprocessing
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
