"""Out-of-core sharded frontier engine: count k-cliques beyond RAM.

The frontier engine's two m×W packed-bitset tables are the library's
scale ceiling: O(m·γ) bytes, materialized up front, resident for the
whole query. This module removes the ceiling by *sharding* the tables
along the source-vertex axis and streaming the shards through a
bounded-memory window.

Why source-range sharding is exact
----------------------------------
A frontier drive rooted at the eligible edges of source ``u`` only ever
touches table rows in ``[out_indptr[u], out_indptr[u] + outdeg(u))``:
every mask derived from an edge of ``u`` renames candidates within
``N⁺(u)``, and every gathered row index is ``base + p`` with ``base =
out_indptr[u]``. So the table block of a contiguous source range
``[v_lo, v_hi)`` — the edge rows ``[e0, e1) = [out_indptr[v_lo],
out_indptr[v_hi])`` — is fully self-contained: rebase the row offsets by
``-e0`` and the unmodified level-synchronous drive runs on the block as
if it were a whole graph's tables. Clique counting is additive over the
disjoint union of per-source-edge subproblems, so the global count is
the sum of per-shard counts — bit-identical to the in-RAM engine.

The machinery
-------------
* :func:`plan_shards` sizes shards *before* any allocation from the
  exact per-shard byte cost ``(16·W + 1)·m_shard`` (two tables × 8-byte
  words, plus the one-byte completeness flag of every row)
  so that ``window`` concurrently-resident blocks fit the
  ``memory_budget_bytes`` envelope; a single source vertex is the
  indivisible minimum.
* :class:`ShardedTables` builds each shard's block on demand into
  plain numpy arrays of exactly the priced bytes, keeps at most
  ``window`` blocks resident (LRU), and evicts the rest, so the
  resident footprint tracks the budget, not the graph. An evicted
  block is rebuilt from the resident triangles when it is next needed.
* :func:`budgeted_plan` hands those blocks to the one frontier executor
  (:func:`repro.core.frontier.execute`), which drives each shard's
  eligible edges in turn or fans them out over processes;
  :func:`sharded_count_cliques` / :func:`sharded_list_cliques` are its
  budgeted entry points, with optional per-shard verification against
  the disjoint-union additivity oracle (``verify=True`` re-counts each
  shard as two half-slices and asserts the sums agree).

Observability: ``shard.count``, ``shard.bytes.built``,
``shard.bytes.resident``, ``shard.bytes.resident_peak``,
``shard.window.occupancy``, ``shard.evictions`` and
``shard.wall_imbalance`` land in the tracker's metrics registry (see
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, List, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..pram.tracker import NULL_TRACKER, Tracker
from .frontier import (
    FrontierTables,
    complete_flags,
    execute,
    scatter_triangles,
)
from .prepared import PreparedGraph

__all__ = [
    "parse_memory_size",
    "predict_table_bytes",
    "Shard",
    "ShardPlan",
    "plan_shards",
    "ShardedTables",
    "open_sharded_tables",
    "budgeted_plan",
    "sharded_count_cliques",
    "sharded_list_cliques",
]

# Two tables (rows, rows_in) of uint64 words per directed-edge row,
# plus the one-byte completeness flag.
BYTES_PER_WORD = 8
TABLES_PER_EDGE = 2
FLAG_BYTES_PER_EDGE = 1

_SIZE_RE = re.compile(r"^([0-9]*\.?[0-9]+)\s*([A-Z]*)$")
_SIZE_UNITS = {
    "": 1,
    "B": 1,
    "K": 1024,
    "KB": 1024,
    "KIB": 1024,
    "M": 1024 ** 2,
    "MB": 1024 ** 2,
    "MIB": 1024 ** 2,
    "G": 1024 ** 3,
    "GB": 1024 ** 3,
    "GIB": 1024 ** 3,
    "T": 1024 ** 4,
    "TB": 1024 ** 4,
    "TIB": 1024 ** 4,
}


def parse_memory_size(text: Optional[str]) -> Optional[int]:
    """Parse a human-readable byte size; ``None``/``"unlimited"`` → ``None``.

    Accepts plain byte counts (``"1048576"``) and binary-suffixed forms
    (``"64K"``, ``"512M"``, ``"1.5G"``, ``"2GiB"``). The return value is
    a positive integer byte count, or ``None`` for the unlimited
    sentinel — the convention every ``memory_budget_bytes`` parameter in
    the library follows.
    """
    if text is None:
        return None
    if isinstance(text, (int, float)):
        value = int(text)
        if value <= 0:
            raise ValueError(f"memory budget must be positive, got {text!r}")
        return value
    s = str(text).strip().upper()
    if s in ("", "NONE", "UNLIMITED", "INF", "INFINITY", "0"):
        return None
    match = _SIZE_RE.match(s)
    if match is None or match.group(2) not in _SIZE_UNITS:
        raise ValueError(
            f"cannot parse memory size {text!r}; "
            "use forms like 1048576, 64K, 512M or 1.5G"
        )
    value = int(float(match.group(1)) * _SIZE_UNITS[match.group(2)])
    if value <= 0:
        raise ValueError(f"memory budget must be positive, got {text!r}")
    return value


def _bytes_per_edge(width: int) -> int:
    return TABLES_PER_EDGE * BYTES_PER_WORD * int(width) + FLAG_BYTES_PER_EDGE


def predict_table_bytes(m: int, max_out_degree: int) -> int:
    """Exact bytes of the full in-RAM frontier tables of a DAG.

    ``(16·W + 1)·m`` with ``W = ceil(max_out_degree / 64)``: two m×W
    uint64 tables and the m one-byte completeness flags. Computable from
    cheap statistics before any allocation — the admission controller
    uses the degeneracy ``s`` as the ``max_out_degree`` bound
    (out-degrees under a degeneracy order never exceed ``s``), the
    dispatcher uses the oriented DAG's exact value.
    """
    width = (int(max_out_degree) + 63) // 64
    return _bytes_per_edge(width) * int(m)


@dataclass(frozen=True)
class Shard:
    """One contiguous source-vertex range and its directed-edge rows."""

    index: int
    v_lo: int
    v_hi: int
    e0: int
    e1: int

    @property
    def num_edges(self) -> int:
        return self.e1 - self.e0


@dataclass(frozen=True)
class ShardPlan:
    """The source-range partition of a DAG's frontier tables.

    Shards partition ``[0, n)`` by vertex and ``[0, m)`` by edge row;
    ``table_bytes(i)`` is the exact block cost the planner sized
    against, so callers can reason about the resident envelope
    before any allocation.
    """

    shards: Tuple[Shard, ...]
    width: int
    num_vertices: int
    num_edges: int
    memory_budget_bytes: Optional[int]
    window: int

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def bytes_per_edge(self) -> int:
        return _bytes_per_edge(self.width)

    def table_bytes(self, index: int) -> int:
        return self.shards[index].num_edges * self.bytes_per_edge

    @property
    def total_table_bytes(self) -> int:
        return self.num_edges * self.bytes_per_edge

    @property
    def max_shard_bytes(self) -> int:
        if not self.shards:
            return 0
        return max(self.table_bytes(s.index) for s in self.shards)


def plan_shards(
    out_indptr: np.ndarray,
    width: int,
    memory_budget_bytes: Optional[int] = None,
    window: int = 2,
) -> ShardPlan:
    """Partition the source-vertex range so windowed blocks fit the budget.

    The per-shard envelope is ``memory_budget_bytes // window`` (the
    streaming loop keeps up to ``window`` blocks resident at once); the
    greedy walk closes a shard at the last vertex whose cumulative edge
    rows still fit, with a single vertex as the indivisible minimum —
    one hub's ``outdeg·W`` rows can exceed any budget, and splitting a
    source would break the self-containment invariant. A ``None``
    budget (or a zero-width table) degenerates to one all-covering
    shard: the planner never pays overhead the budget doesn't ask for.
    """
    n = int(out_indptr.shape[0]) - 1
    m = int(out_indptr[-1]) if n >= 0 else 0
    window = max(1, int(window))
    bytes_per_edge = _bytes_per_edge(width)
    if memory_budget_bytes is None or width == 0 or m == 0 or n <= 0:
        shards = (Shard(0, 0, n, 0, m),) if n > 0 else ()
        return ShardPlan(shards, int(width), n, m, memory_budget_bytes, window)
    per_shard = max(1, int(memory_budget_bytes) // window)
    max_edges = max(1, per_shard // bytes_per_edge)
    shards: List[Shard] = []
    v_lo = 0
    while v_lo < n:
        e0 = int(out_indptr[v_lo])
        # Last vertex boundary still within e0 + max_edges; trailing
        # zero-out-degree vertices ride along for free (indptr is flat
        # across them, so they never add block bytes).
        v_hi = int(
            np.searchsorted(out_indptr, e0 + max_edges, side="right")
        ) - 1
        v_hi = min(max(v_hi, v_lo + 1), n)
        shards.append(
            Shard(len(shards), v_lo, v_hi, e0, int(out_indptr[v_hi]))
        )
        v_lo = v_hi
    return ShardPlan(
        tuple(shards), int(width), n, m, int(memory_budget_bytes), window
    )


class ShardedTables:
    """Lazily-built, individually-evictable shard blocks of one DAG.

    Each block is the frontier tables of one shard, built on first use
    into plain numpy arrays with local edge row ``e - e0`` as the
    block's row index. A block holds exactly the ``plan.table_bytes``
    the planner priced. At most ``plan.window`` blocks stay resident
    (LRU); eviction drops the arrays, and a later access rebuilds the
    block from the resident triangles. Forked worker processes inherit
    the object copy-on-write and evict only their own copies.
    """

    # A plan source of :func:`repro.core.frontier.execute`: its blocks
    # are budgeted shards, so it reports the ``shard.*`` metrics.
    sharded = True

    def __init__(
        self, dag: Any, triangles: np.ndarray, plan: ShardPlan
    ) -> None:
        self._dag = dag
        self.plan = plan
        tri = triangles
        if tri.shape[0] and np.any(np.diff(tri[:, 0]) < 0):
            # Dynamic patching can leave triangles unsorted by source;
            # the per-shard slicing below needs sortedness once.
            tri = tri[np.argsort(tri[:, 0], kind="stable")]
        self._triangles = tri
        self._lock = threading.RLock()
        self._blocks: "OrderedDict[int, FrontierTables]" = OrderedDict()
        # First edge row of every shard, then m: where the executor cuts.
        self.edge_bounds = np.array(
            [s.e0 for s in plan.shards] + [plan.num_edges], dtype=np.int64
        )

    def resident_bytes(self) -> int:
        """Bytes of currently-resident blocks (the windowed footprint)."""
        with self._lock:
            return sum(self.plan.table_bytes(i) for i in self._blocks)

    def community_sizes(self, ctx: Any, tracker: Any) -> np.ndarray:
        """|C(e)| of every edge, from the context's edge communities.

        The blocks are built on demand, so their ``sizes`` cannot serve
        the whole graph's eligibility up front.
        """
        return ctx.communities("degeneracy", tracker).sizes

    def evict_all(self) -> None:
        with self._lock:
            self._blocks.clear()

    def _build_block(self, shard: Shard) -> FrontierTables:
        dag = self._dag
        width = self.plan.width
        rows = np.zeros((shard.num_edges, width), dtype=np.uint64)
        rows_in = np.zeros((shard.num_edges, width), dtype=np.uint64)
        tri = self._triangles
        lo = int(np.searchsorted(tri[:, 0], shard.v_lo, side="left"))
        hi = int(np.searchsorted(tri[:, 0], shard.v_hi, side="left"))
        e_uw, e_uv = scatter_triangles(dag, tri[lo:hi], rows, rows_in, shard.e0)
        complete, _ = complete_flags(rows, rows_in, e_uw, e_uv)
        rows.setflags(write=False)
        rows_in.setflags(write=False)
        complete.setflags(write=False)
        return FrontierTables(rows, rows_in, complete, width)

    def block(self, index: int, metrics: Any = None) -> FrontierTables:
        """The frontier tables of shard ``index``, building on a miss.

        A hit refreshes the block's LRU position; a miss first evicts
        down to one below the window, then builds the block, so at most
        ``plan.window`` blocks are resident even during a build.
        ``metrics`` (a registry, optional) receives the ``shard.*``
        build/evict/residency instruments.
        """
        with self._lock:
            got = self._blocks.get(index)
            if got is not None:
                self._blocks.move_to_end(index)
                return got
            evicted = 0
            while len(self._blocks) >= self.plan.window:
                self._blocks.popitem(last=False)
                evicted += 1
            tables = self._build_block(self.plan.shards[index])
            self._blocks[index] = tables
            if metrics is not None:
                metrics.counter("shard.bytes.built").inc(
                    self.plan.table_bytes(index)
                )
                if evicted:
                    metrics.counter("shard.evictions").inc(evicted)
                resident = self.resident_bytes()
                metrics.gauge("shard.bytes.resident").set(resident)
                metrics.gauge("shard.bytes.resident_peak").set_max(resident)
                metrics.histogram("shard.window.occupancy").record(
                    len(self._blocks)
                )
            return tables


def open_sharded_tables(
    dag: Any, triangles: np.ndarray, memory_budget_bytes: Optional[int]
) -> ShardedTables:
    """Plan ``dag``'s shards for the budget and open their (lazy) blocks."""
    plan = plan_shards(
        dag.out_indptr, (dag.max_out_degree + 63) // 64, memory_budget_bytes
    )
    return ShardedTables(dag, triangles, plan)


def budgeted_plan(
    memory_budget_bytes: Optional[int],
) -> Callable[[PreparedGraph, Tracker], ContextManager[ShardedTables]]:
    """The budgeted plan opener for :func:`repro.core.frontier.execute`.

    The plan is the context's memoized piece keyed by the budget, so a
    multi-k sweep or a warm server streams from the same blocks; a cold
    call's private context owns its plan and frees it with itself.
    """

    def open_plan(
        ctx: PreparedGraph, tracker: Tracker
    ) -> ContextManager[ShardedTables]:
        return nullcontext(
            ctx.sharded_tables(
                "degeneracy", tracker, memory_budget_bytes=memory_budget_bytes
            )
        )

    return open_plan


def sharded_count_cliques(
    graph: CSRGraph,
    k: int,
    memory_budget_bytes: Optional[int] = None,
    prepared: Optional[PreparedGraph] = None,
    tracker: Tracker = NULL_TRACKER,
    prune: bool = True,
    workers: Optional[int] = None,
    verify: bool = False,
) -> int:
    """Count k-cliques with out-of-core sharded frontier tables.

    Bit-identical to :func:`~repro.core.frontier.frontier_count_cliques`
    on every graph both can handle, but only a window of shard blocks of
    the tables is ever resident at once — ``memory_budget_bytes`` bounds
    the resident table footprint instead of the graph's O(m·γ) total.
    ``workers > 1`` fans chunks of eligible edges out over processes
    (each child streams its own window); ``verify=True`` re-proves the
    disjoint-union additivity oracle on every shard slice (≈2× the
    counting work — a correctness harness, not a serving mode).
    """
    return execute(
        graph, k, prepared, tracker, budgeted_plan(memory_budget_bytes),
        prune=prune, workers=workers, verify=verify,
    )[0]


def sharded_list_cliques(
    graph: CSRGraph,
    k: int,
    memory_budget_bytes: Optional[int] = None,
    prepared: Optional[PreparedGraph] = None,
    tracker: Tracker = NULL_TRACKER,
) -> List[Tuple[int, ...]]:
    """List k-cliques canonically, streaming table shards under a budget.

    Output is byte-identical to
    :func:`~repro.core.frontier.frontier_list_cliques` (sorted tuples in
    lexicographic order). Only the *tables* are budgeted — the listing
    itself is Ω(#cliques·k) and is returned in RAM either way.
    """
    listed = execute(
        graph, k, prepared, tracker, budgeted_plan(memory_budget_bytes),
        listing=True,
    )[1]
    assert listed is not None
    return listed
