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
  exact per-shard byte cost ``16·m_shard·W`` (two tables × 8-byte words)
  so that ``window`` concurrently-resident blocks fit the
  ``memory_budget_bytes`` envelope; a single source vertex is the
  indivisible minimum.
* :class:`ShardedTables` builds each shard's block on demand into a
  ``np.memmap`` scratch file under a managed spill directory
  (:class:`SpillDir`), keeps at most ``window`` blocks mapped (LRU), and
  evicts the rest — eviction drops the mapping and unlinks the scratch
  file, so the resident footprint tracks the budget, not the graph.
* :func:`spilled_plan` hands those blocks to the one frontier executor
  (:func:`repro.core.frontier.execute`), which drives each shard's
  eligible edges in turn or fans them out over processes;
  :func:`sharded_count_cliques` / :func:`sharded_list_cliques` are its
  budgeted entry points, with optional per-shard verification against
  the disjoint-union additivity oracle (``verify=True`` re-counts each
  shard as two half-slices and asserts the sums agree).

Observability: ``shard.count``, ``shard.bytes.built``,
``shard.bytes.spilled``, ``shard.bytes.resident``,
``shard.bytes.resident_peak``, ``shard.window.occupancy``,
``shard.evictions`` and ``shard.wall_imbalance`` land in the tracker's
metrics registry (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
import threading
import weakref
from collections import OrderedDict
from contextlib import closing, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, List, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..pram.tracker import NULL_TRACKER, Tracker
from .frontier import FrontierTables, execute, scatter_triangles
from .prepared import PreparedGraph

__all__ = [
    "parse_memory_size",
    "predict_table_bytes",
    "Shard",
    "ShardPlan",
    "plan_shards",
    "SpillDir",
    "ShardedTables",
    "open_sharded_tables",
    "spilled_plan",
    "sharded_count_cliques",
    "sharded_list_cliques",
]

# Two tables (rows, rows_in) of uint64 words per directed-edge row.
BYTES_PER_WORD = 8
TABLES_PER_EDGE = 2

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


def predict_table_bytes(m: int, max_out_degree: int) -> int:
    """Exact bytes of the full in-RAM frontier tables of a DAG.

    ``16·m·W`` with ``W = ceil(max_out_degree / 64)``: two m×W uint64
    tables. Computable from cheap statistics before any allocation —
    the admission controller uses the degeneracy ``s`` as the
    ``max_out_degree`` bound (out-degrees under a degeneracy order never
    exceed ``s``), the dispatcher uses the oriented DAG's exact value.
    """
    width = (int(max_out_degree) + 63) // 64
    return TABLES_PER_EDGE * BYTES_PER_WORD * int(m) * width


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
    against, so callers can reason about the spill/resident envelope
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
        return TABLES_PER_EDGE * BYTES_PER_WORD * self.width

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
    streaming loop keeps up to ``window`` blocks mapped at once); the
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
    bytes_per_edge = TABLES_PER_EDGE * BYTES_PER_WORD * int(width)
    if memory_budget_bytes is None or bytes_per_edge == 0 or m == 0 or n <= 0:
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


class SpillDir:
    """A managed scratch directory for memory-mapped shard blocks.

    Created eagerly, removed exactly once — by :meth:`close`, or by the
    ``weakref.finalize`` guard when the owner is garbage-collected or
    the interpreter exits (including exits forced by an unhandled
    ``KeyboardInterrupt``). Removal is recursive and error-tolerant, so
    a crashed run never strands scratch files past process death.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.path = tempfile.mkdtemp(prefix="repro-shard-", dir=root)
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, self.path, ignore_errors=True
        )

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def close(self) -> None:
        """Remove the directory and everything in it (idempotent)."""
        self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        return f"SpillDir({self.path!r}, {state})"


class _Block:
    """One resident shard block: its tables view and its scratch file."""

    __slots__ = ("tables", "path", "nbytes", "pid")

    def __init__(
        self,
        tables: FrontierTables,
        path: Optional[str],
        nbytes: int,
        pid: int,
    ) -> None:
        self.tables = tables
        self.path = path
        self.nbytes = nbytes
        self.pid = pid


class ShardedTables:
    """Lazily-built, individually-evictable shard blocks of one DAG.

    Each block is the frontier-table pair of one shard, built on first
    use into a ``np.memmap`` under the spill directory and rebased so
    local edge row ``e - e0`` is the block's row index. At most
    ``plan.window`` blocks stay mapped (LRU); eviction unmaps and
    unlinks. Forked worker processes inherit the object copy-on-write:
    scratch filenames carry the builder's pid, and eviction only unlinks
    files the *current* process created, so a child can never delete a
    block its parent (or sibling) is still reading.
    """

    # A plan source of :func:`repro.core.frontier.execute`: its blocks
    # are built into spill files, so it reports the ``shard.*`` metrics.
    spilled = True

    def __init__(
        self,
        dag: Any,
        triangles: np.ndarray,
        plan: ShardPlan,
        spill_root: Optional[str] = None,
    ) -> None:
        self._dag = dag
        self.plan = plan
        tri = triangles
        if tri.shape[0] and np.any(np.diff(tri[:, 0]) < 0):
            # Dynamic patching can leave triangles unsorted by source;
            # the per-shard slicing below needs sortedness once.
            tri = tri[np.argsort(tri[:, 0], kind="stable")]
        self._triangles = tri
        self._spill = SpillDir(root=spill_root)
        self._lock = threading.RLock()
        self._blocks: "OrderedDict[int, _Block]" = OrderedDict()
        self.bytes_built = 0
        self.evictions = 0
        # First edge row of every shard, then m: where the executor cuts.
        self.edge_bounds = np.array(
            [s.e0 for s in plan.shards] + [plan.num_edges], dtype=np.int64
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def spill_path(self) -> str:
        return self._spill.path

    @property
    def closed(self) -> bool:
        return self._spill.closed

    def resident_bytes(self) -> int:
        """Bytes of currently-mapped blocks (the windowed footprint)."""
        with self._lock:
            return sum(b.nbytes for b in self._blocks.values())

    def resident_shards(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(self._blocks.keys())

    def close(self) -> None:
        """Evict everything and remove the spill directory (idempotent)."""
        with self._lock:
            self.evict_all()
            self._spill.close()

    # -- block window ------------------------------------------------------

    def _evict_one(self) -> None:
        _, block = self._blocks.popitem(last=False)
        self.evictions += 1
        block.tables = None  # type: ignore[assignment]
        if block.path is not None and block.pid == os.getpid():
            try:
                os.unlink(block.path)
            except OSError:
                pass

    def evict(self, index: Optional[int] = None) -> int:
        """Drop one block (the LRU one, or ``index``); returns count dropped."""
        with self._lock:
            if not self._blocks:
                return 0
            if index is not None:
                if index not in self._blocks:
                    return 0
                self._blocks.move_to_end(index, last=False)
            self._evict_one()
            return 1

    def evict_all(self) -> int:
        with self._lock:
            dropped = 0
            while self._blocks:
                self._evict_one()
                dropped += 1
            return dropped

    def _build_block(self, shard: Shard) -> _Block:
        dag = self._dag
        width = self.plan.width
        m_shard = shard.num_edges
        e0, e1 = shard.e0, shard.e1
        us, _ = dag.edge_endpoints()
        us_slice = us[e0:e1].astype(np.int64)
        base = dag.out_indptr[us_slice] - e0
        base.setflags(write=False)
        if width == 0 or m_shard == 0:
            rows = np.zeros((m_shard, width), dtype=np.uint64)
            rows_in = np.zeros((m_shard, width), dtype=np.uint64)
            rows.setflags(write=False)
            rows_in.setflags(write=False)
            tables = FrontierTables(rows, rows_in, base, width)
            return _Block(tables, None, 0, os.getpid())
        path = self._spill.file(f"shard-{shard.index}-pid{os.getpid()}.bin")
        mm = np.memmap(
            path, dtype=np.uint64, mode="w+", shape=(2, m_shard, width)
        )
        tri = self._triangles
        lo = int(np.searchsorted(tri[:, 0], shard.v_lo, side="left"))
        hi = int(np.searchsorted(tri[:, 0], shard.v_hi, side="left"))
        scatter_triangles(dag, tri[lo:hi], mm[0], mm[1], e0)
        mm.flush()
        mm.setflags(write=False)
        tables = FrontierTables(mm[0], mm[1], base, width)
        return _Block(tables, path, int(mm.nbytes), os.getpid())

    def block(self, index: int, metrics: Any = None) -> FrontierTables:
        """The frontier tables of shard ``index``, building on a miss.

        A hit refreshes the block's LRU position; a miss builds the
        memmap block and evicts down to the window. ``metrics`` (a
        registry, optional) receives the ``shard.*`` build/evict/
        residency instruments.
        """
        shard = self.plan.shards[index]
        with self._lock:
            if self._spill.closed:
                raise RuntimeError(
                    "sharded tables are closed; their spill directory is gone"
                )
            got = self._blocks.get(index)
            if got is not None:
                self._blocks.move_to_end(index)
                return got.tables
            block = self._build_block(shard)
            self._blocks[index] = block
            self.bytes_built += block.nbytes
            evicted_before = self.evictions
            while len(self._blocks) > self.plan.window:
                self._evict_one()
            if metrics is not None:
                metrics.counter("shard.bytes.built").inc(block.nbytes)
                if block.path is not None:
                    metrics.counter("shard.bytes.spilled").inc(block.nbytes)
                if self.evictions > evicted_before:
                    metrics.counter("shard.evictions").inc(
                        self.evictions - evicted_before
                    )
                resident = sum(b.nbytes for b in self._blocks.values())
                metrics.gauge("shard.bytes.resident").set(resident)
                metrics.gauge("shard.bytes.resident_peak").set_max(resident)
                metrics.histogram("shard.window.occupancy").record(
                    len(self._blocks)
                )
            return block.tables


def open_sharded_tables(
    dag: Any,
    triangles: np.ndarray,
    memory_budget_bytes: Optional[int],
    window: int = 2,
    spill_root: Optional[str] = None,
) -> ShardedTables:
    """Plan ``dag``'s shards for the budget and open their (lazy) blocks."""
    plan = plan_shards(
        dag.out_indptr,
        (dag.max_out_degree + 63) // 64,
        memory_budget_bytes,
        window,
    )
    return ShardedTables(dag, triangles, plan, spill_root=spill_root)


def spilled_plan(
    memory_budget_bytes: Optional[int],
    window: int = 2,
    spill_root: Optional[str] = None,
    shared: bool = True,
) -> Callable[[PreparedGraph, Tracker], ContextManager[ShardedTables]]:
    """The budgeted plan opener for :func:`repro.core.frontier.execute`.

    With ``shared`` (the context outlives the query) and no
    ``spill_root``, the plan is the context's memoized piece keyed by
    (budget, window), so a multi-k sweep or a warm server streams from
    the same spill files. Otherwise the query gets private tables,
    closed (spill files removed) when it ends, even on error.
    """

    def open_plan(
        ctx: PreparedGraph, tracker: Tracker
    ) -> ContextManager[ShardedTables]:
        if shared and spill_root is None:
            return nullcontext(
                ctx.sharded_tables(
                    "degeneracy",
                    tracker,
                    memory_budget_bytes=memory_budget_bytes,
                    window=window,
                )
            )
        return closing(
            open_sharded_tables(
                ctx.dag("degeneracy", tracker),
                ctx.triangles("degeneracy", tracker),
                memory_budget_bytes,
                window,
                spill_root,
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
    window: int = 2,
    verify: bool = False,
    spill_root: Optional[str] = None,
) -> int:
    """Count k-cliques with out-of-core sharded frontier tables.

    Bit-identical to :func:`~repro.core.frontier.frontier_count_cliques`
    on every graph both can handle, but only ``window`` shard blocks of
    the tables are ever mapped at once — ``memory_budget_bytes`` bounds
    the resident table footprint instead of the graph's O(m·γ) total.
    ``workers > 1`` fans chunks of eligible edges out over processes
    (each child streams its own window); ``verify=True`` re-proves the
    disjoint-union additivity oracle on every shard slice (≈2× the
    counting work — a correctness harness, not a serving mode).
    ``spill_root`` overrides the scratch-file location (tests point it
    at a tmpdir to observe cleanup); passing it forces a private,
    non-memoized table set even on a warm context.
    """
    plan = spilled_plan(
        memory_budget_bytes, window, spill_root, shared=prepared is not None
    )
    return execute(
        graph, k, prepared, tracker, plan,
        prune=prune, workers=workers, verify=verify,
    )[0]


def sharded_list_cliques(
    graph: CSRGraph,
    k: int,
    memory_budget_bytes: Optional[int] = None,
    prepared: Optional[PreparedGraph] = None,
    tracker: Tracker = NULL_TRACKER,
    window: int = 2,
    spill_root: Optional[str] = None,
) -> List[Tuple[int, ...]]:
    """List k-cliques canonically, streaming table shards under a budget.

    Output is byte-identical to
    :func:`~repro.core.frontier.frontier_list_cliques` (sorted tuples in
    lexicographic order). Only the *tables* are budgeted — the listing
    itself is Ω(#cliques·k) and is returned in RAM either way.
    """
    plan = spilled_plan(
        memory_budget_bytes, window, spill_root, shared=prepared is not None
    )
    listed = execute(graph, k, prepared, tracker, plan, listing=True)[1]
    assert listed is not None
    return listed
