"""Shared, query-independent preprocessing: order → DAG → triangles → communities.

Every engine in the library opens with the same query-independent
pipeline (Algorithm 1 line 1): compute a vertex (or edge) order, orient
the graph by it, list the triangles, and materialize the sorted edge
communities. None of that depends on ``k``, on counting-vs-listing, or
on the engine — yet the seed code recomputed it on every call, so a
clique-spectrum sweep or a bench matrix paid the O(m·s̃) preprocessing
once *per query* instead of once per graph.

:class:`PreparedGraph` is the amortization point: one instance per
``(graph, eps)`` lazily computes each piece exactly once and hands it to
any engine. Pieces are keyed by order family —

* vertex orders: ``"degeneracy"`` (exact Matula–Beck) and ``"approx"``
  (the (2+ε)-approximate parallel peeling) — each with its oriented DAG,
  triangle list, and edge communities;
* edge orders (Algorithm 3): ``"exact"`` greedy and ``"approx"``
  (Algorithm 4).

Cost semantics: a *miss* builds the piece with the caller's tracker
under the same phase names the cold path uses (``orientation``,
``communities``, ``edge-order``), so the first query on a context is
charged exactly like an unprepared run; a *hit* charges nothing. Hits
and misses are counted on the instance (``hits``/``misses``) and, when
the caller's tracker carries a metrics registry (:mod:`repro.obs`),
recorded as the ``prepared.piece.hit`` / ``prepared.piece.miss``
counters.

:class:`PreparedCache` + :func:`prepare` add the module-level LRU the
public façade (:mod:`repro.core.api`) uses by default: ``prepare(g)``
returns one shared context per live graph object (graphs are immutable
and identity-hashed), so repeated API queries against the same graph
amortize preprocessing with no caller cooperation. Engine-level entry
points (``run_variant``, ``frontier_count_cliques``, …) stay *cold* unless
a context is passed explicitly — benchmarks compare cold and warm runs
on purpose.

Thread safety: both classes are multi-tenant shared state once the
query service (:mod:`repro.service`) runs engines on a worker pool, so
both are locked. :class:`PreparedCache` guards its LRU dict, the
weakref ``_on_collect`` eviction callback (which can fire on *any*
thread mid-``get`` otherwise) and its counters with one ``RLock``;
:class:`PreparedGraph` guards its piece stores with a per-instance
``RLock`` and builds pieces *inside* the lock (double-checked), so two
threads missing on the same piece converge on one frozen object and
exactly one cold build — the second thread blocks, then takes a hit.
The lock is deliberately coarse (one per context, not per piece): a
piece build is the expensive unit being deduplicated, and piece
accessors recurse into each other (``dag`` → ``order_result``), which
the reentrant lock makes safe.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.digraph import OrientedDAG, orient_by_order
from ..orders.approx_community import approx_community_order
from ..orders.approx_degeneracy import approx_degeneracy_order
from ..orders.community_order import EdgeOrderResult, community_degeneracy_order
from ..orders.degeneracy import degeneracy_order
from ..pram.cost import Cost
from ..pram.primitives import log2p1
from ..pram.tracker import NULL_TRACKER, Tracker
from ..triangles.communities import EdgeCommunities, build_communities
from ..triangles.count import list_triangles

__all__ = [
    "PreparedGraph",
    "PreparedCache",
    "prepare",
    "adopt_prepared",
    "invalidate_prepared",
    "clear_prepared_cache",
    "prepared_cache_info",
    "ORDER_VARIANTS",
    "EDGE_ORDER_KINDS",
    "PIECE_KINDS",
]

ORDER_VARIANTS = ("degeneracy", "approx")
EDGE_ORDER_KINDS = ("exact", "approx")

# Piece kind -> the instance store holding it; the vocabulary the
# patch-in-place engine (repro.dynamic.patch) and the invalidation API
# share. "kernel" entries are keyed per clique size k, the rest per
# order variant / edge-order kind.
PIECE_KINDS = (
    "order",
    "dag",
    "triangles",
    "communities",
    "edge_order",
    "frontier_tables",
    "sharded_tables",
    "kernel",
)
_PIECE_STORES = {
    "order": "_orders",
    "dag": "_dags",
    "triangles": "_triangles",
    "communities": "_communities",
    "edge_order": "_edge_orders",
    "frontier_tables": "_frontier_tables",
    "sharded_tables": "_sharded_tables",
    "kernel": "_kernels",
}


def _approx_nbytes(obj: Any, seen: set) -> int:
    """Recursively approximate the resident bytes an object keeps alive.

    Counts numpy array payloads (the only thing that matters at scale)
    and walks dicts/sequences/slotted objects to find them; a shared
    array is counted once (``seen`` dedups by id). Disk-backed
    ``np.memmap`` blocks count as zero — their residency is governed by
    the shard window and reported by the ``shard.bytes.*`` gauges, not
    by the cache's resident-bytes number. Weakrefs are never followed.
    """
    oid = id(obj)
    if oid in seen or obj is None:
        return 0
    seen.add(oid)
    if isinstance(obj, np.memmap):
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, weakref.ref):
        return 0
    if isinstance(obj, dict):
        return sum(_approx_nbytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_approx_nbytes(v, seen) for v in obj)
    if isinstance(obj, (int, float, complex, str, bytes, bool)):
        return 0
    total = 0
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            try:
                total += _approx_nbytes(getattr(obj, name), seen)
            except AttributeError:
                continue
    inst = getattr(obj, "__dict__", None)
    if inst:
        total += _approx_nbytes(inst, seen)
    return total


class PreparedGraph:
    """Lazily-built, memoized preprocessing artifacts of one graph.

    Thread one instance through any number of queries (any ``k``, any
    engine, counting or listing): each piece is computed on first use
    with the tracker of *that* query and returned as-is afterwards.
    """

    __slots__ = (
        "_graph",
        "_graph_ref",
        "eps",
        "version",
        "hits",
        "misses",
        "_lock",
        "_orders",
        "_dags",
        "_triangles",
        "_communities",
        "_edge_orders",
        "_frontier_tables",
        "_sharded_tables",
        "_kernels",
    )

    def __init__(
        self,
        graph: CSRGraph,
        eps: float = 0.5,
        pin: bool = True,
        version: int = 0,
    ) -> None:
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self._graph: Optional[CSRGraph] = graph if pin else None
        self._graph_ref = weakref.ref(graph)
        self.eps = float(eps)
        self.version = int(version)
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()
        self._orders: Dict[str, Any] = {}
        self._dags: Dict[str, OrientedDAG] = {}
        self._triangles: Dict[str, np.ndarray] = {}
        self._communities: Dict[str, EdgeCommunities] = {}
        self._edge_orders: Dict[str, EdgeOrderResult] = {}
        self._frontier_tables: Dict[str, Any] = {}
        self._sharded_tables: Dict[Tuple[str, Optional[int], int], Any] = {}
        self._kernels: Dict[int, Any] = {}

    @property
    def graph(self) -> Optional[CSRGraph]:
        """The prepared graph (``None`` once an unpinned graph is collected).

        Contexts built directly (``PreparedGraph(g)``) *pin* their graph —
        the attribute behaves exactly as the strong reference it used to
        be. Cache-owned contexts are built with ``pin=False`` so that the
        cache never keeps a graph alive: the entry auto-invalidates when
        the caller drops the last strong reference.
        """
        if self._graph is not None:
            return self._graph
        return self._graph_ref()

    def unpin(self) -> None:
        """Drop the pinning reference; the graph lives only via callers."""
        self._graph = None

    # -- patch-in-place support (repro.dynamic) ----------------------------

    def install_piece(self, kind: str, key: Any, value: Any) -> Any:
        """Adopt an externally built (patched) piece into this context.

        ``kind`` is one of :data:`PIECE_KINDS`; ``key`` is the order
        variant / edge-order kind (or ``k`` for kernels). The dynamic
        patch engine uses this to carry forward pieces it proved still
        valid (or rebuilt incrementally) across a graph mutation, so a
        warm context survives a batch without a cold rebuild.

        Installation is **first-install-wins**: if another thread
        already memoized this slot, that object is kept and returned —
        a frozen piece may already be referenced by a concurrent query,
        and clobbering it would fork two "the" triangle lists for one
        context. Callers must use the returned (winning) value.
        """
        if kind not in _PIECE_STORES:
            raise ValueError(
                f"unknown piece kind {kind!r}; choose from {PIECE_KINDS}"
            )
        with self._lock:
            return getattr(self, _PIECE_STORES[kind]).setdefault(key, value)

    def peek(self, kind: str, key: Any) -> Any:
        """A memoized piece if already built, else ``None`` (never builds).

        Lets the patch engine decide what to carry across a mutation
        without forcing cold builds of pieces no query ever asked for.
        """
        if kind not in _PIECE_STORES:
            raise ValueError(
                f"unknown piece kind {kind!r}; choose from {PIECE_KINDS}"
            )
        with self._lock:
            return getattr(self, _PIECE_STORES[kind]).get(key)

    def piece_keys(self, kind: str) -> Tuple[Any, ...]:
        """Sorted keys of the memoized pieces of one kind."""
        if kind not in _PIECE_STORES:
            raise ValueError(
                f"unknown piece kind {kind!r}; choose from {PIECE_KINDS}"
            )
        with self._lock:
            return tuple(sorted(getattr(self, _PIECE_STORES[kind])))

    def invalidate_pieces(self, kinds: Optional[Tuple[str, ...]] = None) -> int:
        """Drop memoized pieces (all of them, or only the given kinds).

        Returns the number of entries dropped — the ``patched-vs-rebuilt``
        accounting of the dynamic layer reports this as
        ``dynamic.invalidated_pieces``. Dropped pieces rebuild lazily on
        next use, exactly like a cold miss.
        """
        chosen = PIECE_KINDS if kinds is None else kinds
        dropped = 0
        with self._lock:
            for kind in chosen:
                if kind not in _PIECE_STORES:
                    raise ValueError(
                        f"unknown piece kind {kind!r}; choose from {PIECE_KINDS}"
                    )
                store = getattr(self, _PIECE_STORES[kind])
                dropped += len(store)
                store.clear()
        return dropped

    # -- bookkeeping -------------------------------------------------------

    def _note(self, tracker: Tracker, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        metrics = tracker.metrics
        if metrics is not None:
            metrics.counter(
                "prepared.piece.hit" if hit else "prepared.piece.miss"
            ).inc()

    @staticmethod
    def _check_variant(variant: str) -> None:
        if variant not in ORDER_VARIANTS:
            raise ValueError(
                f"unknown order variant {variant!r}; choose from {ORDER_VARIANTS}"
            )

    # -- vertex-order pipeline ---------------------------------------------

    def order_result(
        self, variant: str = "degeneracy", tracker: Tracker = NULL_TRACKER
    ) -> Any:
        """The order result (:class:`DegeneracyResult` / approx twin)."""
        self._check_variant(variant)
        with self._lock:
            got = self._orders.get(variant)
            if got is not None:
                self._note(tracker, hit=True)
                return got
            self._note(tracker, hit=False)
            with tracker.phase("orientation"):
                if variant == "degeneracy":
                    got = degeneracy_order(self.graph, tracker=tracker)
                else:
                    got = approx_degeneracy_order(
                        self.graph, eps=self.eps, tracker=tracker
                    )
            self._orders[variant] = got
        return got

    def dag(
        self, variant: str = "degeneracy", tracker: Tracker = NULL_TRACKER
    ) -> OrientedDAG:
        """The graph oriented by the chosen order (vertices relabeled)."""
        self._check_variant(variant)
        with self._lock:
            got = self._dags.get(variant)
            if got is not None:
                self._note(tracker, hit=True)
                return got
            order = self.order_result(variant, tracker).order
            self._note(tracker, hit=False)
            with tracker.phase("orientation"):
                got = orient_by_order(self.graph, order, tracker=tracker)
            self._dags[variant] = got
        return got

    def triangles(
        self, variant: str = "degeneracy", tracker: Tracker = NULL_TRACKER
    ) -> np.ndarray:
        """The (u, w, v) triangle list of the oriented DAG."""
        self._check_variant(variant)
        with self._lock:
            got = self._triangles.get(variant)
            if got is not None:
                self._note(tracker, hit=True)
                return got
            dag = self.dag(variant, tracker)
            self._note(tracker, hit=False)
            with tracker.phase("communities"):
                got = list_triangles(dag, tracker=tracker)
            self._triangles[variant] = got
        return got

    def communities(
        self, variant: str = "degeneracy", tracker: Tracker = NULL_TRACKER
    ) -> EdgeCommunities:
        """The sorted per-edge candidate sets (Algorithm 1, line 1)."""
        self._check_variant(variant)
        with self._lock:
            got = self._communities.get(variant)
            if got is not None:
                self._note(tracker, hit=True)
                return got
            dag = self.dag(variant, tracker)
            tri = self.triangles(variant, tracker)
            self._note(tracker, hit=False)
            with tracker.phase("communities"):
                got = build_communities(dag, tracker=tracker, triangles=tri)
            self._communities[variant] = got
        return got

    def frontier_tables(
        self, variant: str = "degeneracy", tracker: Tracker = NULL_TRACKER
    ) -> Any:
        """The edge-indexed packed bitrows of the frontier engine.

        Built from the memoized DAG + triangle list in one vectorized
        pass (:func:`repro.core.frontier.build_frontier_tables`); the
        tables are query-independent, so a multi-k sweep or a warm server
        pays the O(T) packing once per (graph, order).
        """
        self._check_variant(variant)
        with self._lock:
            got = self._frontier_tables.get(variant)
            if got is not None:
                self._note(tracker, hit=True)
                return got
            from .frontier import build_frontier_tables

            dag = self.dag(variant, tracker)
            tri = self.triangles(variant, tracker)
            self._note(tracker, hit=False)
            with tracker.phase("bitrows"):
                got = build_frontier_tables(dag, tri)
                tracker.charge(
                    Cost(
                        float(tri.shape[0] + dag.num_edges),
                        log2p1(max(tri.shape[0], dag.num_edges)) + 1,
                    )
                )
            self._frontier_tables[variant] = got
        return got

    def sharded_tables(
        self,
        variant: str = "degeneracy",
        tracker: Tracker = NULL_TRACKER,
        memory_budget_bytes: Optional[int] = None,
        window: int = 2,
    ) -> Any:
        """The out-of-core shard plan + lazily-built table blocks.

        Keyed by ``(variant, budget, window)`` — a different budget
        yields a different shard partition. Only the *plan* is built
        here (and charged, like the in-RAM tables, under the ``bitrows``
        phase); individual blocks materialize on demand inside the
        returned :class:`~repro.core.sharded.ShardedTables` and are
        individually evictable, so a warm context never pins more than
        the windowed blocks resident.
        """
        self._check_variant(variant)
        key = (
            variant,
            None if memory_budget_bytes is None else int(memory_budget_bytes),
            int(window),
        )
        with self._lock:
            got = self._sharded_tables.get(key)
            if got is not None and not got.closed:
                self._note(tracker, hit=True)
                return got
            from .sharded import ShardedTables, plan_shards

            dag = self.dag(variant, tracker)
            tri = self.triangles(variant, tracker)
            self._note(tracker, hit=False)
            with tracker.phase("bitrows"):
                plan = plan_shards(
                    dag.out_indptr,
                    (dag.max_out_degree + 63) // 64,
                    memory_budget_bytes,
                    window,
                )
                got = ShardedTables(dag, tri, plan)
                tracker.charge(
                    Cost(
                        float(dag.num_vertices + plan.num_shards),
                        log2p1(dag.num_vertices) + 1,
                    )
                )
            self._sharded_tables[key] = got
        return got

    def approx_bytes(self) -> int:
        """Approximate resident bytes of the memoized pieces.

        Counts numpy payloads across every piece store, deduplicating
        shared arrays (the triangles feed the communities *and* the
        tables — they count once). The graph itself is not counted: the
        cache holds it weakly, so its lifetime — and its bytes — belong
        to the caller. Spilled shard blocks count as zero (disk, not
        RAM); see :func:`_approx_nbytes`.
        """
        with self._lock:
            seen: set = set()
            return sum(
                _approx_nbytes(getattr(self, store), seen)
                for store in _PIECE_STORES.values()
            )

    def kernel(
        self, k: int, tracker: Tracker = NULL_TRACKER
    ) -> Tuple["Kernel", "PreparedGraph"]:
        """The k-clique kernel of the graph plus its own prepared context.

        The (k−1)-core + triangle-support fixed point
        (:func:`repro.graphs.kernels.triangle_kernel`) preserves every
        k-clique; the returned nested context lets any engine run on the
        shrunken instance with the usual piece memoization. Keyed per
        ``k`` — kernels for different clique sizes differ.
        """
        if k < 1:
            raise ValueError(f"clique size must be >= 1, got {k}")
        with self._lock:
            got = self._kernels.get(k)
            if got is not None:
                self._note(tracker, hit=True)
                return got
            from ..graphs.kernels import triangle_kernel

            self._note(tracker, hit=False)
            with tracker.phase("kernelize"):
                kern = triangle_kernel(self.graph, k, tracker=tracker)
            got = (kern, PreparedGraph(kern.graph, eps=self.eps))
            self._kernels[k] = got
        return got

    # -- edge-order pipeline (Algorithm 3/4) -------------------------------

    def edge_order(
        self, kind: str = "exact", tracker: Tracker = NULL_TRACKER
    ) -> EdgeOrderResult:
        """The community-degeneracy edge order (exact greedy or (3+ε))."""
        if kind not in EDGE_ORDER_KINDS:
            raise ValueError(
                f"unknown edge-order kind {kind!r}; choose from {EDGE_ORDER_KINDS}"
            )
        with self._lock:
            got = self._edge_orders.get(kind)
            if got is not None:
                self._note(tracker, hit=True)
                return got
            self._note(tracker, hit=False)
            with tracker.phase("edge-order"):
                if kind == "exact":
                    got = community_degeneracy_order(
                        self.graph, tracker=tracker
                    )
                else:
                    got = approx_community_order(
                        self.graph, eps=self.eps, tracker=tracker
                    )
            self._edge_orders[kind] = got
        return got

    # -- derived scalars (engine-dispatch inputs) --------------------------

    def degeneracy(self, tracker: Tracker = NULL_TRACKER) -> int:
        """The degeneracy s (via the exact order)."""
        return int(self.order_result("degeneracy", tracker).degeneracy)

    def gamma(
        self, variant: str = "degeneracy", tracker: Tracker = NULL_TRACKER
    ) -> int:
        """γ — the largest community size under the chosen order."""
        return self.communities(variant, tracker).max_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        g = self.graph
        shape = "dead" if g is None else f"n={g.num_vertices}, m={g.num_edges}"
        return (
            f"PreparedGraph({shape}, eps={self.eps}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class PreparedCache:
    """Bounded LRU of :class:`PreparedGraph` contexts, keyed per graph.

    Graphs are immutable and hash by identity, so ``(id(graph), eps,
    version)`` keys the cache. Entries hold their graph only through a
    **weak reference**: dropping the last outside reference to a graph
    collects it and auto-invalidates its entries (the seed code pinned
    graphs alive forever, and the ``id()``-keyed lookup *depended* on
    that immortality — a reused id could otherwise serve another graph's
    preprocessing). A weakref callback removes dead entries eagerly, and
    ``get`` double-checks identity (``entry.graph is graph``) so even a
    not-yet-fired callback can never produce a wrong hit. Eviction is
    LRU so a long-running query server touching many graphs stays
    bounded; :meth:`invalidate` drops a graph's entries explicitly (the
    dynamic mutation layer calls it on superseded snapshots).

    All public methods and the ``_on_collect`` eviction callback hold
    one ``RLock``: the cache is the shared multi-tenant warm store of
    the query service, where ``get`` iterates the LRU dict on one worker
    thread while a GC-triggered callback mutates it on another, and two
    racing misses used to double-build a context and double-count the
    ``prepared.graph.*`` metrics. The lock is reentrant because ``get``
    calls ``put`` and a weakref callback may fire on the holding thread.
    """

    def __init__(
        self, maxsize: int = 32, max_bytes: Optional[int] = None
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple[int, float, int], PreparedGraph]" = (
            OrderedDict()
        )
        self._refs: Dict[Tuple[int, float, int], "weakref.ref[CSRGraph]"] = {}

    # -- lifetime plumbing -------------------------------------------------

    def _watch(self, graph: CSRGraph, key: Tuple[int, float, int]) -> None:
        """Register the auto-invalidation callback for ``key``."""
        selfref = weakref.ref(self)

        def _on_collect(ref: "weakref.ref[CSRGraph]") -> None:
            cache = selfref()
            if cache is not None:
                cache._drop_dead(key, ref)

        self._refs[key] = weakref.ref(graph, _on_collect)

    def _drop_dead(
        self, key: Tuple[int, float, int], ref: "weakref.ref[CSRGraph]"
    ) -> None:
        # Only drop if the slot still belongs to the collected graph: the
        # id may have been reused and the key re-bound to a live entry.
        # Runs on whatever thread triggered the collection, hence the lock.
        with self._lock:
            if self._refs.get(key) is ref:
                self._refs.pop(key, None)
                if self._entries.pop(key, None) is not None:
                    self.invalidations += 1

    def _remove(self, key: Tuple[int, float, int]) -> None:
        self._entries.pop(key, None)
        self._refs.pop(key, None)

    def get(
        self,
        graph: CSRGraph,
        eps: float = 0.5,
        tracker: Tracker = NULL_TRACKER,
        version: Optional[int] = None,
    ) -> PreparedGraph:
        """The shared context for ``(graph, eps)``, building it on a miss.

        ``version=None`` (the façade default) matches *any* live version
        of the graph, preferring the newest — so a patched context the
        dynamic layer adopted under a bumped version token keeps serving
        warm hits. Pass an explicit version to pin one snapshot.
        """
        metrics = tracker.metrics
        with self._lock:
            gid = id(graph)
            feps = float(eps)
            if version is None:
                matches = sorted(
                    k for k in self._entries if k[0] == gid and k[1] == feps
                )
                key = matches[-1] if matches else (gid, feps, 0)
            else:
                key = (gid, feps, int(version))
            entry = self._entries.get(key)
            if entry is not None and entry.graph is graph:
                self.hits += 1
                self._entries.move_to_end(key)
                if metrics is not None:
                    metrics.counter("prepared.graph.hit").inc()
                    metrics.gauge("prepared.graph.bytes").set(
                        self.total_bytes()
                    )
                return entry
            if entry is not None:
                # A stale slot (dead graph whose callback has not fired, or
                # a reused id): never serve another graph's preprocessing.
                self._remove(key)
                self.invalidations += 1
            self.misses += 1
            if metrics is not None:
                metrics.counter("prepared.graph.miss").inc()
                metrics.gauge("prepared.graph.bytes").set(self.total_bytes())
            build_version = 0 if version is None else int(version)
            entry = PreparedGraph(
                graph, eps=eps, pin=False, version=build_version
            )
            self.put(graph, entry, eps=eps, version=build_version)
            return entry

    def lookup(
        self,
        graph: CSRGraph,
        eps: float = 0.5,
        version: Optional[int] = None,
    ) -> Optional[PreparedGraph]:
        """The cached context for ``(graph, eps)`` or ``None`` — never builds.

        Does not touch the hit/miss counters or the LRU order: the query
        service uses it to classify a query as warm or cold *before*
        resolving the context (``service.warm_hit``), and a peek that
        aged the LRU or skewed the counters would distort both.
        """
        with self._lock:
            gid = id(graph)
            feps = float(eps)
            if version is None:
                matches = sorted(
                    k for k in self._entries if k[0] == gid and k[1] == feps
                )
                if not matches:
                    return None
                key = matches[-1]
            else:
                key = (gid, feps, int(version))
            entry = self._entries.get(key)
            if entry is not None and entry.graph is graph:
                return entry
            return None

    def put(
        self,
        graph: CSRGraph,
        entry: PreparedGraph,
        eps: float = 0.5,
        version: int = 0,
    ) -> PreparedGraph:
        """Adopt an externally built context (e.g. a patched one) for ``graph``.

        The dynamic mutation layer uses this to swap a mutated snapshot's
        patched context into the façade cache, so post-mutation API
        queries stay warm. The entry is unpinned: adopting it never
        extends the graph's lifetime.
        """
        if entry.graph is not graph:
            raise ValueError("prepared context was built for a different graph")
        entry.unpin()
        with self._lock:
            key = (id(graph), float(eps), int(version))
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._watch(graph, key)
            if len(self._entries) > self.maxsize:
                # At most one over: put() only ever inserts a single entry.
                old_key, _ = self._entries.popitem(last=False)
                self._refs.pop(old_key, None)
            if self.max_bytes is not None:
                # Byte-aware eviction: the entry-count LRU alone let 32
                # small keys pin 32 huge preprocessing contexts. Evict
                # cold entries until the resident estimate fits; the
                # just-inserted entry always survives (a single context
                # over budget is the caller's problem, not a deadlock).
                while (
                    len(self._entries) > 1
                    and self.total_bytes() > self.max_bytes
                ):
                    old_key, _ = self._entries.popitem(last=False)
                    self._refs.pop(old_key, None)
                    self.invalidations += 1
        return entry

    def total_bytes(self) -> int:
        """Approximate resident bytes across every cached context."""
        with self._lock:
            seen: set = set()
            total = 0
            for entry in self._entries.values():
                for store in _PIECE_STORES.values():
                    total += _approx_nbytes(getattr(entry, store), seen)
            return total

    def invalidate(self, graph: CSRGraph) -> int:
        """Drop every entry of ``graph`` (all eps/version keys); return count.

        Explicit invalidation for callers that know a graph is obsolete
        (a mutated :class:`~repro.dynamic.DynamicGraph` snapshot) and do
        not want to wait for garbage collection. Hit/miss counters are
        preserved; ``invalidations`` counts the dropped entries.
        """
        with self._lock:
            gid = id(graph)
            stale = [
                key
                for key, ref in self._refs.items()
                if key[0] == gid and ref() is graph
            ]
            for key in stale:
                self._remove(key)
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._refs.clear()
            self.hits = 0
            self.misses = 0
            self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> Dict[str, int]:
        """Cache statistics (mirrors ``functools.lru_cache.cache_info``)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "approx_bytes": self.total_bytes(),
            }


# The process-wide default cache behind the public façade. Only the
# façade (repro.core.api) consults it; engine-level entry points take an
# explicit context so cold runs stay cold.
_DEFAULT_CACHE = PreparedCache()


def prepare(
    graph: CSRGraph,
    eps: float = 0.5,
    tracker: Tracker = NULL_TRACKER,
    cache: Optional[PreparedCache] = None,
) -> PreparedGraph:
    """The shared :class:`PreparedGraph` for ``graph`` (build-and-cache)."""
    return (_DEFAULT_CACHE if cache is None else cache).get(
        graph, eps=eps, tracker=tracker
    )


def adopt_prepared(
    graph: CSRGraph,
    entry: PreparedGraph,
    eps: float = 0.5,
    cache: Optional[PreparedCache] = None,
    version: int = 0,
) -> PreparedGraph:
    """Install an externally built context into the (default) cache."""
    return (_DEFAULT_CACHE if cache is None else cache).put(
        graph, entry, eps=eps, version=version
    )


def invalidate_prepared(
    graph: CSRGraph, cache: Optional[PreparedCache] = None
) -> int:
    """Drop the cached context(s) of ``graph``; returns how many existed."""
    return (_DEFAULT_CACHE if cache is None else cache).invalidate(graph)


def clear_prepared_cache() -> None:
    """Drop every cached context (tests; or to release pinned graphs)."""
    _DEFAULT_CACHE.clear()


def prepared_cache_info() -> Dict[str, int]:
    """Hit/miss/size statistics of the default cache."""
    return _DEFAULT_CACHE.info()
