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

It is also the only place in :mod:`repro.core` that builds a whole
graph's preprocessing: every engine entry point resolves its context
through :func:`prepared_for`, and a call without one runs on a fresh
private context. Every piece goes through one memo method
(``PreparedGraph._memo``) that owns the lock, the hit/miss accounting
and the phase.

Cost semantics: a *miss* builds the piece with the caller's tracker
under its phase (``orientation``, ``communities``, ``edge-order``,
``bitrows``, ``kernelize``), so the first query on a context is charged
exactly like a cold call; a *hit* charges nothing. Hits
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
on purpose. The cache tells snapshots apart by graph identity: every
mutation makes a new graph object.

Thread safety: both classes are multi-tenant shared state once the
query service (:mod:`repro.service`) runs engines on a worker pool, so
both are locked. :class:`PreparedCache` guards its LRU dict, the
weakref ``_on_collect`` eviction callback (which can fire on *any*
thread mid-``get`` otherwise) and its counters with one ``RLock``;
:class:`PreparedGraph` guards its piece dict with a per-instance
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
from typing import Any, Callable, ContextManager, Dict, Optional, Tuple

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
    "prepared_for",
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

# The piece vocabulary the patch-in-place engine (repro.dynamic.patch)
# works in. "kernel" entries are keyed per clique size k,
# "sharded_tables" per (variant, budget, window), the rest per order
# variant / edge-order kind.
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


def _check_kind(kind: str) -> None:
    if kind not in PIECE_KINDS:
        raise ValueError(f"unknown piece kind {kind!r}; choose from {PIECE_KINDS}")


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
        "_graph", "_graph_ref", "eps", "hits", "misses", "_lock", "_pieces"
    )

    def __init__(
        self, graph: CSRGraph, eps: float = 0.5, pin: bool = True
    ) -> None:
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self._graph: Optional[CSRGraph] = graph if pin else None
        self._graph_ref = weakref.ref(graph)
        self.eps = float(eps)
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()
        # (kind, key) -> piece; kind is one of PIECE_KINDS.
        self._pieces: Dict[Tuple[str, Any], Any] = {}

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
        _check_kind(kind)
        with self._lock:
            return self._pieces.setdefault((kind, key), value)

    def peek(self, kind: str, key: Any) -> Any:
        """A memoized piece if already built, else ``None`` (never builds).

        Lets the patch engine decide what to carry across a mutation
        without forcing cold builds of pieces no query ever asked for.
        """
        _check_kind(kind)
        with self._lock:
            return self._pieces.get((kind, key))

    def piece_keys(self, kind: str) -> Tuple[Any, ...]:
        """Keys of the memoized pieces of one kind, in ``repr`` order.

        ``repr`` orders any mix of keys: a sharded plan's budget may be
        ``None`` (unlimited) beside an int, which plain sorting rejects.
        """
        _check_kind(kind)
        with self._lock:
            return tuple(
                sorted(
                    (key for held, key in self._pieces if held == kind),
                    key=repr,
                )
            )

    # -- memoization -------------------------------------------------------

    def _memo(
        self,
        kind: str,
        key: Any,
        tracker: Tracker,
        phase: ContextManager[None],
        build: Callable[..., Any],
        needs: Callable[[], Tuple[Any, ...]] = tuple,
    ) -> Any:
        """The piece ``(kind, key)``, built under ``phase`` on a miss.

        A hit counts one ``prepared.piece.hit`` and charges nothing
        (``phase``, an unentered ``tracker.phase(...)``, is dropped). On
        a miss ``needs()`` resolves the piece's own dependencies first
        (each counting its own hit or miss, each charged under its own
        phase), then ``build(*needs())`` runs inside ``phase`` and the
        result is memoized. Everything happens under the context lock,
        so racing misses converge on one build.
        """
        with self._lock:
            got = self._pieces.get((kind, key))
            if got is not None:
                self._note(tracker, hit=True)
                return got
            deps = needs()
            self._note(tracker, hit=False)
            with phase:
                got = build(*deps)
            self._pieces[(kind, key)] = got
            return got

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

        def build() -> Any:
            if variant == "degeneracy":
                return degeneracy_order(self.graph, tracker=tracker)
            return approx_degeneracy_order(
                self.graph, eps=self.eps, tracker=tracker
            )

        return self._memo(
            "order", variant, tracker, tracker.phase("orientation"), build
        )

    def dag(
        self, variant: str = "degeneracy", tracker: Tracker = NULL_TRACKER
    ) -> OrientedDAG:
        """The graph oriented by the chosen order (vertices relabeled)."""
        self._check_variant(variant)
        return self._memo(
            "dag",
            variant,
            tracker,
            tracker.phase("orientation"),
            lambda order: orient_by_order(self.graph, order, tracker=tracker),
            lambda: (self.order_result(variant, tracker).order,),
        )

    def triangles(
        self, variant: str = "degeneracy", tracker: Tracker = NULL_TRACKER
    ) -> np.ndarray:
        """The (u, w, v) triangle list of the oriented DAG."""
        self._check_variant(variant)
        return self._memo(
            "triangles",
            variant,
            tracker,
            tracker.phase("communities"),
            lambda dag: list_triangles(dag, tracker=tracker),
            lambda: (self.dag(variant, tracker),),
        )

    def _dag_and_triangles(
        self, variant: str, tracker: Tracker
    ) -> Tuple[OrientedDAG, np.ndarray]:
        return self.dag(variant, tracker), self.triangles(variant, tracker)

    def communities(
        self, variant: str = "degeneracy", tracker: Tracker = NULL_TRACKER
    ) -> EdgeCommunities:
        """The sorted per-edge candidate sets (Algorithm 1, line 1)."""
        self._check_variant(variant)
        return self._memo(
            "communities",
            variant,
            tracker,
            tracker.phase("communities"),
            lambda dag, tri: build_communities(
                dag, tracker=tracker, triangles=tri
            ),
            lambda: self._dag_and_triangles(variant, tracker),
        )

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

        def build(dag: OrientedDAG, tri: np.ndarray) -> Any:
            from .frontier import build_frontier_tables

            got = build_frontier_tables(dag, tri)
            tracker.charge(
                Cost(
                    float(tri.shape[0] + dag.num_edges),
                    log2p1(max(tri.shape[0], dag.num_edges)) + 1,
                )
            )
            return got

        return self._memo(
            "frontier_tables",
            variant,
            tracker,
            tracker.phase("bitrows"),
            build,
            lambda: self._dag_and_triangles(variant, tracker),
        )

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
        the windowed blocks resident. A closed plan is rebuilt.
        """
        self._check_variant(variant)
        key = (
            variant,
            None if memory_budget_bytes is None else int(memory_budget_bytes),
            int(window),
        )

        def build(dag: OrientedDAG, tri: np.ndarray) -> Any:
            from .sharded import open_sharded_tables

            got = open_sharded_tables(dag, tri, memory_budget_bytes, window)
            tracker.charge(
                Cost(
                    float(dag.num_vertices + got.plan.num_shards),
                    log2p1(dag.num_vertices) + 1,
                )
            )
            return got

        with self._lock:
            got = self._pieces.get(("sharded_tables", key))
            if got is not None and got.closed:
                del self._pieces[("sharded_tables", key)]
            return self._memo(
                "sharded_tables",
                key,
                tracker,
                tracker.phase("bitrows"),
                build,
                lambda: self._dag_and_triangles(variant, tracker),
            )

    def approx_bytes(self) -> int:
        """Approximate resident bytes of the memoized pieces.

        Counts numpy payloads across every piece, deduplicating shared
        arrays (the triangles feed the communities *and* the tables —
        they count once). The graph itself is not counted: the cache
        holds it weakly, so its lifetime — and its bytes — belong to the
        caller. Spilled shard blocks count as zero (disk, not RAM); see
        :func:`_approx_nbytes`.
        """
        with self._lock:
            return _approx_nbytes(self._pieces, set())

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

        def build() -> Tuple[Any, PreparedGraph]:
            from ..graphs.kernels import triangle_kernel

            kern = triangle_kernel(self.graph, k, tracker=tracker)
            return kern, PreparedGraph(kern.graph, eps=self.eps)

        return self._memo(
            "kernel", k, tracker, tracker.phase("kernelize"), build
        )

    # -- edge-order pipeline (Algorithm 3/4) -------------------------------

    def edge_order(
        self, kind: str = "exact", tracker: Tracker = NULL_TRACKER
    ) -> EdgeOrderResult:
        """The community-degeneracy edge order (exact greedy or (3+ε))."""
        if kind not in EDGE_ORDER_KINDS:
            raise ValueError(
                f"unknown edge-order kind {kind!r}; choose from {EDGE_ORDER_KINDS}"
            )

        def build() -> EdgeOrderResult:
            if kind == "exact":
                return community_degeneracy_order(self.graph, tracker=tracker)
            return approx_community_order(
                self.graph, eps=self.eps, tracker=tracker
            )

        return self._memo(
            "edge_order", kind, tracker, tracker.phase("edge-order"), build
        )

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

    Graphs are immutable and hash by identity, so ``(id(graph), eps)``
    keys the cache; every mutation makes a new graph object, so two
    snapshots of one mutable graph are told apart by identity alone.
    Entries hold their graph only through a **weak reference**: dropping
    the last outside reference to a graph collects it and
    auto-invalidates its entries (the seed code pinned graphs alive
    forever, and the ``id()``-keyed lookup *depended* on that
    immortality — a reused id could otherwise serve another graph's
    preprocessing). A weakref callback removes dead entries eagerly, and
    ``get`` double-checks identity (``entry.graph is graph``) so even a
    not-yet-fired callback can never produce a wrong hit. Eviction is
    LRU so a long-running query server touching many graphs stays
    bounded; :meth:`invalidate` drops a graph's entries explicitly (the
    dynamic mutation layer calls it on superseded snapshots).

    All public methods and the ``_on_collect`` eviction callback hold
    one ``RLock``: the cache is the shared multi-tenant warm store of
    the query service, where ``get`` reads the LRU dict on one worker
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
        self._entries: "OrderedDict[Tuple[int, float], PreparedGraph]" = (
            OrderedDict()
        )
        self._refs: Dict[Tuple[int, float], "weakref.ref[CSRGraph]"] = {}

    # -- lifetime plumbing -------------------------------------------------

    def _watch(self, graph: CSRGraph, key: Tuple[int, float]) -> None:
        """Register the auto-invalidation callback for ``key``."""
        selfref = weakref.ref(self)

        def _on_collect(ref: "weakref.ref[CSRGraph]") -> None:
            cache = selfref()
            if cache is not None:
                cache._drop_dead(key, ref)

        self._refs[key] = weakref.ref(graph, _on_collect)

    def _drop_dead(
        self, key: Tuple[int, float], ref: "weakref.ref[CSRGraph]"
    ) -> None:
        # Only drop if the slot still belongs to the collected graph: the
        # id may have been reused and the key re-bound to a live entry.
        # Runs on whatever thread triggered the collection, hence the lock.
        with self._lock:
            if self._refs.get(key) is ref:
                self._refs.pop(key, None)
                if self._entries.pop(key, None) is not None:
                    self.invalidations += 1

    def _remove(self, key: Tuple[int, float]) -> None:
        self._entries.pop(key, None)
        self._refs.pop(key, None)

    def get(
        self,
        graph: CSRGraph,
        eps: float = 0.5,
        tracker: Tracker = NULL_TRACKER,
    ) -> PreparedGraph:
        """The shared context for ``(graph, eps)``, building it on a miss."""
        metrics = tracker.metrics
        key = (id(graph), float(eps))
        with self._lock:
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
            return self.put(graph, PreparedGraph(graph, eps=eps, pin=False), eps)

    def lookup(
        self, graph: CSRGraph, eps: float = 0.5
    ) -> Optional[PreparedGraph]:
        """The cached context for ``(graph, eps)`` or ``None`` — never builds.

        Does not touch the hit/miss counters or the LRU order: the query
        service uses it to price a query as warm or cold before
        admission, and a peek that aged the LRU or skewed the counters
        would distort both.
        """
        with self._lock:
            entry = self._entries.get((id(graph), float(eps)))
            if entry is not None and entry.graph is graph:
                return entry
            return None

    def put(
        self, graph: CSRGraph, entry: PreparedGraph, eps: float = 0.5
    ) -> PreparedGraph:
        """Adopt an externally built context (e.g. a patched one) for ``graph``.

        The dynamic mutation layer uses this to swap a mutated snapshot's
        patched context into the façade cache, so post-mutation API
        queries stay warm. The entry is unpinned: adopting it never
        extends the graph's lifetime.
        """
        prepared_for(graph, entry)  # rejects another graph's context
        entry.unpin()
        with self._lock:
            key = (id(graph), float(eps))
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
            return sum(
                _approx_nbytes(entry._pieces, seen)
                for entry in self._entries.values()
            )

    def invalidate(self, graph: CSRGraph) -> int:
        """Drop every entry of ``graph`` (all eps keys); return count.

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


def prepared_for(
    graph: CSRGraph,
    prepared: Optional[PreparedGraph] = None,
    eps: float = 0.5,
) -> PreparedGraph:
    """The context a core entry point runs on: ``prepared``, or a private one.

    A cold call (``prepared=None``) builds on a fresh pinned context, so
    it runs — and is charged for — exactly the pipeline the first query
    on a shared context runs. A passed context must be ``graph``'s own.
    """
    if prepared is None:
        return PreparedGraph(graph, eps=eps)
    if prepared.graph is not graph:
        raise ValueError("prepared context was built for a different graph")
    return prepared


def adopt_prepared(
    graph: CSRGraph,
    entry: PreparedGraph,
    eps: float = 0.5,
    cache: Optional[PreparedCache] = None,
) -> PreparedGraph:
    """Install an externally built context into the (default) cache."""
    return (_DEFAULT_CACHE if cache is None else cache).put(
        graph, entry, eps=eps
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
