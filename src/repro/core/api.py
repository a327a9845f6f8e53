"""Public façade of the library.

>>> from repro import count_cliques
>>> from repro.graphs import clique_chain
>>> g = clique_chain(3, 6)
>>> count_cliques(g, 4).count
45

All entry points accept any of the six Table-1 variants (see
:data:`repro.core.variants.VARIANTS`) and return a
:class:`~repro.core.clique_listing.CliqueSearchResult` carrying the count,
the listed cliques (when requested), the tracked PRAM work/depth, the
per-phase breakdown, and the per-edge task log used for simulated
parallel scheduling.

Three serving concerns live here and nowhere else:

* **Shared preprocessing.** Every call resolves a
  :class:`~repro.core.prepared.PreparedGraph` context — pass one
  explicitly, or the façade consults the module-level LRU
  (:func:`repro.core.prepared.prepare`), so repeated queries against the
  same graph object build the order/orientation/communities exactly once.
  The first query on a graph is charged like a cold run; later ones
  charge only the search. Engine-level entry points (``run_variant``,
  ``frontier_count_cliques``, …) stay cold unless handed a context.
* **Engine dispatch.** ``count_cliques`` and ``list_cliques`` route to
  ``reference`` (the instrumented Table-1 variants) or to the one
  frontier executor of :mod:`repro.core.frontier` over a shard plan:
  ``frontier`` (one resident shard, the in-RAM tables) or ``sharded``
  (RAM source-range shards under a memory budget). ``workers``
  only sets how many processes the plan's units run on. The default
  ``auto`` resolves through :func:`resolve_engine` — the *single*
  source of truth for dispatch, which also reports why it picked what
  it picked.
* **Kernelization.** ``kernelize=True`` pre-shrinks the instance with
  the triangle-support kernel (:mod:`repro.graphs.kernels`) before
  dispatching: every k-clique survives the reduction, witnesses are
  lifted back to original vertex ids, and the achieved reduction is
  published as the ``kernel.shrink_ratio`` metric.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..graphs.csr import CSRGraph
from ..pram.schedule import TaskLog
from ..pram.tracker import Tracker
from .clique_listing import CliqueSearchResult
from .existence import find_clique
from .frontier import execute, resident_plan
from .prepared import PreparedGraph, prepare, prepared_for
from .sharded import budgeted_plan, predict_table_bytes
from .recursive import SearchStats
from .variants import VARIANTS, run_variant

__all__ = [
    "count_cliques",
    "list_cliques",
    "has_clique",
    "resolve_engine",
    "EngineDecision",
    "ENGINES",
    "VARIANTS",
]

ENGINES = ("auto", "reference", "frontier", "sharded")


class EngineDecision(str):
    """The engine a query resolved to, plus *why*.

    A plain ``str`` subclass, so every existing comparison
    (``resolve_engine(...) == "frontier"``) keeps working unchanged; the
    extra ``reason`` attribute carries the dispatcher's justification,
    which ``repro profile`` and the bench records surface.
    """

    __slots__ = ("reason",)

    reason: str

    def __new__(cls, engine: str, reason: str) -> "EngineDecision":
        self = str.__new__(cls, engine)
        self.reason = reason
        return self


def resolve_engine(
    prepared: PreparedGraph,
    k: int,
    variant: str,
    prune: bool,
    workers: Optional[int],
    tracker: Tracker,
    memory_budget_bytes: Optional[int] = None,
) -> EngineDecision:
    """The concrete engine ``auto`` dispatches to for this query.

    This is the single source of truth for dispatch — the CLI, the bench
    harness and the profile report all call it rather than re-deriving
    thresholds — and the only place the predicted table bytes meet the
    memory budget (calibration notes in ``docs/ALGORITHMS.md``):

    * ``reference`` for k < 4 (closed-form direct answers), for
      non-default variants, and for the ``prune=False`` ablation — those
      paths exist *for* the reference engine's instrumentation;
    * ``sharded`` when a ``memory_budget_bytes`` is armed and the full
      frontier tables would not fit it: the frontier executor streams
      source-range table shards through a bounded window;
    * ``frontier`` for everything else: the executor over one resident
      shard, which beat the reference recursion 15–40× at every
      measured point of the Table-2 regime (k = 4…8).

    ``workers`` never changes the engine; it only sets how many
    processes the plan's units run on, and the reason says so.
    ``prepared``/``tracker`` are part of the stable signature so future
    recalibrations can consult graph shape without changing callers.
    """
    if k < 4:
        return EngineDecision(
            "reference",
            f"k={k} < 4 is answered directly (vertices/edges/triangles); "
            "no search engine is involved",
        )
    if variant != "best-work":
        return EngineDecision(
            "reference",
            f"variant {variant!r}: only the reference engine instruments "
            "non-default Table-1 variants",
        )
    if not prune:
        return EngineDecision(
            "reference",
            "prune=False ablation: only the reference engine runs without "
            "the relevant-pair criterion's instrumentation",
        )
    fanout = (
        f"; plan units fan out over workers={workers} processes"
        if workers is not None and workers > 1
        else ""
    )
    if memory_budget_bytes is not None:
        dag = prepared.dag("degeneracy", tracker)
        predicted = predict_table_bytes(dag.num_edges, dag.max_out_degree)
        if predicted > memory_budget_bytes:
            return EngineDecision(
                "sharded",
                f"predicted frontier tables ({predicted} B) exceed the "
                f"memory budget ({memory_budget_bytes} B): stream "
                "source-range table shards through a bounded window"
                + fanout,
            )
    return EngineDecision(
        "frontier",
        "best-work counting at k >= 4: the level-synchronous frontier "
        "engine wins every measured crossover (15-40x vs reference)"
        + fanout,
    )


def _plan(engine: str, memory_budget_bytes: Optional[int]):
    """The shard-plan opener an engine label runs the executor on."""
    if engine == "sharded":
        return budgeted_plan(memory_budget_bytes)
    return resident_plan


def _synthesize_result(
    prepared: PreparedGraph,
    k: int,
    count: int,
    tracker: Tracker,
    engine: str,
    reason: str = "",
) -> CliqueSearchResult:
    """Wrap a bare count from a non-reference engine in the result type.

    Only the preprocessing is tracked for these engines (their search is
    untracked by design), so ``cost``/``phases`` reflect the tracker as
    charged and the search counters stay zero.
    """
    if k >= 3:
        gamma = prepared.gamma("degeneracy", tracker)
        max_out = prepared.dag("degeneracy", tracker).max_out_degree
    else:
        gamma = 0
        max_out = 0
    return CliqueSearchResult(
        k=k,
        count=count,
        cost=tracker.total,
        stats=SearchStats(),
        task_log=TaskLog(),
        phases=tracker.phases,
        gamma=gamma,
        max_out_degree=max_out,
        cliques=None,
        engine=engine,
        engine_reason=reason,
    )


def _context(
    graph: CSRGraph,
    prepared: Optional[PreparedGraph],
    eps: float,
    tracker: Tracker,
) -> PreparedGraph:
    """``prepared`` (checked against ``graph``), or the cache's shared one."""
    if prepared is None:
        return prepare(graph, eps=eps, tracker=tracker)
    return prepared_for(graph, prepared)


def _kernelized(
    graph: CSRGraph,
    ctx: PreparedGraph,
    k: int,
    tracker: Tracker,
) -> Tuple[CSRGraph, PreparedGraph, Optional["object"]]:
    """Resolve the (graph, context) pair the engines should run on.

    For k >= 4 this swaps in the triangle-support kernel (every k-clique
    survives the reduction) and publishes the achieved shrink as
    ``kernel.shrink_ratio``; for smaller k the kernel cannot preserve
    counts of sub-k structures, so the original instance is returned.
    """
    if k < 4:
        return graph, ctx, None
    kern, kctx = ctx.kernel(k, tracker)
    metrics = tracker.metrics
    if metrics is not None:
        before = max(1, graph.num_vertices)
        metrics.gauge("kernel.shrink_ratio").set(
            kern.graph.num_vertices / before
        )
        metrics.gauge("kernel.kept_vertices").set(kern.graph.num_vertices)
        metrics.gauge("kernel.kept_edges").set(kern.graph.num_edges)
    return kern.graph, kctx, kern


def count_cliques(
    graph: CSRGraph,
    k: int,
    variant: str = "best-work",
    eps: float = 0.5,
    tracker: Optional[Tracker] = None,
    prune: bool = True,
    engine: str = "auto",
    workers: Optional[int] = None,
    prepared: Optional[PreparedGraph] = None,
    kernelize: bool = False,
    memory_budget_bytes: Optional[int] = None,
) -> CliqueSearchResult:
    """Count all k-cliques of ``graph``.

    Parameters
    ----------
    graph:
        The undirected input graph.
    k:
        Clique size (k ≥ 1; the interesting regime of the paper is k ≥ 4).
    variant:
        One of the six Table-1 configurations (default: the best-work
        exact-degeneracy-order variant, the one used in the paper's
        experimental evaluation). Only the ``reference`` engine honors
        non-default variants — counts are variant-independent, so the
        other engines answer the same query.
    eps:
        Approximation parameter of the approximate orders.
    tracker:
        Pass an enabled :class:`Tracker` to retrieve work/depth; a fresh
        one is created by default.
    prune:
        Disable the relevant-pair criterion with ``False`` (ablation).
    engine:
        ``auto`` (default), ``reference``, ``frontier`` or ``sharded``.
        The frontier-executor engines return only the count plus
        preprocessing metadata (their search is untracked; ``stats`` are
        zero). The resolved engine and the dispatcher's justification are
        recorded on the result (``engine``/``engine_reason``).
    workers:
        How many processes the frontier executor runs its plan's units
        on (default: one, in this process). It never changes the engine;
        the reference engine always runs in this process.
    prepared:
        A shared preprocessing context. Default: the façade's LRU cache,
        so repeated queries on the same graph amortize preprocessing.
    kernelize:
        Pre-shrink with the triangle-support kernel before dispatch
        (k ≥ 4 only — the reduction preserves exactly the k-cliques).
        The kernelized context is memoized on the prepared graph, and the
        reduction is published as ``kernel.shrink_ratio``.
    memory_budget_bytes:
        Resident-table budget (``None`` = unlimited, the default). When
        the predicted frontier tables exceed it, ``auto`` dispatches to
        the out-of-core ``sharded`` engine; an explicit
        ``engine="sharded"`` request also honors the budget. The CLI's
        ``--memory-budget 512M`` flag feeds this.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    tracker = tracker if tracker is not None else Tracker()
    ctx = _context(graph, prepared, eps, tracker)

    if kernelize:
        graph, ctx, _ = _kernelized(graph, ctx, k, tracker)

    if engine == "auto":
        decision = resolve_engine(
            ctx, k, variant, prune, workers, tracker,
            memory_budget_bytes=memory_budget_bytes,
        )
        engine, reason = str(decision), decision.reason
    else:
        reason = f"engine {engine!r} explicitly requested"

    if engine != "reference":
        count, _ = execute(
            graph, k, ctx, tracker, _plan(engine, memory_budget_bytes),
            prune=prune, workers=workers,
        )
        return _synthesize_result(ctx, k, count, tracker, engine, reason)
    result = run_variant(
        graph, k, variant, tracker, eps=eps, collect=False, prune=prune,
        prepared=ctx,
    )
    result.engine = "reference"
    result.engine_reason = reason
    return result


def list_cliques(
    graph: CSRGraph,
    k: int,
    variant: str = "best-work",
    eps: float = 0.5,
    tracker: Optional[Tracker] = None,
    prepared: Optional[PreparedGraph] = None,
    engine: str = "auto",
    kernelize: bool = False,
    memory_budget_bytes: Optional[int] = None,
) -> List[Tuple[int, ...]]:
    """List all k-cliques as sorted vertex tuples (each exactly once).

    The returned list is in lexicographic order regardless of variant,
    engine or schedule, so two runs (or two engines) produce
    byte-identical output — the property lint rule R3 guards inside the
    engines. The engines canonicalize exactly once (inside
    :func:`run_variant` / :func:`frontier_list_cliques`); re-sorting the
    already-sorted listing here would pay a second O(C·k log C) pass on
    the hot path, so this function returns the listing as-is and a test
    asserts the canonical order instead.

    ``engine`` is one of :data:`ENGINES`, resolved like
    :func:`count_cliques`: ``auto`` (default) asks
    :func:`resolve_engine`, so k ≥ 4 lists on the frontier executor and
    a ``memory_budget_bytes`` its tables would not fit streams
    ``sharded`` shards; ``reference`` is the instrumented path. With
    ``kernelize=True`` the listing runs on the triangle-support kernel
    and every witness is lifted back to original vertex ids
    (re-canonicalized after lifting).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    tracker = tracker if tracker is not None else Tracker()
    ctx = _context(graph, prepared, eps, tracker)

    kern = None
    if kernelize:
        graph, ctx, kern = _kernelized(graph, ctx, k, tracker)

    if engine == "auto":
        engine = str(
            resolve_engine(
                ctx, k, variant, True, None, tracker,
                memory_budget_bytes=memory_budget_bytes,
            )
        )
    if engine != "reference":
        _, listed = execute(
            graph, k, ctx, tracker, _plan(engine, memory_budget_bytes),
            listing=True,
        )
    else:
        result = run_variant(
            graph, k, variant, tracker, eps=eps, collect=True, prepared=ctx
        )
        assert result.cliques is not None
        listed = result.cliques
    if kern is not None:
        # Kernel-space ids differ from the originals; lift and restore
        # the canonical (lexicographic) order the contract promises.
        listed = sorted(kern.lift(c) for c in listed)
    return listed


def has_clique(
    graph: CSRGraph,
    k: int,
    variant: str = "best-work",
    eps: float = 0.5,
    tracker: Optional[Tracker] = None,
    prepared: Optional[PreparedGraph] = None,
) -> bool:
    """Whether the graph contains at least one k-clique.

    Delegates to the early-exit existence search
    (:func:`repro.core.existence.find_clique`), which abandons the search
    at the first witness — *not* to a full count. On a graph that does
    contain a k-clique this does a tiny fraction of the tracked work of
    :func:`count_cliques` (the seed regression this replaces ran the full
    count and threw the count away).

    ``variant``/``eps`` are accepted for signature compatibility with the
    other entry points; the existence search always uses the exact
    degeneracy orientation, whose pruning is at least as strong as any
    counting variant's, so the answer is variant-independent.
    """
    del variant  # the early-exit search needs no variant choice
    tracker = tracker if tracker is not None else Tracker()
    ctx = _context(graph, prepared, eps, tracker)
    return find_clique(graph, k, tracker=tracker, prepared=ctx) is not None
