"""Patch-in-place maintenance of a :class:`PreparedGraph` across a batch.

The expensive piece of the shared preprocessing pipeline is the triangle
list — O(m·s̃) work — and the tables derived from it (edge communities,
frontier bitrows). Everything hinges on one observation: if the *vertex
order* is carried unchanged across a mutation, the DAG rank ids stay
stable, so the triangle list is **patchable** instead of rebuilt:

* a deletion batch destroys exactly the triangles containing a deleted
  edge — the k = 3 delta sweep (:func:`repro.dynamic.delta
  .cliques_through_edges`) on the pre-mutation graph lists them;
* an insertion batch creates exactly the triangles containing an
  inserted edge — the same sweep on the post-mutation graph.

Mapping the affected triples through the carried rank and merging by
packed int64 keys updates the sorted (u, w, v) row array in
O((T + A) log(T + A)) — independent of the untouched communities. The
communities and frontier tables then rebuild from the *patched* triangle
list with whole-array passes: one :meth:`OrientedDAG.edge_ids` lookup
(a single ``searchsorted`` over packed edge keys) maps every row to its
edge ids, then a lexsort (communities) or a scatter (frontier bitrows);
no per-triangle Python loop. The DAG itself re-orients in O(n + m) on
the new snapshot, whose CSR arrays :mod:`repro.dynamic.graph` splices
from the old ones.

Correctness of carrying the order: every counting/listing kernel is
exact under *any* total order (the order only controls work bounds), and
the existence fast paths use the context's degeneracy as the ω ≤ s + 1
upper bound — which the patch refreshes to the re-oriented DAG's max
out-degree D, a sound bound for any acyclic orientation (a clique's
lowest-ranked vertex has out-degree ≥ ω − 1). After heavy mutation the
carried order may drift from the true degeneracy order, degrading
*speed*, never results; callers can always drop to a cold rebuild.

Pieces the patch cannot carry — edge orders (Algorithm 3/4 outputs are
global greedy structures) and k-clique kernels — are invalidated and
rebuild lazily on next use, exactly like a cold miss.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.prepared import ORDER_VARIANTS, PreparedGraph
from ..graphs.csr import CSRGraph
from ..graphs.digraph import OrientedDAG, orient_by_order
from ..orders.degeneracy import DegeneracyResult
from ..pram.tracker import NULL_TRACKER, Tracker
from ..triangles.communities import build_communities
from .delta import cliques_through_edges

__all__ = ["PatchReport", "patch_prepared", "PACK_LIMIT"]

Pair = Tuple[int, int]

# Largest n for which a triangle triple packs into an int64 key
# ((u·n + w)·n + v < n³ ≤ 2⁶² for n ≤ 2_000_000). Beyond it the patch
# falls back to invalidating the triangle-derived pieces.
PACK_LIMIT = 2_000_000


@dataclasses.dataclass
class PatchReport:
    """Per-piece accounting of one patch: what survived vs. what died.

    ``carried`` pieces moved over untouched (vertex orders), ``patched``
    were updated incrementally (triangle lists), ``rebuilt`` were
    recomputed from patched inputs at sub-preprocessing cost (DAGs,
    communities, frontier tables), ``invalidated`` were dropped to
    rebuild lazily (edge orders, kernels, overflow fallbacks). The
    ``dynamic.*`` metrics mirror these fields.
    """

    carried: int = 0
    patched: int = 0
    rebuilt: int = 0
    invalidated: int = 0
    affected_triangles: int = 0
    touched_members: int = 0
    detail: Dict[str, str] = dataclasses.field(default_factory=dict)

    def _note(self, piece: str, outcome: str) -> None:
        self.detail[piece] = outcome
        setattr(self, outcome, getattr(self, outcome) + 1)

    @property
    def total(self) -> int:
        return self.carried + self.patched + self.rebuilt + self.invalidated

    @property
    def patched_ratio(self) -> float:
        """Fraction of pieces that survived (carried or patched or rebuilt
        from patched inputs) rather than being invalidated outright."""
        if self.total == 0:
            return 0.0
        return (self.total - self.invalidated) / self.total


def _affected_triangles(
    sweep_graph: CSRGraph,
    batch: Sequence[Pair],
    tracker: Tracker,
    report: "PatchReport",
) -> List[Tuple[int, ...]]:
    """Original-id triples of every triangle containing a batch edge."""
    res = cliques_through_edges(
        sweep_graph, batch, 3, collect=True, tracker=tracker
    )
    affected = res.cliques or []
    report.affected_triangles = len(affected)
    report.touched_members = res.touched_vertices
    return affected


def _patch_triangle_rows(
    old_tri: np.ndarray,
    affected: List[Tuple[int, ...]],
    rank: np.ndarray,
    n: int,
    op: str,
) -> np.ndarray:
    """Apply the affected-triple delta to a sorted (u, w, v) row array.

    Rows are ascending rank triples in lexicographic order; packing each
    triple into the key (u·n + w)·n + v is order-preserving, so a key
    mask (delete) or key merge (insert) keeps the invariant.
    """
    if not affected:
        return old_tri
    tri64 = old_tri.astype(np.int64)
    old_keys = (tri64[:, 0] * n + tri64[:, 1]) * n + tri64[:, 2]
    arr = rank[np.asarray(affected, dtype=np.int64)]
    arr.sort(axis=1)
    new_keys = (arr[:, 0] * n + arr[:, 1]) * n + arr[:, 2]
    if op == "delete":
        return old_tri[~np.isin(old_keys, new_keys)]
    rows = np.concatenate([old_tri, arr.astype(np.int32)], axis=0)
    keys = np.concatenate([old_keys, new_keys])
    return np.ascontiguousarray(rows[np.argsort(keys, kind="mergesort")])


def _carried_order_result(result: Any, dag: OrientedDAG) -> Any:
    """The old order result adjusted for the new graph.

    For the exact variant the ``degeneracy`` scalar feeds the ω ≤ s + 1
    existence bound, so it is refreshed to the re-oriented DAG's max
    out-degree — a valid upper bound under any acyclic orientation (the
    ``core`` array is carried as-is; no prepared-context consumer reads
    it). The approx variant carries only order/round diagnostics.
    """
    if isinstance(result, DegeneracyResult):
        return dataclasses.replace(result, degeneracy=dag.max_out_degree)
    return result


def patch_prepared(
    old: PreparedGraph,
    new_graph: CSRGraph,
    op: str,
    batch: Sequence[Pair],
    tracker: Tracker = NULL_TRACKER,
) -> Tuple[PreparedGraph, PatchReport]:
    """A warm context for ``new_graph`` built from ``old``'s pieces.

    ``new_graph`` must be ``old.graph`` with the normalized ``batch``
    applied under ``op`` (``insert``/``delete``); vertex count unchanged
    — mutations are edge-only. Only pieces the old context actually
    materialized are considered. The new context belongs to
    ``new_graph``, a distinct object, so caches hold the two snapshots
    apart by graph identity.

    Work: O(n + m + (T + A) log(T + A) + Σ_e |C(e)|) for A affected
    triangles — the full O(m·s̃) triangle enumeration is never redone.
    """
    if op not in ("insert", "delete"):
        raise ValueError(f"op must be 'insert' or 'delete', got {op!r}")
    old_graph = old.graph
    if old_graph is None:
        raise ValueError("cannot patch a context whose graph was collected")
    if new_graph.num_vertices != old_graph.num_vertices:
        raise ValueError("patching requires an unchanged vertex set")

    fresh = PreparedGraph(new_graph, eps=old.eps)
    report = PatchReport()
    n = new_graph.num_vertices

    with tracker.phase("patch"):
        needs_delta = any(
            old.peek("triangles", variant) is not None
            for variant in ORDER_VARIANTS
        )
        affected: Optional[List[Tuple[int, ...]]] = None
        if needs_delta and n <= PACK_LIMIT:
            sweep_graph = new_graph if op == "insert" else old_graph
            affected = _affected_triangles(sweep_graph, batch, tracker, report)

        for variant in ORDER_VARIANTS:
            order_result = old.peek("order", variant)
            if order_result is None:
                continue
            dag = orient_by_order(
                new_graph, order_result.order, tracker=tracker
            )
            fresh.install_piece(
                "order", variant, _carried_order_result(order_result, dag)
            )
            report._note(f"order/{variant}", "carried")
            fresh.install_piece("dag", variant, dag)
            report._note(f"dag/{variant}", "rebuilt")

            old_tri = old.peek("triangles", variant)
            tri: Optional[np.ndarray] = None
            if old_tri is not None:
                if affected is None:
                    report._note(f"triangles/{variant}", "invalidated")
                else:
                    rank = np.empty(n, dtype=np.int64)
                    rank[order_result.order] = np.arange(n)
                    tri = _patch_triangle_rows(
                        old_tri, affected, rank, n, op
                    )
                    fresh.install_piece("triangles", variant, tri)
                    report._note(f"triangles/{variant}", "patched")
            if old.peek("communities", variant) is not None:
                if tri is None:
                    report._note(f"communities/{variant}", "invalidated")
                else:
                    fresh.install_piece(
                        "communities",
                        variant,
                        build_communities(dag, tracker=tracker, triangles=tri),
                    )
                    report._note(f"communities/{variant}", "rebuilt")
            if old.peek("frontier_tables", variant) is not None:
                if tri is None:
                    report._note(f"frontier_tables/{variant}", "invalidated")
                else:
                    from ..core.frontier import build_frontier_tables

                    fresh.install_piece(
                        "frontier_tables",
                        variant,
                        build_frontier_tables(dag, tri),
                    )
                    report._note(f"frontier_tables/{variant}", "rebuilt")

        # Global greedy structures cannot be localized: drop to lazy
        # rebuild. Sharded table blocks are keyed to the old DAG's edge
        # rows, so a mutated snapshot must re-plan them too.
        for kind in ("edge_order", "sharded_tables", "kernel"):
            for key in old.piece_keys(kind):
                report._note(f"{kind}/{key}", "invalidated")

    return fresh, report
