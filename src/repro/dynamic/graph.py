"""The mutable face of the library: versioned batch edge mutations.

:class:`DynamicGraph` wraps the immutable :class:`CSRGraph` the way a
database wraps immutable pages: every mutation batch produces a *new*
snapshot (the batch's directed entries are spliced into a copy of the
CSR arrays: a per-row binary search for their slots, one insert or
delete pass over ``indices`` and a shifted ``indptr`` — O(n + m) copying,
no re-sort) while the expensive derived state crosses over incrementally:

* tracked k-clique counts/listings advance by the community-localized
  delta (:mod:`repro.dynamic.delta`) — work proportional to the touched
  communities, not the graph;
* the warm :class:`PreparedGraph` context is patched in place
  (:mod:`repro.dynamic.patch`) and adopted into the façade cache for the
  new snapshot, so post-mutation ``repro.count_cliques`` calls on
  :attr:`graph` stay warm; the superseded snapshot's cache entries are
  explicitly invalidated.

Mutations are **strict**: inserting a present edge, deleting an absent
one, self-loops, out-of-range endpoints, and in-batch duplicates all
raise :class:`MutationError` before anything is touched — a dynamic
workload that disagrees with its own edge bookkeeping is a bug worth
surfacing, not papering over.

With ``verify=True`` every batch is gated by the dynamic-vs-scratch
differential oracle: the incrementally maintained counts (and listings,
where tracked) are compared against a cold recompute on the new
snapshot *and* against a query through the patched context; any
disagreement raises :class:`VerificationError` naming the first
divergent k. The fuzz oracle (``dynamic-vs-scratch``) and the ``repro
mutate --verify`` CLI run in this mode.

Every applied batch is appended to a replayable trace
(:meth:`DynamicGraph.trace`, :func:`replay_trace`), and
:func:`random_trace` synthesizes seeded traces for fuzzing/benchmarks.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.api import count_cliques, list_cliques
from ..core.prepared import (
    PreparedCache,
    PreparedGraph,
    adopt_prepared,
    invalidate_prepared,
)
from ..graphs.csr import CSRGraph
from ..pram.tracker import NULL_TRACKER, Tracker
from .delta import count_delta
from .patch import PatchReport, patch_prepared

__all__ = [
    "DynamicGraph",
    "MutationError",
    "MutationRecord",
    "VerificationError",
    "random_trace",
    "replay_trace",
]

Pair = Tuple[int, int]


class MutationError(ValueError):
    """A mutation batch disagrees with the current edge set."""


class VerificationError(RuntimeError):
    """Incremental state diverged from recompute-from-scratch."""


@dataclasses.dataclass(frozen=True)
class MutationRecord:
    """One applied batch: the replayable unit of a mutation trace."""

    op: str
    batch: Tuple[Pair, ...]
    version: int
    deltas: Tuple[Tuple[int, int], ...] = ()

    def to_json(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "batch": [[int(u), int(v)] for u, v in self.batch],
        }


def _normalized_batch(
    graph: CSRGraph, op: str, batch: Sequence[Pair]
) -> Tuple[Pair, ...]:
    """Validate and normalize (u < v) a batch against the current edges."""
    n = graph.num_vertices
    seen = set()
    out: List[Pair] = []
    for pair in batch:
        u, v = int(pair[0]), int(pair[1])
        if u == v:
            raise MutationError(f"self-loop ({u}, {v}) in {op} batch")
        if not (0 <= u < n and 0 <= v < n):
            raise MutationError(
                f"endpoint out of range in {op} batch: ({u}, {v}), n={n}"
            )
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise MutationError(f"duplicate edge ({u}, {v}) in {op} batch")
        seen.add((u, v))
        present = graph.has_edge(u, v)
        if op == "insert" and present:
            raise MutationError(f"cannot insert existing edge ({u}, {v})")
        if op == "delete" and not present:
            raise MutationError(f"cannot delete missing edge ({u}, {v})")
        out.append((u, v))
    return tuple(out)


def _apply_batch(graph: CSRGraph, op: str, batch: Sequence[Pair]) -> CSRGraph:
    """The new snapshot: ``graph`` with the validated batch applied.

    Splices the CSR instead of rebuilding it: the batch's ``2b`` directed
    entries are sorted, each finds its slot by a ``searchsorted`` in its
    row, and ``indices`` gains (insert) or loses (delete) exactly those
    slots while ``indptr`` shifts by the running sum of the per-row
    deltas. A delete slot that does not hold the expected neighbour (or
    an insert slot that already does) raises :class:`MutationError`
    instead of corrupting the snapshot. O(n + m) for the copies,
    O(b log m) for the slot search.
    """
    n = graph.num_vertices
    indptr, indices = graph.indptr, graph.indices
    arr = np.asarray(batch, dtype=np.int64).reshape(-1, 2)
    keys = np.sort(
        np.concatenate([arr[:, 0] * n + arr[:, 1], arr[:, 1] * n + arr[:, 0]])
    )
    src, dst = keys // n, keys % n
    starts, ends = indptr[src], indptr[src + 1]
    slots = starts + np.array(
        [np.searchsorted(indices[a:z], d) for a, z, d in zip(starts, ends, dst)],
        dtype=np.int64,
    )
    held = slots < ends
    held[held] = indices[slots[held]] == dst[held]
    delta = np.bincount(src, minlength=n)
    if op == "insert":
        if held.any():
            u, v = int(src[held][0]), int(dst[held][0])
            raise MutationError(f"cannot insert existing edge ({u}, {v})")
        new_indices = np.insert(indices, slots, dst.astype(np.int32))
    else:
        if not held.all():
            u, v = int(src[~held][0]), int(dst[~held][0])
            raise MutationError(f"cannot delete missing edge ({u}, {v})")
        new_indices = np.delete(indices, slots)
        delta = -delta
    new_indptr = indptr.copy()
    new_indptr[1:] += np.cumsum(delta)
    return CSRGraph(new_indptr, new_indices, validate=False)


class DynamicGraph:
    """A versioned graph supporting batch edge inserts/deletes.

    Parameters
    ----------
    graph:
        The initial snapshot.
    eps:
        Approximation parameter threaded to the prepared pipeline.
    tracker:
        Mutation work (delta sweeps, patching) is charged here; attach a
        metrics registry to collect the ``dynamic.*`` instruments.
    cache:
        The :class:`PreparedCache` to keep warm across mutations
        (default: the façade's module-level cache).
    verify:
        Gate every batch with the dynamic-vs-scratch oracle.
    """

    def __init__(
        self,
        graph: CSRGraph,
        eps: float = 0.5,
        tracker: Tracker = NULL_TRACKER,
        cache: Optional[PreparedCache] = None,
        verify: bool = False,
    ) -> None:
        self._graph = graph
        self._eps = float(eps)
        self._tracker = tracker
        self._cache = cache
        self._verify = bool(verify)
        self._prepared = PreparedGraph(graph, eps=eps)
        self.version = 0
        self.log: List[MutationRecord] = []
        self.last_report: Optional[PatchReport] = None
        self._counts: Dict[int, int] = {}
        self._listings: Dict[int, List[Tuple[int, ...]]] = {}

    # -- snapshot accessors --------------------------------------------------

    @property
    def graph(self) -> CSRGraph:
        """The current immutable snapshot."""
        return self._graph

    @property
    def prepared(self) -> PreparedGraph:
        """The warm preprocessing context of the current snapshot."""
        return self._prepared

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self._graph.num_edges

    def has_edge(self, u: int, v: int) -> bool:
        return self._graph.has_edge(u, v)

    # -- tracked queries -----------------------------------------------------

    def count(self, k: int) -> int:
        """The k-clique count, incrementally maintained once asked for."""
        got = self._counts.get(k)
        if got is None:
            got = int(
                count_cliques(
                    self._graph,
                    k,
                    tracker=self._tracker,
                    prepared=self._prepared,
                ).count
            )
            self._counts[k] = got
        return got

    def cliques(self, k: int) -> List[Tuple[int, ...]]:
        """The sorted k-clique listing, incrementally maintained."""
        got = self._listings.get(k)
        if got is None:
            got = list_cliques(
                self._graph, k, tracker=self._tracker, prepared=self._prepared
            )
            self._listings[k] = got
        return list(got)

    @property
    def tracked_ks(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self._counts) | set(self._listings)))

    # -- mutations -----------------------------------------------------------

    def insert_edges(self, batch: Sequence[Pair]) -> MutationRecord:
        """Insert a batch of absent edges; returns the applied record."""
        return self._mutate("insert", batch)

    def delete_edges(self, batch: Sequence[Pair]) -> MutationRecord:
        """Delete a batch of present edges; returns the applied record."""
        return self._mutate("delete", batch)

    def _mutate(self, op: str, batch: Sequence[Pair]) -> MutationRecord:
        normalized = _normalized_batch(self._graph, op, batch)
        if not normalized:
            record = MutationRecord(op=op, batch=(), version=self.version)
            self.log.append(record)
            return record
        old_graph = self._graph
        new_graph = _apply_batch(old_graph, op, normalized)

        ks = self.tracked_ks
        deltas = count_delta(
            old_graph,
            new_graph,
            op,
            normalized,
            ks,
            collect=bool(self._listings),
            tracker=self._tracker,
        )
        patched, report = patch_prepared(
            self._prepared, new_graph, op, normalized, tracker=self._tracker
        )

        # Swap the snapshot: adopt the patched context for the new graph
        # and drop the superseded snapshot's cache entries.
        adopt_prepared(new_graph, patched, eps=self._eps, cache=self._cache)
        invalidate_prepared(old_graph, cache=self._cache)
        self._graph = new_graph
        self._prepared = patched
        self.version += 1
        self.last_report = report

        for k in ks:
            delta = deltas[k]
            if k in self._counts:
                self._counts[k] += delta.count
            if k in self._listings:
                changed = delta.cliques or []
                if op == "insert":
                    self._listings[k] = sorted(self._listings[k] + changed)
                else:
                    dead = set(changed)
                    self._listings[k] = [
                        c for c in self._listings[k] if c not in dead
                    ]

        self._record_metrics(len(normalized), report)
        record = MutationRecord(
            op=op,
            batch=normalized,
            version=self.version,
            deltas=tuple((k, deltas[k].count) for k in ks),
        )
        self.log.append(record)
        if self._verify:
            self._check_against_scratch(op, normalized)
        return record

    def _record_metrics(self, batch_size: int, report: PatchReport) -> None:
        metrics = self._tracker.metrics
        if metrics is None:
            return
        metrics.counter("dynamic.mutations").inc()
        metrics.histogram("dynamic.batch_size").record(batch_size)
        metrics.histogram("dynamic.touched_communities").record(
            report.touched_members
        )
        metrics.histogram("dynamic.affected_triangles").record(
            report.affected_triangles
        )
        metrics.counter("dynamic.carried_pieces").inc(report.carried)
        metrics.counter("dynamic.patched_pieces").inc(report.patched)
        metrics.counter("dynamic.rebuilt_pieces").inc(report.rebuilt)
        metrics.counter("dynamic.invalidated_pieces").inc(report.invalidated)
        metrics.gauge("dynamic.patched_ratio").set(report.patched_ratio)

    # -- differential gate ---------------------------------------------------

    def _check_against_scratch(self, op: str, batch: Tuple[Pair, ...]) -> None:
        """The dynamic-vs-scratch oracle on the current tracked state."""
        cold = PreparedGraph(self._graph, eps=self._eps)
        where = f"after {op} of {len(batch)} edges (version {self.version})"
        for k in self.tracked_ks:
            scratch = int(
                count_cliques(self._graph, k, prepared=cold).count
            )
            if k in self._counts and self._counts[k] != scratch:
                raise VerificationError(
                    f"incremental count diverged {where}: "
                    f"k={k} incremental={self._counts[k]} scratch={scratch}"
                )
            warm = int(
                count_cliques(
                    self._graph, k, prepared=self._prepared
                ).count
            )
            if warm != scratch:
                raise VerificationError(
                    f"patched context diverged {where}: "
                    f"k={k} patched={warm} scratch={scratch}"
                )
            if k in self._listings:
                listed = list_cliques(self._graph, k, prepared=cold)
                if self._listings[k] != listed:
                    raise VerificationError(
                        f"incremental listing diverged {where}: k={k} "
                        f"(incremental {len(self._listings[k])} cliques, "
                        f"scratch {len(listed)})"
                    )

    # -- traces --------------------------------------------------------------

    def trace(self) -> List[Dict[str, object]]:
        """The applied mutation history as a JSON-serializable trace."""
        return [record.to_json() for record in self.log]

    def apply_trace(
        self, trace: Sequence[Dict[str, object]]
    ) -> List[MutationRecord]:
        """Apply each ``{"op", "batch"}`` step of a trace in order."""
        applied = []
        for step in trace:
            op = str(step["op"])
            if op not in ("insert", "delete"):
                raise MutationError(f"trace op must be insert/delete, got {op!r}")
            batch = [(int(e[0]), int(e[1])) for e in step["batch"]]
            applied.append(self._mutate(op, batch))
        return applied


def replay_trace(
    graph: CSRGraph,
    trace: Sequence[Dict[str, object]],
    ks: Sequence[int] = (),
    verify: bool = False,
    tracker: Tracker = NULL_TRACKER,
) -> DynamicGraph:
    """Replay a recorded trace from a fresh snapshot; returns the wrapper."""
    dyn = DynamicGraph(graph, tracker=tracker, verify=verify)
    for k in ks:
        dyn.count(k)
    dyn.apply_trace(trace)
    return dyn


def random_trace(
    graph: CSRGraph,
    batches: int,
    batch_size: int,
    seed: int,
    p_insert: float = 0.5,
) -> List[Dict[str, object]]:
    """A seeded, replayable trace of valid batches against ``graph``.

    Simulates the evolving edge set so every step is valid when replayed
    in order: deletes sample present edges, inserts sample absent pairs
    (rejection sampling), and a batch never exceeds what the current
    snapshot can legally give up or absorb.
    """
    import random

    rng = random.Random(seed)
    n = graph.num_vertices
    us, vs = graph.edge_array()
    edges = {(int(u), int(v)) for u, v in zip(us, vs)}
    full = n * (n - 1) // 2
    trace: List[Dict[str, object]] = []
    for _ in range(batches):
        op = "insert" if rng.random() < p_insert else "delete"
        if op == "delete" and not edges:
            op = "insert"
        if op == "insert" and len(edges) >= full:
            op = "delete"
        batch: List[Pair] = []
        taken = set()
        if op == "delete":
            pool = sorted(edges)
            rng.shuffle(pool)
            batch = pool[: min(batch_size, len(pool))]
        else:
            want = min(batch_size, full - len(edges))
            guard = 0
            while len(batch) < want and guard < 200 * max(1, want):
                guard += 1
                if n < 2:
                    break
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u == v:
                    continue
                pair = (min(u, v), max(u, v))
                if pair in edges or pair in taken:
                    continue
                taken.add(pair)
                batch.append(pair)
        if not batch:
            continue
        if op == "insert":
            edges.update(batch)
        else:
            edges.difference_update(batch)
        trace.append(
            {"op": op, "batch": [[int(u), int(v)] for u, v in batch]}
        )
    return trace
