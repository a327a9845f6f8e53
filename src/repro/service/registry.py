"""Named-graph registry: the daemon's multi-tenant graph namespace.

Clients address graphs by name, not by payload: ``register`` loads a
graph once (from a built-in dataset, a graph file, or an inline edge
list), wraps it in a :class:`~repro.dynamic.DynamicGraph`, and computes
the statistics admission control prices with (n, m, degeneracy s, and —
once the frontier tables or communities are built — the largest
community size γ). Every
subsequent query against the name amortizes the
:class:`~repro.core.prepared.PreparedGraph` preprocessing through the
shared :class:`~repro.core.prepared.PreparedCache`.

Mutations route through the entry's ``DynamicGraph`` (never through
graph re-registration): the dynamic layer patches the warm prepared
context in place and adopts it into the shared cache for the new
snapshot, so a mutation costs a community-localized delta instead of a
cold rebuild, and the registry's ``version`` gives each reply a
consistent snapshot number.

The registry itself is locked (it is read on the event loop and written
from worker threads); *mutating one entry* is serialized by the daemon
with a per-name asyncio lock, because ``DynamicGraph`` is a
single-writer structure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench.datasets import DATASETS, load_dataset
from ..core.prepared import PreparedCache, adopt_prepared, invalidate_prepared
from ..dynamic import DynamicGraph
from ..graphs.builder import from_edges
from ..graphs.csr import CSRGraph
from ..graphs.io import load_npz, read_edge_list, read_mtx
from ..pram.tracker import Tracker
from .protocol import ServiceError

__all__ = [
    "GraphStats",
    "RegisteredGraph",
    "GraphRegistry",
    "load_graph_spec",
]


def load_graph_spec(spec: str) -> CSRGraph:
    """A graph from a built-in dataset name or a file path.

    Accepts the same vocabulary everywhere a graph is named (CLI
    positionals, ``register`` requests): a dataset from
    :data:`repro.bench.datasets.DATASETS`, a ``.npz`` snapshot, a
    Matrix-Market ``.mtx``, or a SNAP-style edge list.
    """
    if spec in DATASETS:
        return load_dataset(spec)
    if spec.endswith(".npz"):
        return load_npz(spec)
    if spec.endswith(".mtx"):
        return read_mtx(spec)
    return read_edge_list(spec)


@dataclass(frozen=True)
class GraphStats:
    """The admission-relevant shape of one registered snapshot."""

    name: str
    n: int
    m: int
    degeneracy: int
    gamma: Optional[int]  # None until tables or communities are built
    version: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "degeneracy": self.degeneracy,
            "gamma": self.gamma,
            "version": self.version,
        }


class RegisteredGraph:
    """One registry entry: the dynamic wrapper plus its priced stats.

    Queries read the entry from the event loop while mutations update
    it from a worker thread, and ``DynamicGraph`` swaps its graph and
    bumps its version in two separate assignments — reading them
    individually can tear (new graph, old version), which would let a
    result computed on the new snapshot coalesce under the old version
    token. The entry therefore keeps one ``(graph, stats)`` tuple,
    replaced by a single reference assignment in :meth:`refresh_stats`
    (called only under the daemon's per-name mutation lock):
    :meth:`snapshot` is always internally consistent.
    """

    def __init__(
        self, name: str, dyn: DynamicGraph, eps: float
    ) -> None:
        self.name = name
        self.dyn = dyn
        self.eps = eps
        self._snap: Tuple[CSRGraph, GraphStats] = (
            dyn.graph,
            self._compute_stats(),
        )

    def snapshot(self) -> Tuple[CSRGraph, "GraphStats"]:
        """The current consistent ``(graph, stats)`` pair (atomic read)."""
        return self._snap

    @property
    def graph(self) -> CSRGraph:
        return self._snap[0]

    @property
    def stats(self) -> "GraphStats":
        return self._snap[1]

    @property
    def version(self) -> int:
        return self._snap[1].version

    def _compute_stats(self) -> GraphStats:
        """Refresh the priced statistics from the warm prepared context.

        The degeneracy order is O(n + m) and memoized on the context, so
        this is cheap at registration and free afterwards. γ needs the
        frontier tables or the communities (O(m·s̃) to build), so it is
        only read when some query already paid for one of them —
        :meth:`~repro.core.prepared.PreparedGraph.known_gamma` never
        builds.
        """
        ctx = self.dyn.prepared
        s = ctx.degeneracy()
        gamma = ctx.known_gamma("degeneracy")
        g = self.dyn.graph
        return GraphStats(
            name=self.name,
            n=g.num_vertices,
            m=g.num_edges,
            degeneracy=int(s),
            gamma=gamma,
            version=self.dyn.version,
        )

    def refresh_stats(self) -> GraphStats:
        stats = self._compute_stats()
        self._snap = (self.dyn.graph, stats)
        return stats


class GraphRegistry:
    """Thread-safe name → :class:`RegisteredGraph` map over a shared cache."""

    def __init__(
        self,
        cache: PreparedCache,
        eps: float = 0.5,
        tracker: Optional[Tracker] = None,
    ) -> None:
        self._cache = cache
        self._eps = float(eps)
        # Mutation work (delta sweeps, patching) of every entry charges
        # here; the daemon serializes mutations, so one tracker is safe.
        self._tracker = tracker if tracker is not None else Tracker()
        self._entries: Dict[str, RegisteredGraph] = {}
        self._lock = threading.RLock()

    def register(
        self,
        name: str,
        graph: Optional[CSRGraph] = None,
        spec: Optional[str] = None,
        edges: Optional[Sequence[Sequence[int]]] = None,
        num_vertices: Optional[int] = None,
    ) -> GraphStats:
        """Bind ``name`` to a graph given exactly one way.

        ``graph`` (in-process callers), ``spec`` (dataset name or file
        path), or ``edges`` (+ optional ``num_vertices``) for an inline
        payload. The entry's prepared context is adopted into the shared
        cache immediately, so the first query already finds the context
        object (pieces still build lazily under its lock).
        """
        sources = sum(x is not None for x in (graph, spec, edges))
        if sources != 1:
            raise ServiceError(
                "bad-request",
                "register needs exactly one of graph/spec/edges",
            )
        if not name or not isinstance(name, str):
            raise ServiceError("bad-request", "graph name must be a string")
        if graph is None:
            if spec is not None:
                try:
                    graph = load_graph_spec(spec)
                except (FileNotFoundError, KeyError, ValueError) as exc:
                    raise ServiceError(
                        "bad-request", f"cannot load graph {spec!r}: {exc}"
                    ) from None
            else:
                assert edges is not None
                try:
                    pairs = [(int(e[0]), int(e[1])) for e in edges]
                    graph = from_edges(pairs, num_vertices=num_vertices)
                except (IndexError, TypeError, ValueError) as exc:
                    raise ServiceError(
                        "bad-request", f"bad edge payload: {exc}"
                    ) from None
        dyn = DynamicGraph(
            graph, eps=self._eps, tracker=self._tracker, cache=self._cache
        )
        entry = RegisteredGraph(name, dyn, eps=self._eps)
        with self._lock:
            if name in self._entries:
                raise ServiceError(
                    "graph-exists", f"graph {name!r} is already registered"
                )
            self._entries[name] = entry
        # Seed the shared cache so query-side cache.get() finds the
        # entry's context instead of building a second one.
        adopt_prepared(graph, dyn.prepared, eps=self._eps, cache=self._cache)
        return entry.stats

    def unregister(self, name: str) -> bool:
        """Drop ``name``; invalidates its cache entries. False if absent."""
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            return False
        invalidate_prepared(entry.graph, cache=self._cache)
        return True

    def get(self, name: str) -> RegisteredGraph:
        with self._lock:
            entry = self._entries.get(name)
            known = sorted(self._entries)
        if entry is None:
            raise ServiceError(
                "unknown-graph",
                f"graph {name!r} is not registered (known: {known})",
            )
        return entry

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def describe(self) -> List[Dict[str, Any]]:
        """Stats rows of every registered graph (the ``graphs`` endpoint)."""
        with self._lock:
            entries = sorted(self._entries.items())
        return [entry.stats.to_dict() for _, entry in entries]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def mutate(
        self, name: str, op: str, batch: Sequence[Tuple[int, int]]
    ) -> Tuple[GraphStats, Any]:
        """Apply one batch through the entry's ``DynamicGraph``.

        Must be externally serialized per name (the daemon holds the
        per-graph asyncio lock across this call). Returns the refreshed
        stats and the :class:`~repro.dynamic.MutationRecord`.
        """
        entry = self.get(name)
        if op == "insert":
            record = entry.dyn.insert_edges(batch)
        elif op == "delete":
            record = entry.dyn.delete_edges(batch)
        else:
            raise ServiceError(
                "bad-request", f"mutation op must be insert/delete, got {op!r}"
            )
        return entry.refresh_stats(), record
