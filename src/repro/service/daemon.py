"""The clique query daemon: an asyncio front-end over the engine library.

``CliqueService`` is the long-lived serving layer the ROADMAP's
"millions of users" item asks for, stdlib-only:

* **Transport** — ``asyncio.start_server`` speaking the NDJSON protocol
  of :mod:`repro.service.protocol`; each connection may pipeline
  requests (one task per request, responses tagged by ``id``). The
  in-process :class:`ServiceClient` drives the same :meth:`handle`
  entry point without sockets, so tests exercise the full service path
  cheaply.
* **Execution** — engines are synchronous CPU-bound code, so every
  engine run happens on a ``ThreadPoolExecutor`` off the event loop;
  the loop only routes, coalesces, and admits. Each run gets a **fresh
  per-query** :class:`~repro.pram.tracker.Tracker`
  (``Tracker().assert_fresh()`` — trackers are single-call-stack
  objects, see the tracker module docs) attached to the service's one
  shared :class:`~repro.obs.metrics.MetricsRegistry`.
* **Coalescing** — concurrent identical queries (same graph
  **snapshot**, same ``(op, k, variant, engine, kernelize, prune)``)
  are single-flighted: the first becomes the leader and runs the
  engine, the rest await the same future and fan out its result
  (``service.coalesced``). The key holds the snapshot's immutable
  ``CSRGraph`` itself, not its name and version: every mutation swaps
  in a new graph object, so queries admitted before it resolve against
  the old snapshot and queries after it start a new flight, and a name
  re-registered while an old flight runs (its version restarts at 0)
  can never join that flight. The key keeps the graph alive until the
  flight ends, so its identity cannot be reused meanwhile.
* **Admission** — flight leaders are priced by
  :func:`repro.service.admission.estimate_query` (the paper's work
  bounds over the registry's n/m/s/γ stats) and pass through the
  :class:`~repro.service.admission.AdmissionController` budgets;
  coalesced followers add no work and skip admission.
* **Warm store** — one shared :class:`~repro.core.prepared.PreparedCache`
  (now thread-safe) backs every query; ``service.warm_hit`` counts
  queries that found a context with its order pieces already built.

Endpoints: ``ping``, ``register``, ``unregister``, ``graphs``,
``count``, ``list``, ``find``, ``spectrum``, ``mutate``, ``stats``,
``shutdown`` — see ``docs/SERVICE.md`` for the field-level contract.
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from ..core.api import ENGINES, VARIANTS, count_cliques, list_cliques
from ..core.existence import clique_spectrum, find_clique
from ..core.prepared import PreparedCache, PreparedGraph
from ..dynamic import MutationError
from ..graphs.csr import CSRGraph
from ..obs import MetricsRegistry
from ..pram.tracker import Tracker
from .admission import AdmissionController, QueryEstimate, estimate_query
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    ServiceError,
    decode_line,
    encode_line,
    error_response,
    field,
    ok_response,
    raise_for_response,
)
from .registry import GraphRegistry, RegisteredGraph

__all__ = ["CliqueService", "ServiceClient", "DEFAULT_PORT"]

DEFAULT_PORT = 7421


# -- engine runners (worker-thread side) -----------------------------------
#
# Module-level functions taking everything explicitly: each builds its
# own per-query tracker (never a shared one — Tracker state is
# single-call-stack; assert_fresh() restates lint rule R2's
# no-shared-module-state contract at runtime) and resolves the prepared
# context through the shared thread-safe cache.


def _query_tracker(registry: Optional[MetricsRegistry]) -> Tracker:
    tracker = Tracker().assert_fresh()
    if registry is not None:
        tracker.attach_metrics(registry)
    return tracker


def _is_built(ctx: Optional[PreparedGraph]) -> bool:
    """Whether ``ctx`` holds real pieces, not just an empty shell.

    The cache builds empty contexts eagerly; warm means some query or
    the dynamic patcher already left an order behind.
    """
    return ctx is not None and bool(ctx.piece_keys("order"))


def _run_count(
    graph: CSRGraph,
    k: int,
    variant: str,
    engine: str,
    kernelize: bool,
    prune: bool,
    eps: float,
    cache: PreparedCache,
    registry: Optional[MetricsRegistry],
    memory_budget_bytes: Optional[int] = None,
) -> Dict[str, Any]:
    tracker = _query_tracker(registry)
    ctx = cache.get(graph, eps=eps, tracker=tracker)
    warm = _is_built(ctx)
    t0 = time.perf_counter()
    result = count_cliques(
        graph,
        k,
        variant=variant,
        eps=eps,
        tracker=tracker,
        prune=prune,
        engine=engine,
        prepared=ctx,
        kernelize=kernelize,
        memory_budget_bytes=memory_budget_bytes,
    )
    return {
        "count": int(result.count),
        "engine": str(result.engine),
        "engine_reason": result.engine_reason,
        "warm": warm,
        "work": tracker.work,
        "depth": tracker.depth,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
    }


def _run_list(
    graph: CSRGraph,
    k: int,
    variant: str,
    engine: str,
    kernelize: bool,
    eps: float,
    cache: PreparedCache,
    registry: Optional[MetricsRegistry],
    memory_budget_bytes: Optional[int] = None,
) -> Dict[str, Any]:
    tracker = _query_tracker(registry)
    ctx = cache.get(graph, eps=eps, tracker=tracker)
    warm = _is_built(ctx)
    t0 = time.perf_counter()
    listed = list_cliques(
        graph,
        k,
        variant=variant,
        eps=eps,
        tracker=tracker,
        prepared=ctx,
        engine=engine,
        kernelize=kernelize,
        memory_budget_bytes=memory_budget_bytes,
    )
    return {
        "count": len(listed),
        "cliques": [list(c) for c in listed],
        "warm": warm,
        "work": tracker.work,
        "depth": tracker.depth,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
    }


def _run_find(
    graph: CSRGraph,
    k: int,
    eps: float,
    cache: PreparedCache,
    registry: Optional[MetricsRegistry],
) -> Dict[str, Any]:
    tracker = _query_tracker(registry)
    ctx = cache.get(graph, eps=eps, tracker=tracker)
    warm = _is_built(ctx)
    t0 = time.perf_counter()
    witness = find_clique(graph, k, tracker=tracker, prepared=ctx)
    return {
        "found": witness is not None,
        "witness": None if witness is None else list(witness),
        "warm": warm,
        "work": tracker.work,
        "depth": tracker.depth,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
    }


def _run_spectrum(
    graph: CSRGraph,
    k_max: Optional[int],
    eps: float,
    cache: PreparedCache,
    registry: Optional[MetricsRegistry],
) -> Dict[str, Any]:
    tracker = _query_tracker(registry)
    ctx = cache.get(graph, eps=eps, tracker=tracker)
    warm = _is_built(ctx)
    t0 = time.perf_counter()
    spectrum = clique_spectrum(graph, k_max=k_max, tracker=tracker, prepared=ctx)
    return {
        "spectrum": {str(k): int(c) for k, c in sorted(spectrum.items())},
        "warm": warm,
        "work": tracker.work,
        "depth": tracker.depth,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
    }


class CliqueService:
    """The daemon: registry + coalescer + admission over a worker pool.

    All coordination state (``_flights``, admission counters, mutation
    locks) is event-loop-confined; only the registry, the prepared
    cache, and the metrics registry are touched from worker threads —
    each is individually thread-safe.
    """

    def __init__(
        self,
        eps: float = 0.5,
        workers: Optional[int] = None,
        max_query_work: Optional[float] = None,
        max_inflight_work: Optional[float] = None,
        queue_limit: int = 64,
        cache_size: int = 64,
        cache: Optional[PreparedCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> None:
        self.eps = float(eps)
        self.memory_budget_bytes = memory_budget_bytes
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = cache if cache is not None else PreparedCache(cache_size)
        # Mutation work charges the registry's tracker; attaching the
        # service registry to it makes the dynamic.* counters live.
        mutation_tracker = Tracker()
        mutation_tracker.attach_metrics(self.metrics)
        self.registry = GraphRegistry(
            self.cache, eps=self.eps, tracker=mutation_tracker
        )
        self.admission = AdmissionController(
            max_query_work=max_query_work,
            max_inflight_work=max_inflight_work,
            queue_limit=queue_limit,
            metrics=self.metrics,
            max_resident_bytes=memory_budget_bytes,
        )
        self._workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._flights: Dict[Tuple[Any, ...], "asyncio.Future[Dict[str, Any]]"] = {}
        self._mutation_locks: Dict[str, asyncio.Lock] = {}
        self._stop_event: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict["asyncio.Task[None]", asyncio.StreamWriter] = {}
        self._started = time.time()
        self._ops: Dict[str, Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]] = {
            "ping": self._op_ping,
            "register": self._op_register,
            "unregister": self._op_unregister,
            "graphs": self._op_graphs,
            "count": self._op_count,
            "list": self._op_list,
            "find": self._op_find,
            "spectrum": self._op_spectrum,
            "mutate": self._op_mutate,
            "stats": self._op_stats,
            "shutdown": self._op_shutdown,
        }

    # -- plumbing ----------------------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-query"
            )
        return self._pool

    def _stopper(self) -> asyncio.Event:
        if self._stop_event is None:
            self._stop_event = asyncio.Event()
        return self._stop_event

    async def _offload(self, fn: Callable[[], Any]) -> Any:
        loop = asyncio.get_event_loop()
        return await loop.run_in_executor(self._executor(), fn)

    def _is_warm(self, graph: CSRGraph) -> bool:
        """Whether a query on ``graph`` would find built preprocessing now.

        Admission prices with this; the reply's ``warm`` flag comes from
        the context the run actually got, which a mutation in between
        may have replaced.
        """
        return _is_built(self.cache.lookup(graph, eps=self.eps))

    # -- request entry point ----------------------------------------------

    async def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request dict in, one response dict out (never raises)."""
        request_id = request.get("id")
        op = request.get("op")
        self.metrics.counter("service.requests").inc()
        try:
            if not isinstance(op, str):
                raise ServiceError(
                    "bad-request", "request must carry a string 'op' field"
                )
            handler = self._ops.get(op)
            if handler is None:
                raise ServiceError(
                    "unknown-op",
                    f"unknown op {op!r} (known: {sorted(self._ops)})",
                )
            self.metrics.counter(f"service.op.{op}").inc()
            result = await handler(request)
            return ok_response(request_id, result)
        except ServiceError as exc:
            self.metrics.counter("service.errors").inc()
            return error_response(
                request_id, exc.code, exc.message, **exc.details
            )
        except MutationError as exc:
            self.metrics.counter("service.errors").inc()
            return error_response(request_id, "mutation-error", str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # engine bug: report, keep serving
            self.metrics.counter("service.errors").inc()
            return error_response(request_id, "internal", repr(exc))

    # -- coalescing + admission -------------------------------------------

    async def _coalesced(
        self,
        key: Tuple[Any, ...],
        leader: Callable[[], Awaitable[Dict[str, Any]]],
    ) -> Dict[str, Any]:
        """Single-flight: one engine run per key, fanned out to all waiters.

        The flight runs as an independent task, so a waiter (or the
        leader's own client) disconnecting cancels only its await, never
        the shared computation the other waiters depend on.
        """
        fut = self._flights.get(key)
        if fut is None:
            coalesced = False
            fut = asyncio.ensure_future(leader())
            self._flights[key] = fut
            fut.add_done_callback(
                lambda _f, _key=key: self._flights.pop(_key, None)
            )
        else:
            coalesced = True
            self.metrics.counter("service.coalesced").inc()
        result = dict(await fut)
        result["coalesced"] = coalesced
        return result

    async def _lead(
        self,
        estimate: QueryEstimate,
        label: str,
        runner: Callable[[], Dict[str, Any]],
    ) -> Dict[str, Any]:
        """The flight leader: admit, run off-loop, record warmth."""
        async with self.admission.admit(estimate, label):
            self.metrics.counter("service.engine_runs").inc()
            result = await self._offload(runner)
        if result["warm"]:
            self.metrics.counter("service.warm_hit").inc()
        result["predicted_work"] = estimate.work
        return result

    def _estimate(
        self,
        graph: CSRGraph,
        stats: Any,
        op: str,
        k: Optional[int] = None,
        k_max: Optional[int] = None,
    ) -> QueryEstimate:
        return estimate_query(
            op,
            n=stats.n,
            m=stats.m,
            degeneracy=stats.degeneracy,
            gamma=stats.gamma,
            k=k,
            k_max=k_max,
            warm=self._is_warm(graph),
            memory_budget_bytes=self.memory_budget_bytes,
        )

    # -- endpoints ---------------------------------------------------------

    async def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from .. import __version__

        return {"pong": True, "version": __version__}

    async def _op_register(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = field(request, "name", str, required=True)
        spec = field(request, "spec", str)
        edges = field(request, "edges", list)
        num_vertices = field(request, "n", int)
        stats = await self._offload(
            functools.partial(
                self.registry.register,
                name,
                spec=spec,
                edges=edges,
                num_vertices=num_vertices,
            )
        )
        return stats.to_dict()

    async def _op_unregister(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = field(request, "name", str, required=True)
        removed = self.registry.unregister(name)
        self._mutation_locks.pop(name, None)
        return {"name": name, "removed": removed}

    async def _op_graphs(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"graphs": self.registry.describe()}

    def _query_target(
        self, request: Dict[str, Any]
    ) -> Tuple[RegisteredGraph, CSRGraph, Any]:
        """Resolve the named graph to one consistent (graph, stats) snapshot.

        Everything the query derives — the coalescing key's version
        token, the runner's graph object, the admission estimate — comes
        from this single atomic read, so a mutation landing mid-request
        can never pair a new graph with an old version (or vice versa).
        """
        name = field(request, "graph", str, required=True)
        entry = self.registry.get(name)
        graph, stats = entry.snapshot()
        return entry, graph, stats

    async def _op_count(self, request: Dict[str, Any]) -> Dict[str, Any]:
        entry, graph, stats = self._query_target(request)
        k = field(request, "k", int, required=True)
        if k < 1:
            raise ServiceError("bad-request", f"k must be >= 1, got {k}")
        variant = field(
            request, "variant", str, default="best-work", choices=VARIANTS
        )
        engine = field(
            request, "engine", str, default="auto", choices=ENGINES
        )
        kernelize = field(request, "kernelize", bool, default=False)
        prune = field(request, "prune", bool, default=True)
        estimate = self._estimate(graph, stats, "count", k=k)
        key = (graph, "count", k, variant, engine, kernelize, prune)
        runner = functools.partial(
            _run_count,
            graph, k, variant, engine, kernelize, prune,
            self.eps, self.cache, self.metrics,
            memory_budget_bytes=self.memory_budget_bytes,
        )
        label = f"count k={k} graph={entry.name!r}"
        result = await self._coalesced(
            key, lambda: self._lead(estimate, label, runner)
        )
        result.update({"graph": entry.name, "version": stats.version, "k": k})
        return result

    async def _op_list(self, request: Dict[str, Any]) -> Dict[str, Any]:
        entry, graph, stats = self._query_target(request)
        k = field(request, "k", int, required=True)
        if k < 1:
            raise ServiceError("bad-request", f"k must be >= 1, got {k}")
        variant = field(
            request, "variant", str, default="best-work", choices=VARIANTS
        )
        engine = field(
            request, "engine", str, default="auto", choices=ENGINES
        )
        kernelize = field(request, "kernelize", bool, default=False)
        limit = field(request, "limit", int)
        if limit is not None and limit < 0:
            raise ServiceError("bad-request", f"limit must be >= 0, got {limit}")
        estimate = self._estimate(graph, stats, "list", k=k)
        # The limit is applied per-response, not per-flight: requests
        # differing only in limit still coalesce onto one listing run.
        key = (graph, "list", k, variant, engine, kernelize)
        runner = functools.partial(
            _run_list,
            graph, k, variant, engine, kernelize,
            self.eps, self.cache, self.metrics,
            memory_budget_bytes=self.memory_budget_bytes,
        )
        label = f"list k={k} graph={entry.name!r}"
        result = await self._coalesced(
            key, lambda: self._lead(estimate, label, runner)
        )
        if limit is not None and len(result["cliques"]) > limit:
            result["cliques"] = result["cliques"][:limit]
            result["truncated"] = True
        else:
            result["truncated"] = False
        result.update({"graph": entry.name, "version": stats.version, "k": k})
        return result

    async def _op_find(self, request: Dict[str, Any]) -> Dict[str, Any]:
        entry, graph, stats = self._query_target(request)
        k = field(request, "k", int, required=True)
        if k < 1:
            raise ServiceError("bad-request", f"k must be >= 1, got {k}")
        estimate = self._estimate(graph, stats, "find", k=k)
        key = (graph, "find", k)
        runner = functools.partial(
            _run_find, graph, k, self.eps, self.cache, self.metrics
        )
        label = f"find k={k} graph={entry.name!r}"
        result = await self._coalesced(
            key, lambda: self._lead(estimate, label, runner)
        )
        result.update({"graph": entry.name, "version": stats.version, "k": k})
        return result

    async def _op_spectrum(self, request: Dict[str, Any]) -> Dict[str, Any]:
        entry, graph, stats = self._query_target(request)
        k_max = field(request, "k_max", int)
        if k_max is not None and k_max < 1:
            raise ServiceError(
                "bad-request", f"k_max must be >= 1, got {k_max}"
            )
        estimate = self._estimate(graph, stats, "spectrum", k_max=k_max)
        key = (graph, "spectrum", k_max)
        runner = functools.partial(
            _run_spectrum, graph, k_max, self.eps, self.cache,
            self.metrics,
        )
        label = f"spectrum graph={entry.name!r}"
        result = await self._coalesced(
            key, lambda: self._lead(estimate, label, runner)
        )
        result.update({"graph": entry.name, "version": stats.version})
        return result

    async def _op_mutate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = field(request, "graph", str, required=True)
        op = field(
            request, "mutation", str, required=True,
            choices=("insert", "delete"),
        )
        batch_raw = field(request, "batch", list, required=True)
        try:
            batch = [(int(e[0]), int(e[1])) for e in batch_raw]
        except (IndexError, TypeError, ValueError) as exc:
            raise ServiceError(
                "bad-request", f"batch must be a list of [u, v] pairs: {exc}"
            ) from None
        # DynamicGraph is single-writer: serialize mutations per name.
        # Queries are not blocked — in-flight ones hold the old snapshot
        # (their coalescing key pins the old graph), later ones see the
        # new graph and start fresh flights.
        lock = self._mutation_locks.setdefault(name, asyncio.Lock())
        async with lock:
            self.registry.get(name)  # fail fast before queueing work
            stats, record = await self._offload(
                functools.partial(self.registry.mutate, name, op, batch)
            )
        self.metrics.counter("service.mutations").inc()
        return {
            "graph": name,
            "version": stats.version,
            "n": stats.n,
            "m": stats.m,
            "applied": len(record.batch),
            "deltas": {str(k): int(d) for k, d in record.deltas},
        }

    async def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        exported = self.metrics.to_dict()

        def scalars(prefix: str) -> Dict[str, Any]:
            return {
                name: inst["value"]
                for name, inst in exported.items()
                if name.startswith(prefix) and "value" in inst
            }

        return {
            "service": scalars("service."),
            "dynamic": scalars("dynamic."),
            "cache": self.cache.info(),
            "graphs": self.registry.describe(),
            "admission": {
                "max_query_work": self.admission.max_query_work,
                "max_inflight_work": self.admission.max_inflight_work,
                "max_resident_bytes": self.admission.max_resident_bytes,
                "queue_limit": self.admission.queue_limit,
                "inflight_work": self.admission.inflight_work,
                "inflight_bytes": self.admission.inflight_bytes,
                "inflight_queries": self.admission.inflight_queries,
                "queued": self.admission.queued,
            },
            "uptime_s": time.time() - self._started,
        }

    async def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self._stopper().set()
        return {"stopping": True}

    # -- transport ---------------------------------------------------------

    async def _serve_line(
        self,
        line: bytes,
        respond: Callable[[Dict[str, Any]], Awaitable[None]],
    ) -> None:
        try:
            request = decode_line(line)
        except ProtocolError as exc:
            self.metrics.counter("service.errors").inc()
            await respond(error_response(None, "protocol", str(exc)))
            return
        await respond(await self.handle(request))

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        assert handler is not None
        self._connections[handler] = writer
        handler.add_done_callback(self._connections.pop)
        write_lock = asyncio.Lock()
        pending: set = set()

        async def respond(payload: Dict[str, Any]) -> None:
            async with write_lock:
                writer.write(encode_line(payload))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await respond(
                        error_response(
                            None,
                            "protocol",
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        )
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(self._serve_line(line, respond))
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._on_connection, host, port, limit=MAX_LINE_BYTES
        )
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def wait_stopped(self) -> None:
        await self._stopper().wait()

    async def aclose(self) -> None:
        """Stop accepting, close every connection, release the worker pool.

        Each connection handler is awaited after its writer is closed, so
        none is left running — or able to submit work — once the pool
        shuts down.
        """
        self._stopper().set()
        if self._server is not None:
            self._server.close()
            for writer in self._connections.values():
                writer.close()
            await asyncio.gather(*self._connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    async def run(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        ready: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        """Serve until a ``shutdown`` request (the ``repro serve`` loop)."""
        bound_host, bound_port = await self.start(host, port)
        if ready is not None:
            ready(bound_host, bound_port)
        try:
            await self.wait_stopped()
        finally:
            await self.aclose()


class ServiceClient:
    """In-process async client: the daemon's request path without sockets.

    Tests (and embedded callers) use it to drive coalescing, admission
    and the cache exactly as the TCP path does — :meth:`request` feeds
    :meth:`CliqueService.handle` directly and raises the same
    :class:`~repro.service.protocol.ServiceError` a remote client maps
    from the wire.
    """

    def __init__(self, service: CliqueService) -> None:
        self._service = service

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        req: Dict[str, Any] = {"op": op}
        req.update({k: v for k, v in fields.items() if v is not None})
        return raise_for_response(await self._service.handle(req))

    async def register(self, name: str, **fields: Any) -> Dict[str, Any]:
        return await self.request("register", name=name, **fields)

    async def count(self, graph: str, k: int, **fields: Any) -> Dict[str, Any]:
        return await self.request("count", graph=graph, k=k, **fields)

    async def list_cliques(
        self, graph: str, k: int, **fields: Any
    ) -> Dict[str, Any]:
        return await self.request("list", graph=graph, k=k, **fields)

    async def find(self, graph: str, k: int, **fields: Any) -> Dict[str, Any]:
        return await self.request("find", graph=graph, k=k, **fields)

    async def spectrum(self, graph: str, **fields: Any) -> Dict[str, Any]:
        return await self.request("spectrum", graph=graph, **fields)

    async def mutate(
        self, graph: str, mutation: str, batch: List[List[int]]
    ) -> Dict[str, Any]:
        return await self.request(
            "mutate", graph=graph, mutation=mutation, batch=batch
        )

    async def stats(self) -> Dict[str, Any]:
        return await self.request("stats")
