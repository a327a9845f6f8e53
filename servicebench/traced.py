"""The per-layer (``--trace 1``) half of the benchmark.

Three sources feed the per-layer metrics:

* the closed-loop run itself (tracing off): client latency minus the
  engine's own ``wall_ms`` is the glue (daemon, admission, protocol,
  loopback); the ``stats`` op and the service's metrics registry give
  admission queueing, coalescing and prepared-piece misses;
* a one-client replay of the trace prefix through a fresh service
  (tracing off), whose ``wall_ms`` is the untraced engine time of each
  request and whose PRAM fields are summed;
* a traced replay of the same prefix that calls each layer's public
  functions directly, in the order the daemon calls them, each call in
  a ``SpanRecorder`` span of its request.

Spans are recorded only here, around calls into the program; nothing
inside the program is instrumented.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Tuple

from repro.core.api import list_cliques, resolve_engine
from repro.core.existence import find_clique
from repro.core.frontier import frontier_count_cliques
from repro.core.prepared import PreparedCache
from repro.core.sharded import sharded_count_cliques
from repro.obs import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.pram.tracker import Tracker
from repro.service.protocol import encode_line, ok_response
from repro.service.registry import GraphRegistry

import harness as bench
from workloads import answer_key, answer_of, graph_name, load_graph, request_of

EPS = 0.5  # the service default

# Layer spans of one request, in the daemon's call order.
PIECES = ("order", "dag", "triangles", "communities")
LAYERS = (
    "prepared.get",
    *(f"prepared.{p}" for p in PIECES),
    "dispatch",
    "prepared.frontier_tables",
    "prepared.sharded_tables",
    "frontier.count",
    "sharded.count",
    "existence.find",
    "listing.list",
    "protocol.encode",
    "dynamic.mutate",
    "registry.refresh_stats",
)


class DirectPath:
    """The service's layers without the daemon: cache, registry, engines."""

    def __init__(self, workload: Any, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        self.budget = workload.memory_budget_bytes
        self.cache = PreparedCache(64)
        # The registry's own tracker carries the dynamic.* counters,
        # which the service's registry never attaches.
        tracker = Tracker()
        tracker.attach_metrics(metrics)
        self.registry = GraphRegistry(self.cache, eps=EPS, tracker=tracker)
        for ds, sc in workload.graphs:
            self.registry.register(graph_name(ds, sc), graph=load_graph(ds, sc))

    def request(
        self,
        rec: SpanRecorder,
        index: int,
        event: Dict[str, Any],
        metrics: Optional[MetricsRegistry] = None,
    ) -> Tuple[Dict[str, Any], str]:
        """Serve one event with every layer call in its own span.

        ``metrics`` overrides the registry the query's tracker feeds
        (the warm-up pass keeps its misses out of the traced counts).
        """
        entry = self.registry.get(event["graph"])
        op = event["op"]
        if op == "mutate":
            with rec.span("dynamic.mutate"):
                if event["mutation"] == "insert":
                    entry.dyn.insert_edges(event["batch"])
                else:
                    entry.dyn.delete_edges(event["batch"])
            with rec.span("registry.refresh_stats"):
                stats = entry.refresh_stats()
            return {"version": stats.version}, ""
        graph, stats = entry.snapshot()
        k = event["k"]
        tracker = Tracker()
        tracker.attach_metrics(self.metrics if metrics is None else metrics)
        with rec.span("prepared.get"):
            ctx = self.cache.get(graph, eps=EPS, tracker=tracker)
        for piece in PIECES:
            accessor = getattr(ctx, "order_result" if piece == "order" else piece)
            with rec.span(f"prepared.{piece}"):
                accessor("degeneracy", tracker)
        engine = ""
        if op == "count":
            with rec.span("dispatch"):
                engine = str(
                    resolve_engine(
                        ctx, k, "best-work", True, None, tracker,
                        memory_budget_bytes=self.budget,
                    )
                )
        elif op == "list":
            engine = event.get("engine", "reference")
        if engine == "frontier":
            with rec.span("prepared.frontier_tables"):
                ctx.frontier_tables("degeneracy", tracker)
        elif engine == "sharded":
            with rec.span("prepared.sharded_tables"):
                ctx.sharded_tables(
                    "degeneracy", tracker, memory_budget_bytes=self.budget
                )
        if op == "count" and engine == "sharded":
            with rec.span("sharded.count"):
                count = sharded_count_cliques(
                    graph, k, memory_budget_bytes=self.budget,
                    prepared=ctx, tracker=tracker,
                )
            result = {"count": count}
        elif op == "count":
            with rec.span("frontier.count"):
                count = frontier_count_cliques(
                    graph, k, prepared=ctx, tracker=tracker
                )
            result = {"count": count}
        elif op == "find":
            with rec.span("existence.find"):
                witness = find_clique(graph, k, tracker=tracker, prepared=ctx)
            result = {"found": witness is not None, "witness": witness}
        else:
            with rec.span("listing.list"):
                listed = list_cliques(
                    graph, k, tracker=tracker, prepared=ctx, engine=engine,
                    memory_budget_bytes=self.budget,
                )
            result = {"count": len(listed), "cliques": [list(c) for c in listed]}
        result.update(version=stats.version, work=tracker.work)
        with rec.span("protocol.encode"):
            encode_line(ok_response(index, result))
        return result, engine


def replay_direct(
    workload: Any, answers: Dict[str, Any], trace: List[Dict[str, Any]]
) -> Tuple[Dict[str, Any], int, List[str]]:
    """Traced replay of ``trace``; returns per-layer totals and checks."""
    metrics = MetricsRegistry()
    path = DirectPath(workload, metrics)
    for i, template in enumerate(workload.templates):
        path.request(SpanRecorder(), -1 - i, dict(template), MetricsRegistry())

    layer_ms = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}
    total_ms = 0.0
    engine_ms = 0.0
    dispatch: Dict[str, int] = {}
    failed = 0
    problems: List[str] = []
    for index, event in enumerate(trace):
        rec = SpanRecorder()
        with rec.span("request"):
            result, engine = path.request(rec, index, event)
        root = rec.finish().children[0]
        total_ms += root.wall * 1000.0
        for span in root.children:
            layer_ms[span.name] += span.wall * 1000.0
            calls[span.name] += span.count
        if event["op"] == "mutate":
            if result["version"] != event["expect_version"]:
                failed += 1
            continue
        if event["op"] == "count":
            dispatch[engine] = dispatch.get(engine, 0) + 1
        # The part of the request the daemon times as ``wall_ms``.
        engine_ms += sum(
            s.wall for s in root.children
            if s.name not in ("prepared.get", "protocol.encode")
        ) * 1000.0
        if answer_of(event["op"], result) != answers["answers"][answer_key(event)]:
            failed += 1
            problems.append(f"traced replay: wrong answer for event {index}")
    totals = {
        "layer_ms": layer_ms,
        "calls": calls,
        "total_ms": total_ms,
        "engine_ms": engine_ms,
        "dispatch": dispatch,
        "metrics": metrics.to_dict(),
    }
    return totals, failed, problems


async def replay_untraced(
    workload: Any, answers: Dict[str, Any], trace: List[Dict[str, Any]],
    lifecycle: List[str],
) -> Tuple[List[Dict[str, Any]], int]:
    """One client, one request at a time, through a fresh service."""
    served = await bench.set_up(workload, fresh=False)
    conn = await bench.connect(served.port)
    records = []
    for index, event in enumerate(trace):
        response, latency, nbytes = await bench.exchange(
            *conn, dict(request_of(event), id=index)
        )
        records.append(bench.check(event, response, latency, nbytes, answers))
    await bench.shut(served, [conn], lifecycle)
    return records, sum(not r["ok"] for r in records)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _per_call(totals: Dict[str, Any], layer: str) -> float:
    n = totals["calls"][layer]
    return totals["layer_ms"][layer] / n if n else 0.0


async def per_layer(
    workload: Any,
    answers: Dict[str, Any],
    loop: Any,
    service_side: Dict[str, Any],
    lifecycle: List[str],
) -> Tuple[Dict[str, Tuple[float, str]], int, int, List[str]]:
    trace = [loop.event(i) for i in range(workload.traced_events)]
    untraced, u_failed = await replay_untraced(workload, answers, trace, lifecycle)
    totals, t_failed, problems = replay_direct(workload, answers, trace)

    queries = [r for r in loop.records.values() if r["op"] != "mutate" and r["ok"]]
    mutations = [r["latency_ms"] for r in loop.records.values() if r["op"] == "mutate"]
    glue = [r["latency_ms"] - r["wall_ms"] for r in queries]
    before, after = service_side["stats"]

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    m = totals["metrics"]

    def counter(name: str, field: str = "value") -> float:
        return float(m[name][field]) if name in m else 0.0

    layer_ms, total = totals["layer_ms"], totals["total_ms"]
    counts = sum(totals["dispatch"].values())
    frontier_ms = layer_ms["frontier.count"]
    pieces = sum(
        counter(f"dynamic.{kind}_pieces")
        for kind in ("carried", "patched", "rebuilt", "invalidated")
    )
    untraced_ms = sum(r.get("wall_ms", 0.0) for r in untraced)
    setups = service_side["setup"]
    out = {
        "frontier.count_ms": (_per_call(totals, "frontier.count"), "ms"),
        "frontier.share": (_share(frontier_ms, total), "fraction"),
        "frontier.pairs_per_ms": (
            _share(counter("frontier.pairs"), frontier_ms), "1/ms"
        ),
        "frontier.pairs": (counter("frontier.pairs"), "count"),
        "frontier.children": (counter("frontier.children"), "count"),
        "frontier.rounds": (counter("frontier.rounds"), "count"),
        "frontier.peak_width": (counter("frontier.peak_width", "max"), "count"),
        "service.glue_p50_ms": (bench.percentile(glue, 0.5), "ms"),
        "service.glue_share": (
            _share(sum(glue), sum(r["latency_ms"] for r in queries)), "fraction"
        ),
        "service.engine_p50_ms": (
            bench.percentile([r["wall_ms"] for r in queries], 0.5), "ms"
        ),
        "service.coalesced_frac": (
            _share(sum(r["coalesced"] for r in queries), len(queries)), "fraction"
        ),
        "service.response_bytes": (
            statistics.fmean(r["bytes"] for r in queries), "B"
        ),
        "protocol.encode_ms": (_per_call(totals, "protocol.encode"), "ms"),
        "service.queued_frac": (
            _share(delta("service.queued"), delta("service.admitted")), "fraction"
        ),
        "mutation_p50_ms": (
            bench.percentile(mutations, 0.5) if mutations else 0.0, "ms"
        ),
        "sharded.count_ms": (_per_call(totals, "sharded.count"), "ms"),
        "sharded.share": (_share(layer_ms["sharded.count"], total), "fraction"),
        "shard.bytes.built": (counter("shard.bytes.built"), "B"),
        "shard.bytes.spilled": (counter("shard.bytes.spilled"), "B"),
        "shard.evictions": (counter("shard.evictions"), "count"),
        "shard.bytes.resident_peak": (
            counter("shard.bytes.resident_peak", "max"), "B"
        ),
        "dispatch.sharded_frac": (
            _share(totals["dispatch"].get("sharded", 0), counts), "fraction"
        ),
        "dispatch.frontier_frac": (
            _share(totals["dispatch"].get("frontier", 0), counts), "fraction"
        ),
        **{
            f"prepared.{p}_ms": (_per_call(totals, f"prepared.{p}"), "ms")
            for p in (*PIECES, "frontier_tables")
        },
        "prepared.piece.miss": (service_side["misses"], "count"),
        "prepared.graph.bytes": (service_side["graph_bytes"], "B"),
        "dynamic.mutate_ms": (_per_call(totals, "dynamic.mutate"), "ms"),
        "registry.refresh_stats_ms": (
            _per_call(totals, "registry.refresh_stats"), "ms"
        ),
        "dynamic.patched_pieces": (counter("dynamic.patched_pieces"), "count"),
        "dynamic.rebuilt_pieces": (counter("dynamic.rebuilt_pieces"), "count"),
        "dynamic.invalidated_pieces": (
            counter("dynamic.invalidated_pieces"), "count"
        ),
        "dynamic.patched_ratio": (
            _share(pieces - counter("dynamic.invalidated_pieces"), pieces),
            "fraction",
        ),
        "existence.find_ms": (_per_call(totals, "existence.find"), "ms"),
        "listing.list_ms": (_per_call(totals, "listing.list"), "ms"),
        **{
            f"setup.{phase}": (
                statistics.median(s[phase] for s in setups), "s"
            )
            for phase in ("generate_s", "register_s", "warmup_s")
        },
        "pram.predicted_work": (
            sum(r.get("predicted_work", 0.0) for r in untraced), "work"
        ),
        "pram.tracked_work": (sum(r.get("work", 0.0) for r in untraced), "work"),
        "trace.overhead_frac": (
            _share(totals["engine_ms"] - untraced_ms, untraced_ms), "fraction"
        ),
    }
    for line in expectations(workload.name, out):
        print(line)
    return out, len(trace) * 2, u_failed + t_failed, problems


def expectations(name: str, out: Dict[str, Tuple[float, str]]) -> List[str]:
    """The dominant layer each workload is built to stress, checked."""
    v = {k: val for k, (val, _) in out.items()}
    checks = {
        "warm-heavy": [
            ("frontier.share >= 0.9", v["frontier.share"] >= 0.9),
            ("dispatch.frontier_frac == 1", v["dispatch.frontier_frac"] == 1),
        ],
        "warm-light": [
            ("service.glue_share >= 1/3", v["service.glue_share"] >= 1 / 3),
        ],
        "budget": [
            ("dispatch.sharded_frac == 1", v["dispatch.sharded_frac"] == 1),
        ],
        "churn": [
            (
                "dynamic piece counts > 0",
                v["dynamic.patched_pieces"] + v["dynamic.rebuilt_pieces"] > 0,
            ),
        ],
    }[name]
    return [
        f"{name:<11} expect {label}: {'yes' if ok else 'NO'}" for label, ok in checks
    ]
