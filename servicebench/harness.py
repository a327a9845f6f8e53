"""The service side of the benchmark: set-up, clients, closed loop.

Everything here talks to a ``CliqueService`` over its ``127.0.0.1``
port, as a remote client would; the checks compare each reply with the
committed reference answer of its trace event.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.service.daemon import CliqueService
from repro.service.protocol import MAX_LINE_BYTES

from workloads import (
    WORKLOADS,
    answer_key,
    answer_of,
    chain,
    events,
    graph_name,
    load_answers,
    load_graph,
    request_of,
)

DRAIN_S = 5.0
# Set-up is repeated and its median reported, so that one slow set-up
# does not decide the metric.
SETUPS = 3


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Served:
    """One started service with its registered graphs and set-up times."""

    service: CliqueService
    port: int
    times: Dict[str, float]


async def connect(port: int) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    return await asyncio.open_connection("127.0.0.1", port, limit=MAX_LINE_BYTES)


async def exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: Dict[str, Any]
) -> Tuple[Dict[str, Any], float, int]:
    """Send one request line; return (response, latency ms, response bytes)."""
    line = json.dumps(request, separators=(",", ":")).encode() + b"\n"
    t0 = time.perf_counter()
    writer.write(line)
    await writer.drain()
    reply = await reader.readline()
    latency = (time.perf_counter() - t0) * 1000.0
    if not reply:
        raise ConnectionError("server closed the connection")
    return json.loads(reply), latency, len(reply)


async def close_clients(
    conns: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]
) -> None:
    for _, writer in conns:
        writer.close()
    for _, writer in conns:
        await writer.wait_closed()


async def drain_handlers() -> bool:
    """Wait until the server's connection handlers have finished.

    ``CliqueService.aclose()`` does not wait for them, and a handler
    still awaiting ``wait_closed()`` when the loop ends is cancelled
    with a logged ``CancelledError``. True once only this task is left.
    """
    me = asyncio.current_task()
    deadline = time.perf_counter() + DRAIN_S
    while time.perf_counter() < deadline:
        if all(t is me or t.done() for t in asyncio.all_tasks()):
            return True
        await asyncio.sleep(0.005)
    return False


async def shut(served: Served, conns: list, lifecycle: List[str]) -> None:
    await close_clients(conns)
    if not await drain_handlers():
        lifecycle.append("connection handlers still running after clients closed")
    await served.service.aclose()
    served.service.cache.clear()


async def set_up(workload: Any, fresh: bool) -> Served:
    """Generate the graphs, start the service, register, and warm up."""
    t0 = time.perf_counter()
    graphs = {
        graph_name(ds, sc): load_graph(ds, sc, fresh=fresh)
        for ds, sc in workload.graphs
    }
    t1 = time.perf_counter()
    service = CliqueService(
        workers=2, memory_budget_bytes=workload.memory_budget_bytes
    )
    _, port = await service.start("127.0.0.1", 0)
    for name, graph in graphs.items():
        service.registry.register(name, graph=graph)
    t2 = time.perf_counter()
    conn = await connect(port)
    for i, template in enumerate(workload.templates):
        response, _, _ = await exchange(*conn, dict(template, id=f"warm-{i}"))
        if not response.get("ok"):
            raise RuntimeError(f"warm-up request {template} failed: {response}")
    await close_clients([conn])
    t3 = time.perf_counter()
    times = {"generate_s": t1 - t0, "register_s": t2 - t1, "warmup_s": t3 - t2}
    return Served(service, port, times)


class ClosedLoop:
    """Two clients pulling events from one shared seeded trace."""

    def __init__(self, workload: Any, answers: Dict[str, Any], seed: int):
        self.workload = workload
        self.answers = answers
        self._events = events(workload, seed, answers.get("cycles", {}))
        self.trace: List[Dict[str, Any]] = []
        self.records: Dict[int, Dict[str, Any]] = {}
        self.cursor = 0
        self.inflight = 0
        self.mutating = False
        self.cond = asyncio.Condition()

    def event(self, index: int) -> Dict[str, Any]:
        while len(self.trace) <= index:
            self.trace.append(next(self._events))
        return self.trace[index]

    async def client(self, conn: Tuple[Any, Any], deadline: float) -> None:
        while True:
            async with self.cond:
                await self.cond.wait_for(lambda: not self.mutating)
                if time.perf_counter() >= deadline:
                    return
                index = self.cursor
                self.cursor += 1
                event = self.event(index)
                mutation = event["op"] == "mutate"
                if mutation:
                    self.mutating = True
                    await self.cond.wait_for(lambda: self.inflight == 0)
                else:
                    self.inflight += 1
            try:
                self.records[index] = await self.fire(conn, index, event)
            finally:
                async with self.cond:
                    if mutation:
                        self.mutating = False
                    else:
                        self.inflight -= 1
                    self.cond.notify_all()

    async def fire(
        self, conn: Tuple[Any, Any], index: int, event: Dict[str, Any]
    ) -> Dict[str, Any]:
        response, latency, nbytes = await exchange(
            *conn, dict(request_of(event), id=index)
        )
        return check(event, response, latency, nbytes, self.answers)

    async def run(self, port: int, seconds: float) -> float:
        conns = [await connect(port) for _ in range(2)]
        t0 = time.perf_counter()
        await asyncio.gather(*(self.client(c, t0 + seconds) for c in conns))
        wall = time.perf_counter() - t0
        await close_clients(conns)
        return wall


def check(
    event: Dict[str, Any],
    response: Dict[str, Any],
    latency: float,
    nbytes: int,
    answers: Dict[str, Any],
) -> Dict[str, Any]:
    """One completed operation, checked against its committed answer."""
    rec: Dict[str, Any] = {
        "op": event["op"],
        "graph": event["graph"],
        "latency_ms": latency,
        "bytes": nbytes,
        "ok": bool(response.get("ok")),
    }
    if not rec["ok"]:
        rec["error"] = response.get("error", {}).get("code", "?")
        return rec
    result = response["result"]
    rec["version"] = result.get("version")
    if event["op"] == "mutate":
        rec["ok"] = (
            result["version"] == event["expect_version"]
            and result["applied"] == len(event["batch"])
        )
        return rec
    rec.update(
        k=event["k"],
        wall_ms=result["wall_ms"],
        engine=result.get("engine"),
        coalesced=bool(result.get("coalesced")),
        work=result.get("work", 0.0),
        predicted_work=result.get("predicted_work", 0.0),
        answer=answer_of(event["op"], result),
        expected=answers["answers"][answer_key(event)],
    )
    rec["ok"] = (
        rec["answer"] == rec["expected"]
        and rec["version"] == event["expect_version"]
    )
    return rec


def answer_checksums(
    trace: List[Dict[str, Any]],
    records: Dict[int, Dict[str, Any]],
    answers: Dict[str, Any],
) -> Tuple[int, int]:
    """(observed, expected) answer CRCs over the completed trace prefix."""
    seen = expected = 0
    for index in sorted(records):
        event, rec = trace[index], records[index]
        if event["op"] == "mutate":
            continue
        op, g, k = event["op"], event["graph"], event["k"]
        truth = answers["answers"][answer_key(event)]
        expected = chain(expected, op, g, event["expect_version"], k, truth)
        seen = chain(seen, op, g, rec.get("version"), k, rec.get("answer"))
    return seen, expected


def path_violations(
    workload: Any, loop: ClosedLoop, misses: float, resident_peak: float
) -> List[str]:
    """Breaks of the path each workload is meant to stay on."""
    out = []
    engines = {
        r.get("engine") for r in loop.records.values() if r["op"] == "count"
    }
    if workload.memory_budget_bytes is not None:
        if engines != {"sharded"}:
            out.append(f"counts resolved to {sorted(map(str, engines))}, not sharded")
        if resident_peak > workload.memory_budget_bytes:
            out.append(f"resident shard peak {resident_peak} B over the budget")
    elif not workload.churn:
        if engines != {"frontier"}:
            out.append(f"counts resolved to {sorted(map(str, engines))}, not frontier")
        if misses:
            out.append(f"{misses:g} prepared piece misses in the timed phase")
    else:
        last: Dict[str, int] = {}
        for index in sorted(loop.records):
            rec = loop.records[index]
            if rec["op"] == "mutate" and rec.get("version") is not None:
                if rec["version"] <= last.get(rec["graph"], 0):
                    out.append(f"version of {rec['graph']} did not increase")
                last[rec["graph"]] = rec["version"]
    return out


def end_to_end(
    loop: ClosedLoop, wall: float, setup_s: float
) -> Tuple[Dict[str, Tuple[float, str]], int, int]:
    records = list(loop.records.values())
    queries = [r for r in records if r["op"] != "mutate"]
    failed = sum(not r["ok"] for r in records)
    # A failed, refused or wrong query counts as infinitely slow.
    latencies = [r["latency_ms"] if r["ok"] else math.inf for r in queries]
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_qps": (len(queries) / wall, "1/s"),
        "query_p50_ms": (percentile(latencies, 0.50), "ms"),
        "query_p95_ms": (percentile(latencies, 0.95), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "ok_rate": (1.0 - failed / len(records), "fraction"),
    }
    return metrics, len(records), failed


def metric_counter(service: Any, name: str, field: str = "value") -> float:
    inst = service.metrics.to_dict().get(name)
    return float(inst[field]) if inst else 0.0


async def run(
    args: Any, process_start: float, lifecycle: List[str]
) -> Dict[str, Any]:
    """Set up, run the timed closed loop, check it, and (traced) the layers."""
    workload = WORKLOADS[args.workload]
    answers = load_answers(workload)
    import_s = time.perf_counter() - process_start

    setups: List[Dict[str, float]] = []
    for _ in range(SETUPS - 1):
        # Only the times are kept: a discarded service must not hold
        # its graphs and tables through the timed phase.
        discarded = await set_up(workload, fresh=True)
        setups.append(discarded.times)
        await shut(discarded, [], lifecycle)
        del discarded
        gc.collect()
    live = await set_up(workload, fresh=True)
    setups.append(live.times)
    setup_s = import_s + statistics.median(sum(t.values()) for t in setups)
    service = live.service

    stats_before = await service_stats(live.port) if args.trace else {}
    misses_before = metric_counter(service, "prepared.piece.miss")
    loop = ClosedLoop(workload, answers, args.seed)
    gc.collect()
    wall = await loop.run(live.port, args.seconds)
    misses = metric_counter(service, "prepared.piece.miss") - misses_before
    resident_peak = metric_counter(service, "shard.bytes.resident_peak", "max")
    stats_after = await service_stats(live.port) if args.trace else {}
    graph_bytes = metric_counter(service, "prepared.graph.bytes")
    await shut(live, [], lifecycle)

    metrics, attempted, failed = end_to_end(loop, wall, setup_s)
    seen, expected = answer_checksums(loop.trace, loop.records, answers)
    problems = path_violations(workload, loop, misses, resident_peak)
    if seen != expected:
        problems.append(f"answer checksum {seen:#010x} != expected {expected:#010x}")
    report = {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "checksum": seen,
    }
    if args.trace:
        import traced

        report["metrics"], t_attempted, t_failed, t_problems = await traced.per_layer(
            workload,
            answers,
            loop,
            {
                "setup": setups,
                "stats": (stats_before, stats_after),
                "misses": misses,
                "graph_bytes": graph_bytes,
            },
            lifecycle,
        )
        report["attempted"] += t_attempted
        report["failed"] += t_failed
        problems.extend(t_problems)
    return report


async def service_stats(port: int) -> Dict[str, float]:
    conn = await connect(port)
    response, _, _ = await exchange(*conn, {"op": "stats", "id": "stats"})
    await close_clients([conn])
    return response["result"]["service"]
