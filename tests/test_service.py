"""The clique query service: daemon, coalescing, admission, transport.

Most tests drive the in-process :class:`~repro.service.ServiceClient`
(the full request path minus sockets); the transport tests run a real
``asyncio.start_server`` daemon on an ephemeral port. Each test owns its
event loop via ``asyncio.run`` — no async test plugin needed.
"""

from __future__ import annotations

import asyncio
import logging
import threading

import pytest

from repro.core.api import count_cliques, list_cliques
from repro.core.existence import clique_spectrum
from repro.graphs import gnm_random_graph
from repro.service import (
    AdmissionController,
    CliqueService,
    QueryClient,
    QueryEstimate,
    ServiceClient,
    ServiceError,
    estimate_query,
)

EDGES = [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3], [3, 4], [2, 4]]


def run(coro):
    return asyncio.run(coro)


async def _service(**kwargs):
    svc = CliqueService(**kwargs)
    return svc, ServiceClient(svc)


class TestEndpoints:
    def test_register_and_count_matches_library(self):
        async def flow():
            svc, cl = await _service()
            info = await cl.register("g", edges=EDGES)
            assert info["n"] == 5 and info["m"] == len(EDGES)
            result = await cl.count("g", k=3)
            await svc.aclose()
            return result

        result = run(flow())
        graph = gnm_from_edges()
        assert result["count"] == count_cliques(graph, 3).count
        assert result["version"] == 0
        assert result["coalesced"] is False

    def test_list_find_spectrum(self):
        async def flow():
            svc, cl = await _service()
            await cl.register("g", edges=EDGES)
            listed = await cl.list_cliques("g", k=3)
            limited = await cl.list_cliques("g", k=3, limit=1)
            found = await cl.find("g", k=4)
            spectrum = await cl.spectrum("g")
            await svc.aclose()
            return listed, limited, found, spectrum

        listed, limited, found, spectrum = run(flow())
        graph = gnm_from_edges()
        oracle = [list(c) for c in list_cliques(graph, 3, engine="reference")]
        assert listed["cliques"] == oracle
        assert not listed["truncated"]
        assert limited["truncated"] and len(limited["cliques"]) == 1
        assert limited["count"] == len(oracle)  # limit trims, count stays
        assert found["found"] is False and found["witness"] is None
        oracle_spec = clique_spectrum(graph)
        assert {int(k): v for k, v in spectrum["spectrum"].items()} == (
            oracle_spec
        )

    def test_register_conflicts_and_unknown_graph(self):
        async def flow():
            svc, cl = await _service()
            await cl.register("g", edges=EDGES)
            with pytest.raises(ServiceError) as dup:
                await cl.register("g", edges=EDGES)
            with pytest.raises(ServiceError) as unknown:
                await cl.count("nope", k=3)
            gone = await cl.request("unregister", name="g")
            with pytest.raises(ServiceError) as after:
                await cl.count("g", k=3)
            await svc.aclose()
            return dup.value, unknown.value, gone, after.value

        dup, unknown, gone, after = run(flow())
        assert dup.code == "graph-exists"
        assert unknown.code == "unknown-graph"
        assert gone["removed"] is True
        assert after.code == "unknown-graph"

    def test_bad_requests(self):
        async def flow():
            svc, cl = await _service()
            await cl.register("g", edges=EDGES)
            errors = {}
            for name, req in {
                "no-op": {},
                "bad-op": {"op": "frobnicate"},
                "bad-k": {"op": "count", "graph": "g", "k": "three"},
                "neg-k": {"op": "count", "graph": "g", "k": 0},
                "bad-variant": {
                    "op": "count", "graph": "g", "k": 3, "variant": "fastest",
                },
                "bad-batch": {
                    "op": "mutate", "graph": "g", "mutation": "insert",
                    "batch": ["oops"],
                },
                "removed-engine": {
                    "op": "count", "graph": "g", "k": 4, "engine": "process",
                },
                "removed-list-engine": {
                    "op": "list", "graph": "g", "k": 4, "engine": "bitset",
                },
            }.items():
                response = await svc.handle(req)
                assert response["ok"] is False
                errors[name] = response["error"]["code"]
            await svc.aclose()
            return errors

        errors = run(flow())
        assert errors["no-op"] == "bad-request"
        assert errors["bad-op"] == "unknown-op"
        assert errors["bad-k"] == "bad-request"
        assert errors["neg-k"] == "bad-request"
        assert errors["bad-variant"] == "bad-request"
        assert errors["bad-batch"] == "bad-request"
        assert errors["removed-engine"] == "bad-request"
        assert errors["removed-list-engine"] == "bad-request"

    def test_stats_and_ping(self):
        async def flow():
            svc, cl = await _service()
            await cl.register("g", edges=EDGES)
            await cl.count("g", k=3)
            pong = await cl.request("ping")
            stats = await cl.stats()
            await svc.aclose()
            return pong, stats

        pong, stats = run(flow())
        assert pong["pong"] is True
        assert stats["service"]["service.engine_runs"] == 1.0
        assert stats["service"]["service.op.count"] == 1.0
        assert stats["admission"]["inflight_queries"] == 0
        assert stats["graphs"][0]["name"] == "g"


class TestCoalescing:
    def test_fifty_identical_queries_one_engine_run(self):
        async def flow():
            svc, cl = await _service()
            await cl.register("g", edges=EDGES)
            results = await asyncio.gather(
                *[cl.count("g", k=3) for _ in range(50)]
            )
            stats = await cl.stats()
            await svc.aclose()
            return results, stats["service"]

        results, counters = run(flow())
        expected = count_cliques(gnm_from_edges(), 3).count
        assert [r["count"] for r in results] == [expected] * 50
        assert counters["service.engine_runs"] == 1.0
        assert counters["service.coalesced"] >= 49.0
        assert sum(1 for r in results if not r["coalesced"]) == 1

    def test_different_queries_do_not_coalesce(self):
        async def flow():
            svc, cl = await _service()
            await cl.register("g", edges=EDGES)
            await asyncio.gather(
                cl.count("g", k=3), cl.count("g", k=4), cl.find("g", k=3)
            )
            stats = await cl.stats()
            await svc.aclose()
            return stats["service"]

        counters = run(flow())
        assert counters["service.engine_runs"] == 3.0
        assert counters.get("service.coalesced", 0.0) == 0.0

    def test_coalesced_error_fans_out_and_flight_clears(self):
        async def flow():
            svc, cl = await _service(max_query_work=1e-9)
            await cl.register("g", edges=EDGES)
            results = await asyncio.gather(
                *[cl.count("g", k=3) for _ in range(5)],
                return_exceptions=True,
            )
            assert svc._flights == {}  # failed flight was popped
            await svc.aclose()
            return results

        results = run(flow())
        assert all(isinstance(r, ServiceError) for r in results)
        assert all(r.code == "over-budget" for r in results)


class TestAdmission:
    def test_over_budget_rejection_carries_estimate(self):
        async def flow():
            svc, cl = await _service(max_query_work=1.0)
            await cl.register("g", edges=EDGES)
            with pytest.raises(ServiceError) as exc:
                await cl.count("g", k=3)
            stats = await cl.stats()
            await svc.aclose()
            return exc.value, stats["service"]

        err, counters = run(flow())
        assert err.code == "over-budget"
        assert err.details["predicted_work"] > 1.0
        assert err.details["max_query_work"] == 1.0
        assert "formula" in err.details
        assert counters["service.rejected"] == 1.0
        assert counters.get("service.engine_runs", 0.0) == 0.0

    def test_tiny_budget_rejects_every_query_as_counted_error(self):
        async def flow():
            svc, cl = await _service(max_query_work=1e-9)
            await cl.register("g", edges=EDGES)
            requests = [
                {"op": "count", "k": 3}, {"op": "count", "k": 4},
                {"op": "list", "k": 3}, {"op": "find", "k": 3},
                {"op": "spectrum"}, {"op": "spectrum", "k_max": 4},
            ]
            replies = [await svc.handle({"graph": "g", **r}) for r in requests]
            stats = await cl.stats()
            await svc.aclose()
            return replies, stats["service"]

        replies, counters = run(flow())
        assert [r["ok"] for r in replies] == [False] * 6
        assert {r["error"]["code"] for r in replies} == {"over-budget"}
        assert counters["service.rejected"] == 6
        assert counters["service.errors"] == 6
        assert counters.get("service.engine_runs", 0) == 0

    def test_cheap_query_admitted_under_budget(self):
        async def flow():
            svc, cl = await _service(max_query_work=1e12)
            await cl.register("g", edges=EDGES)
            result = await cl.count("g", k=3)
            await svc.aclose()
            return result

        result = run(flow())
        assert result["count"] == count_cliques(gnm_from_edges(), 3).count
        assert 0 < result["predicted_work"] < 1e12

    def test_inflight_budget_queues_then_admits(self):
        async def flow():
            ctrl = AdmissionController(
                max_inflight_work=10.0, queue_limit=4
            )
            big = QueryEstimate(work=8.0, depth=1.0, formula="t")
            small = QueryEstimate(work=5.0, depth=1.0, formula="t")
            release = asyncio.Event()
            order = []

            async def holder():
                async with ctrl.admit(big, "holder"):
                    order.append("holder-in")
                    await release.wait()
                order.append("holder-out")

            async def waiter():
                async with ctrl.admit(small, "waiter"):
                    order.append("waiter-in")

            h = asyncio.ensure_future(holder())
            await asyncio.sleep(0)
            assert ctrl.inflight_work == 8.0
            w = asyncio.ensure_future(waiter())
            await asyncio.sleep(0.01)
            assert ctrl.queued == 1  # 8 + 5 > 10: waiter parked
            release.set()
            await asyncio.gather(h, w)
            assert order == ["holder-in", "holder-out", "waiter-in"]
            assert ctrl.inflight_work == 0.0 and ctrl.queued == 0

        run(flow())

    def test_queue_full_rejects(self):
        async def flow():
            ctrl = AdmissionController(max_inflight_work=10.0, queue_limit=0)
            est = QueryEstimate(work=8.0, depth=1.0, formula="t")
            release = asyncio.Event()

            async def holder():
                async with ctrl.admit(est, "holder"):
                    await release.wait()

            h = asyncio.ensure_future(holder())
            await asyncio.sleep(0)
            with pytest.raises(ServiceError) as exc:
                async with ctrl.admit(est, "second"):
                    pass
            release.set()
            await h
            return exc.value

        err = run(flow())
        assert err.code == "queue-full"
        assert err.details["predicted_work"] == 8.0

    def test_oversized_query_admitted_on_empty_pool(self):
        """A query above the global budget must not deadlock when alone."""

        async def flow():
            ctrl = AdmissionController(max_inflight_work=1.0)
            est = QueryEstimate(work=50.0, depth=1.0, formula="t")
            async with ctrl.admit(est, "solo"):
                assert ctrl.inflight_queries == 1
            assert ctrl.inflight_work == 0.0

        run(flow())

    def test_estimate_query_shapes(self):
        cheap = estimate_query("count", n=100, m=400, degeneracy=6, k=2)
        assert cheap.work == 500.0
        impossible = estimate_query("count", n=100, m=400, degeneracy=6, k=9)
        assert "no witness" in impossible.formula
        cold = estimate_query("count", n=100, m=400, degeneracy=6, k=4)
        warm = estimate_query(
            "count", n=100, m=400, degeneracy=6, k=4, warm=True
        )
        assert warm.work < cold.work  # warmth waives the m·s prep term
        tight = estimate_query(
            "count", n=100, m=400, degeneracy=6, gamma=3, k=4
        )
        assert tight.work <= cold.work  # γ ≤ s tightens the branch base
        spectrum = estimate_query("spectrum", n=100, m=400, degeneracy=6)
        assert spectrum.work > cold.work
        with pytest.raises(ValueError):
            estimate_query("count", n=10, m=20, degeneracy=3)


class TestMutationRaces:
    def test_mutation_racing_queries_keeps_versions_consistent(self):
        async def flow():
            svc, cl = await _service()
            await cl.register("g", edges=EDGES)
            before = await cl.count("g", k=4)
            mixed = await asyncio.gather(
                *[cl.count("g", k=4) for _ in range(8)],
                cl.mutate("g", "insert", [[0, 3]]),
                *[cl.count("g", k=4) for _ in range(8)],
            )
            after = await cl.count("g", k=4)
            stats = await cl.stats()
            await svc.aclose()
            counts = [r for r in mixed if "mutation" not in r and "k" in r]
            return before, counts, after, stats["service"]

        before, counts, after, counters = run(flow())
        g0 = gnm_from_edges()
        g1 = gnm_from_edges(extra=[[0, 3]])
        c0 = count_cliques(g0, 4).count
        c1 = count_cliques(g1, 4).count
        assert c0 != c1  # the mutation closes a 4-clique
        assert before["count"] == c0 and before["version"] == 0
        assert after["count"] == c1 and after["version"] == 1
        # Every racing query got the count of the snapshot its version
        # token names — the versioned coalescing key never mixed them.
        by_version = {0: c0, 1: c1}
        for r in counts:
            assert r["count"] == by_version[r["version"]]
        assert counters["service.mutations"] == 1.0

    def test_reregistered_name_never_joins_the_old_flight(self):
        # Re-registering a name restarts its version at 0, so a key of
        # (name, version) would hand the old graph's answer to the new one.
        from repro.graphs import complete_graph

        old, new = complete_graph(30), complete_graph(8)

        async def flow():
            svc = CliqueService(workers=2)
            svc.registry.register("g", graph=old)
            first = asyncio.ensure_future(
                svc.handle({"op": "count", "graph": "g", "k": 6})
            )
            await asyncio.sleep(0)  # the old flight is now running
            await svc.handle({"op": "unregister", "name": "g"})
            svc.registry.register("g", graph=new)
            second = await svc.handle({"op": "count", "graph": "g", "k": 6})
            first = await first
            await svc.aclose()
            return first["result"], second["result"]

        first, second = run(flow())
        assert first["count"] == count_cliques(old, 6).count
        assert second["count"] == count_cliques(new, 6).count
        assert second["version"] == 0 and not second["coalesced"]

    def test_warm_flag_names_the_context_the_run_got(self):
        # A cache entry dropped between admission and the run (what a
        # mutation does to the superseded snapshot) forces a cold build;
        # the reply and service.warm_hit must say so.
        async def flow():
            svc, cl = await _service()
            await cl.register("g", edges=EDGES)
            first = await cl.count("g", k=4)
            graph = svc.registry.get("g").graph
            offload = svc._offload

            async def invalidate_then_run(fn):
                svc.cache.invalidate(graph)
                return await offload(fn)

            svc._offload = invalidate_then_run
            second = await cl.count("g", k=3)
            stats = await cl.stats()
            await svc.aclose()
            return first, second, stats["service"]

        first, second, counters = run(flow())
        assert first["warm"] is True
        assert second["warm"] is False
        assert counters["service.warm_hit"] == 1.0

    def test_mutations_are_serialized_per_graph(self):
        async def flow():
            svc, cl = await _service()
            await cl.register("g", edges=EDGES)
            results = await asyncio.gather(
                cl.mutate("g", "insert", [[0, 3]]),
                cl.mutate("g", "insert", [[0, 4]]),
                cl.mutate("g", "delete", [[0, 1]]),
            )
            info = await cl.request("graphs")
            await svc.aclose()
            return results, info

        results, info = run(flow())
        assert sorted(r["version"] for r in results) == [1, 2, 3]
        assert info["graphs"][0]["version"] == 3
        assert info["graphs"][0]["m"] == len(EDGES) + 2 - 1

    def test_mutation_error_surfaces(self):
        async def flow():
            svc, cl = await _service()
            await cl.register("g", edges=EDGES)
            with pytest.raises(ServiceError) as exc:
                await cl.mutate("g", "insert", [[0, 1]])  # already present
            await svc.aclose()
            return exc.value

        err = run(flow())
        assert err.code == "mutation-error"
        assert "existing edge" in err.message

    def test_stats_report_dynamic_counters_after_mutate(self):
        async def flow():
            svc, cl = await _service()
            await cl.register("g", edges=EDGES)
            await cl.count("g", k=4)  # builds the pieces a mutation patches
            before = await cl.stats()
            await cl.mutate("g", "insert", [[0, 3]])
            after = await cl.stats()
            await svc.aclose()
            return before["dynamic"], after["dynamic"]

        before, after = run(flow())
        assert before == {}
        assert after["dynamic.mutations"] == 1
        # The count built order, DAG, triangles and tables: the order is
        # carried, the other three are patched, nothing is rebuilt.
        assert after["dynamic.carried_pieces"] == 1
        assert after["dynamic.patched_pieces"] == 3
        assert after["dynamic.rebuilt_pieces"] == 0
        assert after["dynamic.invalidated_pieces"] == 0


class TestSpectrumSizes:
    def test_patched_context_lists_the_same_sizes_as_a_cold_call(self):
        # Deletions leave the patched context carrying an order whose
        # max out-degree exceeds the new degeneracy; a spectrum without
        # k_max must still list exactly the sizes 1..ω.
        from repro.bench.datasets import load_dataset
        from repro.dynamic.graph import random_trace

        graph = load_dataset("sbm-community", scale=0.5)
        trace = random_trace(graph, batches=6, batch_size=40, seed=1,
                             p_insert=0.0)
        assert len(trace) == 6

        async def flow():
            svc = CliqueService(workers=2)
            svc.registry.register("g", graph=graph)
            cl = ServiceClient(svc)
            await cl.spectrum("g")  # warm: later batches patch this context
            for step in trace:
                await cl.mutate("g", step["op"], step["batch"])
            warm = await cl.spectrum("g")
            final = svc.registry.get("g").graph
            await svc.aclose()
            return warm, final

        warm, final = run(flow())
        assert warm["warm"] is True
        cold = clique_spectrum(final)
        got = {int(k): v for k, v in warm["spectrum"].items()}
        assert got == cold
        assert all(c > 0 for c in cold.values())


class TestTransport:
    def test_tcp_roundtrip_with_blocking_client(self):
        async def flow():
            svc = CliqueService()
            host, port = await svc.start("127.0.0.1", 0)
            loop = asyncio.get_event_loop()

            def client_session():
                with QueryClient(host, port, timeout=10.0) as client:
                    client.ping()
                    client.register("g", edges=EDGES)
                    out = {
                        "count": client.count("g", k=3),
                        "graphs": client.graphs(),
                        "stats": client.stats(),
                    }
                    try:
                        client.count("missing", k=3)
                    except ServiceError as exc:
                        out["err"] = exc.code
                    return out

            out = await loop.run_in_executor(None, client_session)
            await svc.aclose()
            return out

        out = run(flow())
        expected = count_cliques(gnm_from_edges(), 3).count
        assert out["count"]["count"] == expected
        assert out["graphs"]["graphs"][0]["name"] == "g"
        assert out["err"] == "unknown-graph"
        assert out["stats"]["service"]["service.requests"] >= 5

    def test_pipelined_requests_one_connection(self):
        async def flow():
            svc = CliqueService()
            svc.registry.register("g", edges=EDGES)
            host, port = await svc.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            # Fire many requests without reading; responses may arrive
            # in any order, matched back by id.
            n = 12
            for i in range(n):
                writer.write(
                    (
                        '{"op": "count", "graph": "g", "k": 3, "id": %d}\n'
                        % i
                    ).encode()
                )
            await writer.drain()
            import json

            got = {}
            for _ in range(n):
                line = await reader.readline()
                response = json.loads(line)
                got[response["id"]] = response
            writer.close()
            await svc.aclose()
            return got

        got = run(flow())
        expected = count_cliques(gnm_from_edges(), 3).count
        assert sorted(got) == list(range(12))
        assert all(r["ok"] and r["result"]["count"] == expected
                   for r in got.values())

    def test_garbage_line_gets_protocol_error(self):
        async def flow():
            svc = CliqueService()
            host, port = await svc.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            writer.write(b'[1, 2, 3]\n')
            await writer.drain()
            import json

            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            writer.close()
            await svc.aclose()
            return first, second

        first, second = run(flow())
        assert first["ok"] is False and first["error"]["code"] == "protocol"
        assert second["ok"] is False and second["error"]["code"] == "protocol"

    def test_shutdown_request_stops_run_loop(self):
        async def flow():
            svc = CliqueService()
            started = asyncio.Event()
            bound = {}

            def ready(host, port):
                bound["addr"] = (host, port)
                started.set()

            server = asyncio.ensure_future(svc.run("127.0.0.1", 0, ready))
            await started.wait()
            host, port = bound["addr"]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "shutdown", "id": 1}\n')
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await asyncio.wait_for(server, timeout=10.0)
            return line

        line = run(flow())
        assert b'"stopping":true' in line.replace(b" ", b"")

    def test_aclose_waits_for_open_connections(self, caplog):
        async def flow():
            svc = CliqueService()
            host, port = await svc.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "ping", "id": 1}\n')
            await writer.drain()
            pong = await reader.readline()
            await svc.aclose()  # the client is still connected
            others = [
                t for t in asyncio.all_tasks() if t is not asyncio.current_task()
            ]
            eof = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            await writer.wait_closed()
            return pong, others, eof

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            pong, others, eof = run(flow())
        assert b'"ok":true' in pong.replace(b" ", b"")
        assert others == []
        assert eof == b""
        assert [r.getMessage() for r in caplog.records] == []


def gnm_from_edges(extra=()):
    """The test graph as a CSRGraph (library-oracle side)."""
    from repro.graphs import from_edges

    return from_edges([tuple(e) for e in EDGES] + [tuple(e) for e in extra])


class TestThreadedClients:
    def test_many_threads_hammer_tcp(self):
        """Blocking clients on real threads against one daemon."""

        from concurrent.futures import ThreadPoolExecutor

        async def flow():
            svc = CliqueService()
            svc.registry.register("g", edges=EDGES)
            host, port = await svc.start("127.0.0.1", 0)
            loop = asyncio.get_event_loop()
            barrier = threading.Barrier(8)

            def session(i):
                barrier.wait()
                with QueryClient(host, port, timeout=10.0) as client:
                    return [
                        client.count("g", k=3)["count"] for _ in range(5)
                    ]

            # A dedicated pool: the loop's default executor may have
            # fewer than 8 threads, which would starve the barrier.
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = await asyncio.gather(
                    *[loop.run_in_executor(pool, session, i) for i in range(8)]
                )
            await svc.aclose()
            return results

        results = run(flow())
        expected = count_cliques(gnm_from_edges(), 3).count
        assert all(c == expected for batch in results for c in batch)
