"""The dynamic mutation layer: deltas, patch-in-place, and the wrapper.

Tentpole contract: after any batch of edge inserts/deletes the
incrementally maintained counts/listings, the patched warm context, and
a recompute-from-scratch on the new snapshot are indistinguishable —
while the tracked work of the incremental path stays measurably below a
cold recount.
"""

import numpy as np
import pytest

from repro.core.api import count_cliques, list_cliques
from repro.core.frontier import frontier_count_cliques
from repro.core.prepared import (
    PreparedCache,
    PreparedGraph,
    clear_prepared_cache,
    prepare,
    prepared_cache_info,
)
from repro.dynamic import (
    DynamicGraph,
    MutationError,
    VerificationError,
    cliques_through_edges,
    count_delta,
    patch_prepared,
    random_trace,
    replay_trace,
)
from repro.dynamic import patch as patch_mod
from repro.graphs import from_edges, gnm_random_graph
from repro.graphs.builder import complete_graph
from repro.graphs.generators import plant_cliques
from repro.obs import MetricsRegistry
from repro.pram.tracker import Tracker


def rich_graph(seed=3):
    g = gnm_random_graph(40, 180, seed=seed)
    g, _ = plant_cliques(g, [7, 6], seed=seed)
    return g


def scratch_count(graph, k):
    return frontier_count_cliques(graph, k, prepared=PreparedGraph(graph))


class TestBatchValidation:
    def g(self):
        return from_edges(np.asarray([[0, 1], [1, 2], [0, 2]]), num_vertices=4)

    def test_insert_existing_edge_rejected(self):
        with pytest.raises(MutationError, match="existing"):
            DynamicGraph(self.g()).insert_edges([(0, 1)])

    def test_delete_missing_edge_rejected(self):
        with pytest.raises(MutationError, match="missing"):
            DynamicGraph(self.g()).delete_edges([(0, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(MutationError, match="self-loop"):
            DynamicGraph(self.g()).insert_edges([(2, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(MutationError, match="out of range"):
            DynamicGraph(self.g()).insert_edges([(0, 9)])

    def test_duplicate_in_batch_rejected(self):
        with pytest.raises(MutationError, match="duplicate"):
            DynamicGraph(self.g()).insert_edges([(0, 3), (3, 0)])

    def test_failed_batch_leaves_state_untouched(self):
        dyn = DynamicGraph(self.g())
        dyn.count(3)
        with pytest.raises(MutationError):
            dyn.delete_edges([(0, 1), (0, 3)])
        assert dyn.version == 0
        assert dyn.has_edge(0, 1)
        assert dyn.count(3) == 1

    def test_empty_batch_is_a_noop(self):
        dyn = DynamicGraph(self.g())
        record = dyn.insert_edges([])
        assert record.batch == () and dyn.version == 0


class TestIncrementalEqualsScratch:
    def test_mixed_trace_all_ks(self):
        g = rich_graph()
        dyn = DynamicGraph(g, verify=True)
        for k in (3, 4, 5):
            dyn.count(k)
        dyn.cliques(4)
        trace = random_trace(g, batches=5, batch_size=4, seed=11)
        dyn.apply_trace(trace)
        assert dyn.version == len(trace)
        for k in (3, 4, 5):
            assert dyn.count(k) == scratch_count(dyn.graph, k)
        assert dyn.cliques(4) == list_cliques(
            dyn.graph, 4, prepared=PreparedGraph(dyn.graph)
        )

    def test_batch_equals_sequential_singles(self):
        g = rich_graph(seed=5)
        pairs = list(g.edges())
        batch = [pairs[0], pairs[7], pairs[19]]
        as_batch = DynamicGraph(g)
        as_batch.count(4)
        as_batch.delete_edges(batch)
        one_by_one = DynamicGraph(g)
        one_by_one.count(4)
        for pair in batch:
            one_by_one.delete_edges([pair])
        assert as_batch.count(4) == one_by_one.count(4)
        assert as_batch.graph == one_by_one.graph

    def test_insert_delete_round_trip(self):
        g = rich_graph(seed=7)
        dyn = DynamicGraph(g)
        before = {k: dyn.count(k) for k in (3, 4)}
        listing = dyn.cliques(4)
        batch = [(0, 39), (1, 38), (2, 37)]
        batch = [p for p in batch if not g.has_edge(*p)]
        dyn.insert_edges(batch)
        dyn.delete_edges(batch)
        assert {k: dyn.count(k) for k in (3, 4)} == before
        assert dyn.cliques(4) == listing
        assert dyn.graph == g

    def test_verification_gate_catches_a_corrupted_count(self):
        g = rich_graph(seed=9)
        dyn = DynamicGraph(g, verify=True)
        dyn.count(4)
        dyn._counts[4] += 1
        with pytest.raises(VerificationError, match="incremental count"):
            dyn.delete_edges([next(iter(g.edges()))])


class TestDeltaEngine:
    def test_signs_and_union_semantics(self):
        g = rich_graph(seed=2)
        us, vs = g.edge_array()
        batch = [(int(us[i]), int(vs[i])) for i in (0, 3, 7)]
        kept = [
            (int(u), int(v))
            for u, v in zip(us, vs)
            if (int(u), int(v)) not in set(batch)
        ]
        smaller = from_edges(
            np.asarray(kept, dtype=np.int64), num_vertices=g.num_vertices
        )
        deltas = count_delta(g, smaller, "delete", batch, ks=(3, 4))
        for k in (3, 4):
            assert deltas[k].count == scratch_count(smaller, k) - scratch_count(
                g, k
            )
        back = count_delta(smaller, g, "insert", batch, ks=(3, 4))
        for k in (3, 4):
            assert back[k].count == -deltas[k].count

    def test_k1_and_k2_closed_forms(self):
        g = rich_graph(seed=4)
        us, vs = g.edge_array()
        batch = [(int(us[0]), int(vs[0])), (int(us[5]), int(vs[5]))]
        res = cliques_through_edges(g, batch, 1)
        assert res.count == 0
        res = cliques_through_edges(g, batch, 2, collect=True)
        assert res.count == 2 and res.cliques == sorted(batch)

    def test_collected_cliques_contain_a_batch_edge(self):
        g = rich_graph(seed=6)
        us, vs = g.edge_array()
        batch = [(int(us[i]), int(vs[i])) for i in range(4)]
        res = cliques_through_edges(g, batch, 4, collect=True)
        assert res.count == len(res.cliques)
        batch_set = set(batch)
        for c in res.cliques:
            members = set(c)
            assert any(u in members and v in members for u, v in batch_set)
        assert res.cliques == sorted(res.cliques)
        assert len(set(res.cliques)) == len(res.cliques)


class TestPatchInPlace:
    def warm_context(self, g):
        ctx = PreparedGraph(g)
        frontier_count_cliques(g, 4, prepared=ctx)  # builds through tables
        ctx.communities()  # the frontier path no longer builds them
        ctx.edge_order("exact")
        ctx.kernel(4)
        return ctx

    def test_patched_context_counts_exactly(self):
        g = rich_graph(seed=8)
        ctx = self.warm_context(g)
        us, vs = g.edge_array()
        batch = [(int(us[i]), int(vs[i])) for i in (1, 4)]
        kept = [
            (int(u), int(v))
            for u, v in zip(us, vs)
            if (int(u), int(v)) not in set(batch)
        ]
        new_g = from_edges(
            np.asarray(kept, dtype=np.int64), num_vertices=g.num_vertices
        )
        patched, report = patch_prepared(ctx, new_g, "delete", batch)
        for k in (3, 4, 5):
            assert (
                frontier_count_cliques(new_g, k, prepared=patched)
                == scratch_count(new_g, k)
            )

    def test_report_accounts_every_piece(self):
        g = rich_graph(seed=10)
        ctx = self.warm_context(g)
        batch = [(0, 1)] if g.has_edge(0, 1) else [next(iter(g.edges()))]
        kept = [p for p in g.edges() if p != batch[0]]
        new_g = from_edges(
            np.asarray(kept, dtype=np.int64), num_vertices=g.num_vertices
        )
        _, report = patch_prepared(ctx, new_g, "delete", batch)
        # Warm pieces: order/dag/triangles/communities/frontier_tables for
        # the degeneracy variant plus one edge order and one kernel.
        assert report.detail == {
            "order/degeneracy": "carried",
            "dag/degeneracy": "patched",
            "triangles/degeneracy": "patched",
            "communities/degeneracy": "invalidated",
            "frontier_tables/degeneracy": "patched",
            "edge_order/exact": "invalidated",
            "kernel/4": "invalidated",
        }
        assert (report.carried, report.patched, report.rebuilt) == (1, 3, 0)
        assert report.invalidated == 3
        assert report.total == len(report.detail)
        assert report.patched_ratio == 4 / 7

    def test_unlimited_and_budgeted_shard_plans_both_invalidate(self):
        # An unlimited plan is keyed by budget None; beside an int budget
        # the keys cannot be compared, which once crashed the mutation.
        g = rich_graph(seed=16)
        dyn = DynamicGraph(g)
        for budget in (None, 4096):
            dyn.prepared.sharded_tables(memory_budget_bytes=budget)
        dyn.delete_edges([next(iter(g.edges()))])
        for budget in (None, 4096):
            key = f"sharded_tables/('degeneracy', {budget})"
            assert dyn.last_report.detail[key] == "invalidated"

    def test_patched_triangles_match_a_cold_rebuild(self):
        g = rich_graph(seed=12)
        trace = random_trace(g, batches=1, batch_size=5, seed=1)
        op = trace[0]["op"]
        batch = [tuple(p) for p in trace[0]["batch"]]
        dyn = DynamicGraph(g)
        dyn.prepared.triangles()
        dyn._mutate(op, batch)
        patched = dyn.prepared.peek("triangles", "degeneracy")
        # The carried order makes rank ids stable, so a cold list on the
        # same orientation must be byte-identical.
        cold = PreparedGraph(dyn.graph)
        cold.install_piece("order", "degeneracy", dyn.prepared.peek("order", "degeneracy"))
        np.testing.assert_array_equal(patched, cold.triangles())

    def test_pack_limit_falls_back_to_invalidation(self, monkeypatch):
        g = rich_graph(seed=14)
        ctx = self.warm_context(g)
        monkeypatch.setattr(patch_mod, "PACK_LIMIT", 10)
        batch = [next(iter(g.edges()))]
        kept = [p for p in g.edges() if p != batch[0]]
        new_g = from_edges(
            np.asarray(kept, dtype=np.int64), num_vertices=g.num_vertices
        )
        patched, report = patch_prepared(ctx, new_g, "delete", batch)
        assert report.detail["triangles/degeneracy"] == "invalidated"
        # Correctness survives the fallback: pieces rebuild lazily.
        assert (
            frontier_count_cliques(new_g, 4, prepared=patched)
            == scratch_count(new_g, 4)
        )

    def test_vertex_count_change_rejected(self):
        g = rich_graph(seed=16)
        ctx = PreparedGraph(g)
        other = gnm_random_graph(10, 20, seed=0)
        with pytest.raises(ValueError, match="vertex set"):
            patch_prepared(ctx, other, "delete", [(0, 1)])


def _piece_arrays(ctx):
    """Every array of the DAG, triangle and table pieces, by name."""
    dag = ctx.peek("dag", "degeneracy")
    tables = ctx.peek("frontier_tables", "degeneracy")
    arrays = {
        name: getattr(dag, name)
        for name in (
            "out_indptr", "out_indices", "in_indptr", "in_indices",
            "original_ids",
        )
    }
    arrays["triangles"] = ctx.peek("triangles", "degeneracy")
    for name in ("rows", "rows_in", "complete"):
        arrays[name] = getattr(tables, name)
    return arrays


class TestSplice:
    """The DAG splice and the touched-source table patch on edge cases.

    Every DynamicGraph here runs with ``verify=True``, so each batch is
    also checked array by array against a rebuild under the carried
    order.
    """

    def warm(self, g):
        dyn = DynamicGraph(g, verify=True)
        dyn.count(4)  # order, DAG, triangles and tables
        return dyn

    def test_width_change_falls_back_to_a_full_build(self):
        # In K66 the rank-0 vertex has out-degree 65 (two words) and is
        # the only one; dropping one of its edges makes s~ 64 (one word).
        dyn = self.warm(complete_graph(66))
        dag = dyn.prepared.dag()
        assert (dag.max_out_degree, dyn.prepared.frontier_tables().width) == (
            65, 2
        )
        u, v = (int(x) for x in dag.original_ids[:2])
        dyn.delete_edges([(u, v)])
        assert dyn.last_report.detail["frontier_tables/degeneracy"] == "rebuilt"
        assert dyn.prepared.peek("frontier_tables", "degeneracy").width == 1
        dyn.insert_edges([(u, v)])
        assert dyn.last_report.detail["frontier_tables/degeneracy"] == "rebuilt"
        assert dyn.prepared.peek("frontier_tables", "degeneracy").width == 2
        assert dyn.count(4) == 720720  # C(66, 4)

    def test_batch_touching_no_triangle(self):
        # A triangle with a pendant path: the path edge is in no triangle,
        # and neither is a new edge between the path's far ends.
        g = from_edges(
            np.asarray([[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [5, 6]]),
            num_vertices=8,
        )
        dyn = DynamicGraph(g, verify=True)
        dyn.count(3)
        dyn.prepared.frontier_tables()
        for mutate, batch in (
            (dyn.delete_edges, [(3, 4)]), (dyn.insert_edges, [(4, 7), (6, 7)])
        ):
            mutate(batch)
            report = dyn.last_report
            assert report.affected_triangles == 0
            assert report.detail["frontier_tables/degeneracy"] == "patched"
        assert dyn.count(3) == 1

    def test_batch_edges_sharing_a_source(self):
        g = gnm_random_graph(40, 200, seed=4)
        dyn = self.warm(g)
        dag = dyn.prepared.dag()
        first = int(dag.original_ids[0])  # rank 0: every edge leaves it
        present = [int(dag.original_ids[v]) for v in dag.out_neighbors(0)]
        absent = [
            v for v in range(g.num_vertices)
            if v != first and not g.has_edge(first, v)
        ]
        assert len(present) >= 3 and len(absent) >= 3
        dyn.insert_edges([(first, v) for v in absent[:3]])
        assert dyn.last_report.detail["frontier_tables/degeneracy"] == "patched"
        dyn.delete_edges([(first, v) for v in present[:3]])
        assert dyn.last_report.detail["frontier_tables/degeneracy"] == "patched"
        assert dyn.count(4) == scratch_count(dyn.graph, 4)

    def test_splice_rejects_a_present_insert_and_a_missing_delete(self):
        dag = PreparedGraph(rich_graph(seed=36)).dag()
        us, vs = dag.edge_endpoints()
        u, v = (int(x) for x in dag.original_ids[[us[0], vs[0]]])
        with pytest.raises(ValueError, match="present"):
            dag.spliced(np.array([u]), np.array([v]), "insert")
        spliced = dag.spliced(np.array([u]), np.array([v]), "delete")
        with pytest.raises(ValueError, match="missing"):
            spliced.spliced(np.array([v]), np.array([u]), "delete")

    def test_insert_then_delete_restores_every_array(self):
        g = rich_graph(seed=30)
        dyn = self.warm(g)
        before = {
            name: (arr.dtype, arr.shape, arr.tobytes())
            for name, arr in _piece_arrays(dyn.prepared).items()
        }
        trace = random_trace(g, batches=1, batch_size=9, seed=5, p_insert=1.0)
        batch = [tuple(pair) for pair in trace[0]["batch"]]
        dyn.insert_edges(batch)
        assert dyn.last_report.affected_triangles > 0
        dyn.delete_edges(batch)
        after = {
            name: (arr.dtype, arr.shape, arr.tobytes())
            for name, arr in _piece_arrays(dyn.prepared).items()
        }
        assert after == before

    def test_count_after_mutation_builds_no_communities(self):
        g = rich_graph(seed=32)
        dyn = DynamicGraph(g)
        ctx = dyn.prepared
        count_cliques(g, 5, prepared=ctx)
        gamma = ctx.communities().max_size
        dyn.delete_edges([next(iter(g.edges()))])
        assert dyn.last_report.detail["communities/degeneracy"] == "invalidated"
        result = count_cliques(dyn.graph, 5, prepared=dyn.prepared)
        assert result.engine == "frontier"
        assert result.count == scratch_count(dyn.graph, 5)
        assert dyn.prepared.peek("communities", "degeneracy") is None
        # γ came from the tables, and equals the rebuilt communities'.
        assert result.gamma == dyn.prepared.communities().max_size
        assert result.gamma <= gamma

    def test_resident_execute_never_reads_communities(self, monkeypatch):
        g = rich_graph(seed=34)
        # k = 3 last: its count comes from the triangle rows alone, and
        # its γ from the tables the k = 4 count built.
        expected = {k: scratch_count(g, k) for k in (4, 5, 3)}
        listing = list_cliques(g, 4, engine="reference")

        def forbidden(*args, **kwargs):
            raise AssertionError("the resident plan read the communities")

        monkeypatch.setattr(PreparedGraph, "communities", forbidden)
        ctx = PreparedGraph(g)
        for k, want in expected.items():
            got = count_cliques(g, k, prepared=ctx, engine="frontier")
            assert (got.count, got.gamma) == (want, ctx.gamma())
        assert list_cliques(g, 4, prepared=ctx, engine="frontier") == listing


class TestMutationIsCheaperThanRecount:
    def test_tracked_work_beats_cold_recount(self):
        g = rich_graph(seed=20)
        tracker = Tracker()
        registry = MetricsRegistry()
        tracker.attach_metrics(registry)
        dyn = DynamicGraph(g, tracker=tracker)
        dyn.count(4)  # warm up: preprocessing + first count
        warm_start = tracker.work
        edge = next(iter(g.edges()))
        dyn.delete_edges([edge])
        assert dyn.count(4) == scratch_count(dyn.graph, 4)
        incremental_work = tracker.work - warm_start

        cold_tracker = Tracker()
        count_cliques(
            dyn.graph, 4, tracker=cold_tracker, prepared=PreparedGraph(dyn.graph)
        )
        assert incremental_work < cold_tracker.work
        assert registry.gauge("dynamic.patched_ratio").value > 0

    def test_dynamic_metrics_are_recorded(self):
        g = rich_graph(seed=22)
        tracker = Tracker()
        registry = MetricsRegistry()
        tracker.attach_metrics(registry)
        dyn = DynamicGraph(g, tracker=tracker)
        dyn.count(4)
        dyn.prepared.communities()
        dyn.apply_trace(random_trace(g, batches=2, batch_size=3, seed=2))
        assert registry.counter("dynamic.mutations").value == 2
        assert registry.histogram("dynamic.batch_size").count == 2
        # Per batch: the DAG, triangles and tables are patched and the
        # order carried. The one community piece is invalidated by the
        # first batch, and nothing rebuilds it before the second.
        assert registry.counter("dynamic.patched_pieces").value == 6
        assert registry.counter("dynamic.carried_pieces").value == 2
        assert registry.counter("dynamic.rebuilt_pieces").value == 0
        assert registry.counter("dynamic.invalidated_pieces").value == 1
        names = registry.names()
        for expected in (
            "dynamic.touched_communities",
            "dynamic.affected_triangles",
            "dynamic.carried_pieces",
            "dynamic.rebuilt_pieces",
            "dynamic.patched_ratio",
        ):
            assert expected in names


class TestCacheIntegration:
    def test_facade_stays_warm_after_mutation(self):
        clear_prepared_cache()
        g = rich_graph(seed=24)
        dyn = DynamicGraph(g)
        dyn.count(4)
        dyn.delete_edges([next(iter(g.edges()))])
        before = prepared_cache_info()
        # The façade must serve the adopted patched context (a hit on the
        # new snapshot's graph), not rebuild from scratch.
        assert prepare(dyn.graph) is dyn.prepared
        after = prepared_cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_superseded_snapshot_is_invalidated(self):
        clear_prepared_cache()
        g = rich_graph(seed=26)
        prepare(g)  # façade entry for the original snapshot
        dyn = DynamicGraph(g)
        dyn.count(4)
        old_invalidations = prepared_cache_info()["invalidations"]
        dyn.delete_edges([next(iter(g.edges()))])
        assert prepared_cache_info()["invalidations"] > old_invalidations

    def test_private_cache_is_honored(self):
        cache = PreparedCache()
        g = rich_graph(seed=28)
        dyn = DynamicGraph(g, cache=cache)
        dyn.count(4)
        dyn.delete_edges([next(iter(g.edges()))])
        assert cache.get(dyn.graph) is dyn.prepared


class TestTraces:
    def test_replay_reproduces_final_state(self):
        g = rich_graph(seed=30)
        dyn = DynamicGraph(g)
        dyn.count(4)
        trace = random_trace(g, batches=4, batch_size=3, seed=3)
        dyn.apply_trace(trace)
        again = replay_trace(g, dyn.trace(), ks=(4,))
        assert again.graph == dyn.graph
        assert again.count(4) == dyn.count(4)

    def test_random_trace_is_always_valid_and_seeded(self):
        g = rich_graph(seed=32)
        a = random_trace(g, batches=6, batch_size=4, seed=5)
        b = random_trace(g, batches=6, batch_size=4, seed=5)
        assert a == b
        replay_trace(g, a, verify=False)  # must not raise MutationError

    def test_bad_trace_op_rejected(self):
        g = rich_graph(seed=34)
        with pytest.raises(MutationError, match="insert/delete"):
            DynamicGraph(g).apply_trace([{"op": "swap", "batch": [[0, 1]]}])
