"""Out-of-core sharded frontier: budgeted counts identical to in-RAM.

The sharded engine (``repro.core.sharded``) must produce bit-identical
counts and listings to the in-RAM frontier engine under *every* budget —
including the 1-byte adversarial budget that slices one source vertex
per shard, and the unlimited budget that degenerates to a single shard.
Alongside equality, these tests pin the operational contract: exact
byte prediction before allocation, blocks that hold exactly their
priced bytes, resident-window enforcement, no scratch files on success /
error / interrupt, the memory-aware dispatch leg, and the service-side
over-memory admission.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import count_cliques, list_cliques
from repro.bench.datasets import load_dataset
from repro.core.api import resolve_engine
from repro.core.frontier import (
    FrontierTables,
    build_frontier_tables,
    frontier_count_cliques,
    frontier_list_cliques,
    source_row_starts,
)
from repro.core.prepared import PreparedCache, PreparedGraph
from repro.core.sharded import (
    ShardedTables,
    parse_memory_size,
    plan_shards,
    predict_table_bytes,
    sharded_count_cliques,
    sharded_list_cliques,
)
from repro.baselines import brute_force_count
from repro.core.variants import run_variant
from repro.fuzz.strategies import build_family, family_cases, random_graphs
from repro.graphs import complete_graph, gnm_random_graph
from repro.obs import MetricsRegistry
from repro.pram.tracker import Tracker

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

BUDGETS = [None, 1, 512, 4096, 10**9]


# -- parse_memory_size -----------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1048576", 1024 ** 2),
        ("64K", 64 * 1024),
        ("64KB", 64 * 1024),
        ("512M", 512 * 1024 ** 2),
        ("512MiB", 512 * 1024 ** 2),
        ("1.5G", int(1.5 * 1024 ** 3)),
        ("2T", 2 * 1024 ** 4),
        (" 8 K ", 8 * 1024),
        ("unlimited", None),
        ("none", None),
        ("", None),
        ("0", None),
        (None, None),
    ],
)
def test_parse_memory_size(text, expected):
    assert parse_memory_size(text) == expected


@pytest.mark.parametrize("text", ["12 parsecs", "-5M", "G", "1e5Q"])
def test_parse_memory_size_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_memory_size(text)


# -- exact byte prediction and shard planning ------------------------------


@given(g=random_graphs())
@settings(**SETTINGS)
def test_predicted_bytes_are_exact(g):
    """predict_table_bytes equals the real tables' nbytes, pre-allocation."""
    ctx = PreparedGraph(g)
    dag = ctx.dag("degeneracy")
    tables = build_frontier_tables(dag, ctx.triangles("degeneracy"))
    assert (
        predict_table_bytes(dag.num_edges, dag.max_out_degree)
        == tables.rows.nbytes + tables.rows_in.nbytes + tables.complete.nbytes
    )


@given(
    g=random_graphs(),
    budget=st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
    window=st.integers(min_value=1, max_value=4),
)
@settings(**SETTINGS)
def test_plan_shards_invariants(g, budget, window):
    dag = PreparedGraph(g).dag("degeneracy")
    width = (dag.max_out_degree + 63) // 64
    plan = plan_shards(dag.out_indptr, width, budget, window)
    n, m = dag.num_vertices, dag.num_edges
    # Shards partition [0, n) by vertex and [0, m) by edge row.
    assert plan.shards[0].v_lo == 0 and plan.shards[-1].v_hi == n
    assert plan.shards[0].e0 == 0 and plan.shards[-1].e1 == m
    for prev, cur in zip(plan.shards, plan.shards[1:]):
        assert prev.v_hi == cur.v_lo and prev.e1 == cur.e0
    for s in plan.shards:
        assert int(dag.out_indptr[s.v_lo]) == s.e0
        assert int(dag.out_indptr[s.v_hi]) == s.e1
        # Every multi-vertex shard respects the windowed envelope; a
        # single-vertex shard is the indivisible minimum and may not.
        if budget is not None and s.v_hi - s.v_lo > 1 and width > 0:
            assert plan.table_bytes(s.index) <= max(
                budget // window, plan.bytes_per_edge
            )
    assert plan.total_table_bytes == predict_table_bytes(m, dag.max_out_degree)
    if budget is None:
        assert plan.num_shards <= 1


def test_one_byte_budget_means_one_source_per_shard():
    g = gnm_random_graph(40, 140, seed=5)
    dag = PreparedGraph(g).dag("degeneracy")
    width = (dag.max_out_degree + 63) // 64
    plan = plan_shards(dag.out_indptr, width, memory_budget_bytes=1)
    outdeg = np.diff(dag.out_indptr)
    for s in plan.shards:
        assert np.count_nonzero(outdeg[s.v_lo:s.v_hi]) <= 1


# -- count/list equality across budgets and fuzz families ------------------


@given(g=random_graphs(), k=st.integers(min_value=4, max_value=6))
@settings(**SETTINGS)
def test_sharded_matches_frontier_and_reference(g, k):
    expected = frontier_count_cliques(g, k)
    assert run_variant(g, k, "best-work", Tracker()).count == expected
    for budget in BUDGETS:
        got = sharded_count_cliques(
            g, k, memory_budget_bytes=budget, verify=True
        )
        assert got == expected, f"budget={budget}"


@given(case=family_cases(max_vertices=20), k=st.integers(min_value=4, max_value=5))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sharded_matches_on_structured_families(case, k):
    g = build_family(case.family, case.params)
    expected = frontier_count_cliques(g, k)
    assert sharded_count_cliques(g, k, memory_budget_bytes=1) == expected
    assert sharded_count_cliques(g, k) == expected


@given(g=random_graphs(max_n=12), k=st.integers(min_value=4, max_value=5))
@settings(**SETTINGS)
def test_sharded_listing_is_identical_and_canonical(g, k):
    expected = frontier_list_cliques(g, k)
    for budget in (None, 1, 4096):
        got = sharded_list_cliques(g, k, memory_budget_bytes=budget)
        assert got == expected, f"budget={budget}"
    assert expected == sorted(tuple(sorted(c)) for c in expected)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_small_k_closed_forms(k):
    g = gnm_random_graph(30, 90, seed=2)
    assert sharded_count_cliques(g, k, memory_budget_bytes=1) == (
        run_variant(g, k, "best-work", Tracker()).count
    )
    assert sharded_list_cliques(g, k, memory_budget_bytes=1) == (
        frontier_list_cliques(g, k)
    )


def test_unlimited_budget_is_the_identity_plan():
    """budget=None builds one shard whose block is the in-RAM table."""
    g = gnm_random_graph(50, 200, seed=9)
    ctx = PreparedGraph(g)
    dag = ctx.dag("degeneracy")
    tri = ctx.triangles("degeneracy")
    plan = plan_shards(dag.out_indptr, (dag.max_out_degree + 63) // 64)
    assert plan.num_shards == 1
    block = ShardedTables(dag, tri, plan).block(0)
    full = build_frontier_tables(dag, tri)
    assert np.array_equal(block.rows, full.rows)
    assert np.array_equal(block.rows_in, full.rows_in)
    assert np.array_equal(block.complete, full.complete)


@pytest.mark.parametrize("budget", [1, 512, 4096])
def test_every_block_is_the_rebased_slice_of_the_full_tables(budget):
    """A shard block is rows [e0, e1) of the in-RAM tables; its seeds'
    row starts, rebased by -e0, stay inside the block."""
    g = gnm_random_graph(80, 500, seed=5)
    ctx = PreparedGraph(g)
    dag = ctx.dag("degeneracy")
    tri = ctx.triangles("degeneracy")
    full = build_frontier_tables(dag, tri)
    plan = plan_shards(dag.out_indptr, full.width, budget)
    assert plan.num_shards > 1
    sharded = ShardedTables(dag, tri, plan)
    us, _ = dag.edge_endpoints()
    for shard in plan.shards:
        block = sharded.block(shard.index)
        e0, e1 = shard.e0, shard.e1
        assert np.array_equal(block.rows, full.rows[e0:e1])
        assert np.array_equal(block.rows_in, full.rows_in[e0:e1])
        assert np.array_equal(block.complete, full.complete[e0:e1])
        starts = source_row_starts(dag, np.arange(e0, e1))
        assert np.array_equal(starts, dag.out_indptr[us[e0:e1]])
        assert np.all((starts >= e0) & (starts < e1))


def _held_bytes(tables):
    """Bytes of every array a FrontierTables holds."""
    return sum(
        getattr(tables, name).nbytes
        for name in FrontierTables.__slots__
        if isinstance(getattr(tables, name), np.ndarray)
    )


def test_blocks_hold_exactly_their_priced_bytes(monkeypatch):
    """Every array of a block is priced; the real resident peak fits."""
    budget = 64 * 1024
    g = load_dataset("sbm-community", 3)
    ctx = PreparedGraph(g)
    plan = ctx.sharded_tables("degeneracy", memory_budget_bytes=budget).plan
    assert plan.num_shards > 1
    fresh = ShardedTables(
        ctx.dag("degeneracy"), ctx.triangles("degeneracy"), plan
    )
    for shard in plan.shards:
        block = fresh.block(shard.index)
        assert _held_bytes(block) == plan.table_bytes(shard.index)

    real_peak = 0
    real_block = ShardedTables.block

    def spy(self, index, metrics=None):
        nonlocal real_peak
        got = real_block(self, index, metrics)
        held = sum(_held_bytes(t) for t in self._blocks.values())
        real_peak = max(real_peak, held)
        return got

    monkeypatch.setattr(ShardedTables, "block", spy)
    registry = MetricsRegistry()
    tracker = Tracker()
    tracker.attach_metrics(registry)
    got = sharded_count_cliques(
        g, 5, memory_budget_bytes=budget, prepared=ctx, tracker=tracker
    )
    assert got == frontier_count_cliques(g, 5)
    reported = registry.to_dict()["shard.bytes.resident_peak"]["value"]
    assert 0 < real_peak == reported <= budget


def test_process_fanout_matches_sequential():
    g = gnm_random_graph(80, 500, seed=13)
    for k in (4, 5):
        expected = frontier_count_cliques(g, k)
        got = sharded_count_cliques(
            g, k, memory_budget_bytes=2048, workers=2
        )
        assert got == expected
    assert expected > 0  # the fan-out actually counted something


def test_warm_context_memoizes_the_shard_piece():
    g = gnm_random_graph(60, 300, seed=21)
    ctx = PreparedGraph(g)
    first = ctx.sharded_tables("degeneracy", memory_budget_bytes=4096)
    again = ctx.sharded_tables("degeneracy", memory_budget_bytes=4096)
    other = ctx.sharded_tables("degeneracy", memory_budget_bytes=8192)
    assert first is again
    assert other is not first


def test_approx_bytes_counts_the_resident_shard_blocks():
    g = gnm_random_graph(80, 500, seed=5)
    ctx = PreparedGraph(g)
    budget = 4096
    sharded_count_cliques(g, 5, memory_budget_bytes=budget, prepared=ctx)
    plan = ctx.sharded_tables("degeneracy", memory_budget_bytes=budget)
    resident = plan.resident_bytes()
    assert 0 < resident <= budget
    with_blocks = ctx.approx_bytes()
    plan.evict_all()
    assert plan.resident_bytes() == 0
    assert with_blocks - ctx.approx_bytes() == resident


# -- the acceptance property: tables >= 10x budget, window enforced --------


def test_counts_graph_ten_times_bigger_than_budget():
    g = gnm_random_graph(300, 2600, seed=17)
    ctx = PreparedGraph(g)
    dag = ctx.dag("degeneracy")
    tables = predict_table_bytes(dag.num_edges, dag.max_out_degree)
    budget = tables // 12
    assert tables >= 10 * budget > 0

    registry = MetricsRegistry()
    tracker = Tracker()
    tracker.attach_metrics(registry)
    got = sharded_count_cliques(
        g, 5, memory_budget_bytes=budget, prepared=ctx, tracker=tracker
    )
    assert got == frontier_count_cliques(g, 5)

    exported = registry.to_dict()
    resident_peak = exported["shard.bytes.resident_peak"]["value"]
    assert 0 < resident_peak <= budget
    assert exported["shard.count"]["value"] >= 10
    # Shards with no eligible slice are never built, so built bytes may
    # fall short of the full footprint but never exceed it.
    assert 0 < exported["shard.bytes.built"]["value"] <= tables
    # Nothing stays resident past the run's eviction discipline.
    assert ctx.sharded_tables(
        "degeneracy", memory_budget_bytes=budget
    ).resident_bytes() <= budget


# -- no scratch files ------------------------------------------------------


def _raise(exc):
    def drive(*args, **kwargs):
        raise exc

    return drive


@pytest.mark.parametrize(
    "failure",
    [None, RuntimeError("injected failure"), KeyboardInterrupt()],
    ids=["success", "error", "interrupt"],
)
def test_budgeted_count_writes_no_files(tmp_path, monkeypatch, failure):
    import repro.core.frontier as frontier_mod

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    g = gnm_random_graph(40, 160, seed=3)
    expected = frontier_count_cliques(g, 4)
    if failure is None:
        assert sharded_count_cliques(g, 4, memory_budget_bytes=256) == expected
    else:
        monkeypatch.setattr(frontier_mod, "_drive", _raise(failure))
        with pytest.raises(type(failure)):
            sharded_count_cliques(g, 4, memory_budget_bytes=256)
    assert list(tmp_path.iterdir()) == []


# -- dispatch: the memory-aware resolve_engine leg -------------------------


def test_resolve_engine_memory_leg():
    g = gnm_random_graph(100, 700, seed=7)
    ctx = PreparedGraph(g)
    dag = ctx.dag("degeneracy")
    tables = predict_table_bytes(dag.num_edges, dag.max_out_degree)

    tight = resolve_engine(
        ctx, 5, "best-work", True, None, Tracker(),
        memory_budget_bytes=tables // 2,
    )
    assert tight == "sharded"
    assert "memory budget" in tight.reason and str(tables) in tight.reason

    roomy = resolve_engine(
        ctx, 5, "best-work", True, None, Tracker(),
        memory_budget_bytes=tables * 2,
    )
    assert roomy == "frontier"
    # Outside the frontier regime the memory leg never fires.
    assert resolve_engine(
        ctx, 3, "best-work", True, None, Tracker(), memory_budget_bytes=1
    ) == "reference"


def test_facade_dispatches_to_sharded_under_budget():
    g = gnm_random_graph(100, 700, seed=7)
    result = count_cliques(g, 5, memory_budget_bytes=1024)
    assert result.engine == "sharded"
    assert result.count == frontier_count_cliques(g, 5)
    roomy = count_cliques(g, 5, memory_budget_bytes=10**9)
    assert roomy.engine == "frontier"
    assert roomy.count == result.count


def test_facade_listing_upgrades_to_sharded():
    # auto listing resolves through resolve_engine, like counting: a
    # budget the tables would not fit streams shards.
    g = gnm_random_graph(60, 260, seed=11)
    expected = list_cliques(g, 4, engine="reference")
    assert list_cliques(g, 4, engine="frontier") == expected
    assert list_cliques(g, 4, engine="sharded") == expected
    assert list_cliques(g, 4, memory_budget_bytes=1) == expected


# -- prepared-cache byte accounting ----------------------------------------


def test_prepared_cache_tracks_approx_bytes():
    cache = PreparedCache(maxsize=8)
    registry = MetricsRegistry()
    tracker = Tracker()
    tracker.attach_metrics(registry)
    g = gnm_random_graph(40, 150, seed=1)
    ctx = cache.get(g, tracker=tracker)
    assert ctx.approx_bytes() == 0  # nothing built yet
    frontier_count_cliques(g, 4, prepared=ctx)
    assert ctx.approx_bytes() > 0
    cache.get(g, tracker=tracker)
    assert (
        registry.to_dict()["prepared.graph.bytes"]["value"]
        == cache.total_bytes()
        == ctx.approx_bytes()
    )


def test_prepared_cache_evicts_over_byte_budget():
    cache = PreparedCache(maxsize=8, max_bytes=1)
    graphs = [gnm_random_graph(30, 100, seed=s) for s in range(3)]
    for g in graphs:
        ctx = cache.get(g)
        frontier_count_cliques(g, 4, prepared=ctx)
        cache.put(g, ctx)
    # The byte budget keeps at most one (over-budget) entry resident.
    assert cache.info()["size"] == 1
    assert cache.info()["approx_bytes"] == cache.total_bytes()


# -- service admission: over-memory ----------------------------------------


def test_admission_prices_and_rejects_over_memory():
    import asyncio

    from repro.service.admission import AdmissionController, estimate_query
    from repro.service.protocol import ServiceError

    n, m, s = 1000, 20000, 40
    tables = float(predict_table_bytes(m, s))
    budget = int(tables // 10)

    counted = estimate_query(
        "count", n, m, s, k=5, memory_budget_bytes=budget
    )
    assert counted.table_bytes == tables
    assert counted.resident_bytes == budget  # shardable: capped

    swept = estimate_query(
        "spectrum", n, m, s, k_max=6, memory_budget_bytes=budget
    )
    assert swept.resident_bytes == tables  # unshardable: uncapped

    found = estimate_query("find", n, m, s, k=5, memory_budget_bytes=budget)
    assert found.table_bytes == 0.0

    controller = AdmissionController(max_resident_bytes=budget)

    async def run():
        async with controller.admit(counted, "count"):
            assert controller.inflight_bytes == float(budget)
        assert controller.inflight_bytes == 0.0
        with pytest.raises(ServiceError) as exc_info:
            async with controller.admit(swept, "spectrum"):
                pass
        assert exc_info.value.code == "over-memory"
        assert exc_info.value.details["max_resident_bytes"] == budget

    asyncio.run(run())


def test_service_rejects_unshardable_query_over_memory():
    import asyncio

    from repro.service.daemon import CliqueService, ServiceClient
    from repro.service.protocol import ServiceError

    g = gnm_random_graph(60, 300, seed=7)
    us, vs = g.edge_array()
    edges = [[int(u), int(v)] for u, v in zip(us.tolist(), vs.tolist())]

    async def flow():
        service = CliqueService(memory_budget_bytes=1)
        client = ServiceClient(service)
        await client.register("g", edges=edges)
        # count is shardable: it streams under the budget and serves.
        ok = await client.count("g", k=4)
        with pytest.raises(ServiceError) as exc_info:
            await client.spectrum("g", k_max=5)
        await service.aclose()
        return ok, exc_info.value

    ok, rejection = asyncio.run(flow())
    assert ok["count"] == frontier_count_cliques(g, 4)
    assert rejection.code == "over-memory"
    assert rejection.details["max_resident_bytes"] == 1
