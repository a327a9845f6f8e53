"""Closed-form counts for edges whose community is complete in the DAG.

Counting answers an eligible edge whose community C(e) induces a
complete DAG subgraph with C(|C(e)|, k−2) instead of driving it. These
tests pin the per-edge ``complete`` flag against a pairwise check on
every path that builds tables (in RAM, sharded blocks, patched after
mutation batches), and the closed-form counts against the reference
engine and against driving every eligible edge.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import count_cliques
from repro.core.frontier import (
    _drive,
    execute,
    frontier_count_cliques,
    source_row_starts,
)
from repro.core.prepared import PreparedGraph
from repro.core.sharded import (
    ShardedTables,
    plan_shards,
    sharded_count_cliques,
)
from repro.dynamic import DynamicGraph
from repro.dynamic.graph import random_trace
from repro.fuzz.strategies import FAMILIES, random_graphs
from repro.graphs import complete_graph, gnm_random_graph
from repro.obs import MetricsRegistry
from repro.pram.tracker import Tracker

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# The clique-rich fuzz families: most of their communities are complete.
CLIQUE_RICH = ("caveman", "clique-chain", "planted")


def _family_graph(name, seed, max_n=26):
    family = FAMILIES[name]
    return family.build(**family.sample(np.random.default_rng(seed), max_n))


def _reference(g, k):
    return count_cliques(g, k, engine="reference").count


def _pairwise_complete(dag):
    """Per DAG edge: is every pair of its community joined by a DAG edge?"""
    out = [set(dag.out_neighbors(v).tolist()) for v in range(dag.num_vertices)]
    us, vs = dag.edge_endpoints()
    flags = []
    for u, v in zip(us.tolist(), vs.tolist()):
        members = dag.community(u, v).tolist()
        flags.append(
            all(x in out[w] for w, x in itertools.combinations(members, 2))
        )
    return np.asarray(flags, dtype=bool)


def _closed_edges(g, k, **kwargs):
    registry = MetricsRegistry()
    tracker = Tracker()
    tracker.attach_metrics(registry)
    got = frontier_count_cliques(g, k, tracker=tracker, **kwargs)
    return got, registry.to_dict()


# -- counts: closed form + drive == reference ------------------------------


@given(g=random_graphs(), k=st.integers(min_value=4, max_value=7))
@settings(**SETTINGS)
def test_counts_match_reference_on_random_graphs(g, k):
    assert frontier_count_cliques(g, k) == _reference(g, k)


@given(
    name=st.sampled_from(CLIQUE_RICH),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    k=st.integers(min_value=4, max_value=7),
)
@settings(**SETTINGS)
def test_counts_match_reference_on_clique_rich_families(name, seed, k):
    g = _family_graph(name, seed)
    assert frontier_count_cliques(g, k) == _reference(g, k)


@given(n=st.integers(min_value=4, max_value=14), data=st.data())
@settings(**SETTINGS)
def test_counts_match_reference_on_complete_graphs(n, data):
    k = data.draw(st.integers(min_value=4, max_value=n + 1))
    g = complete_graph(n)
    assert frontier_count_cliques(g, k) == _reference(g, k)


@pytest.mark.parametrize("name", CLIQUE_RICH)
@pytest.mark.parametrize("k", [4, 5, 6])
def test_execute_equals_driving_every_eligible_edge(name, k):
    g = _family_graph(name, seed=11)
    ctx = PreparedGraph(g)
    tables = ctx.frontier_tables("degeneracy")
    comms = ctx.communities("degeneracy")
    eligible = np.flatnonzero(comms.sizes >= k - 2)
    base = source_row_starts(ctx.dag("degeneracy"), eligible)
    driven, _ = _drive(tables, base, tables.rows_in[eligible], k - 2)
    assert execute(g, k, prepared=ctx)[0] == driven


@pytest.mark.parametrize("name", CLIQUE_RICH)
def test_clique_rich_families_reach_the_closed_form(name):
    """The differential oracles see the closed-form path on these families."""
    closed = 0
    for seed in range(4):
        g = _family_graph(name, seed)
        for k in (4, 5):
            got, data = _closed_edges(g, k)
            assert got == _reference(g, k)
            closed += data.get("frontier.closed_edges", {}).get("value", 0)
    assert closed > 0


def test_budgeted_and_verified_counts_use_the_closed_form():
    g = _family_graph("caveman", seed=3)
    for k in (4, 5):
        expected = _reference(g, k)
        registry = MetricsRegistry()
        tracker = Tracker()
        tracker.attach_metrics(registry)
        got = sharded_count_cliques(
            g, k, memory_budget_bytes=1, tracker=tracker, verify=True
        )
        assert got == expected
        assert registry.to_dict()["frontier.closed_edges"]["value"] > 0


# -- the flag: every table build agrees with the pairwise check ------------


@pytest.mark.parametrize("name", CLIQUE_RICH + ("gnm",))
def test_resident_flags_match_the_pairwise_check(name):
    for seed in range(3):
        ctx = PreparedGraph(_family_graph(name, seed))
        tables = ctx.frontier_tables("degeneracy")
        assert not tables.complete.flags.writeable
        expected = _pairwise_complete(ctx.dag("degeneracy"))
        assert np.array_equal(tables.complete, expected)


@pytest.mark.parametrize("budget", [1, 700, None])
def test_every_rebased_block_carries_its_slice_of_the_flags(budget):
    g = _family_graph("planted", seed=5, max_n=40)
    ctx = PreparedGraph(g)
    dag = ctx.dag("degeneracy")
    expected = _pairwise_complete(dag)
    plan = plan_shards(dag.out_indptr, (dag.max_out_degree + 63) // 64, budget)
    sharded = ShardedTables(dag, ctx.triangles("degeneracy"), plan)
    for shard in plan.shards:
        block = sharded.block(shard.index)
        assert not block.complete.flags.writeable
        assert np.array_equal(block.complete, expected[shard.e0 : shard.e1])


def test_patched_tables_carry_fresh_flags():
    g = gnm_random_graph(40, 260, seed=3)
    dyn = DynamicGraph(g)
    dyn.count(5)  # materializes the tables the patch then patches
    for step in random_trace(g, batches=6, batch_size=12, seed=9):
        batch = [tuple(pair) for pair in step["batch"]]
        if step["op"] == "insert":
            dyn.insert_edges(batch)
        else:
            dyn.delete_edges(batch)
        assert dyn.last_report.detail["frontier_tables/degeneracy"] == "patched"
        ctx = dyn.prepared
        tables = ctx.peek("frontier_tables", "degeneracy")
        expected = _pairwise_complete(ctx.dag("degeneracy"))
        assert np.array_equal(tables.complete, expected)
        assert dyn.count(5) == _reference(dyn.graph, 5)
