"""Frontier engine: bit-identical counts and listings vs the reference.

The level-synchronous engine (``repro.core.frontier``) must agree with
the reference recursion on *everything* it claims to compute: counts
across all six Table-1 variants, canonical listings, the ``prune=False``
ablation, warm and cold prepared contexts, and with or without the
triangle-support kernelization. These are the acceptance properties of
the engine; the perf story lives in BENCH_baseline.json.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import count_cliques, list_cliques
from repro.baselines import brute_force_count, brute_force_list
from repro.core import VARIANTS, run_variant
from repro.core.api import EngineDecision, resolve_engine
from repro.core.frontier import (
    _drive,
    build_frontier_tables,
    frontier_count_cliques,
    frontier_list_cliques,
)
from repro.core.prepared import PreparedGraph
from repro.fuzz.strategies import random_graphs
from repro.graphs import (
    complete_graph,
    empty_graph,
    from_edges,
    gnm_random_graph,
    hypercube_graph,
)
from repro.obs import MetricsRegistry
from repro.pram.tracker import NULL_TRACKER, Tracker

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)



@given(g=random_graphs(), k=st.integers(min_value=4, max_value=6))
@settings(**SETTINGS)
def test_frontier_matches_every_variant_count(g, k):
    got = frontier_count_cliques(g, k)
    for variant in VARIANTS:
        assert run_variant(g, k, variant, Tracker()).count == got, variant


@given(g=random_graphs(), k=st.integers(min_value=1, max_value=6))
@settings(**SETTINGS)
def test_frontier_warm_cold_and_kernelized_counts(g, k):
    expected = brute_force_count(g, k)
    ctx = PreparedGraph(g)
    assert frontier_count_cliques(g, k, prepared=ctx) == expected  # cold
    assert frontier_count_cliques(g, k, prepared=ctx) == expected  # warm
    assert (
        count_cliques(g, k, engine="frontier", kernelize=True).count
        == expected
    )


@given(g=random_graphs(max_n=12), k=st.integers(min_value=4, max_value=5))
@settings(**SETTINGS)
def test_frontier_listing_is_canonical_warm_cold_kernelized(g, k):
    ctx = PreparedGraph(g)
    ref = list_cliques(g, k, prepared=ctx, engine="reference")
    assert frontier_list_cliques(g, k) == ref  # cold private context
    assert frontier_list_cliques(g, k, prepared=ctx) == ref  # warm
    assert (
        list_cliques(g, k, engine="frontier", kernelize=True, prepared=ctx)
        == ref
    )
    assert list_cliques(g, k, kernelize=True, prepared=ctx) == ref


@given(g=random_graphs(), k=st.integers(min_value=4, max_value=6))
@settings(**SETTINGS)
def test_prune_ablation_changes_nothing_but_work(g, k):
    assert frontier_count_cliques(g, k, prune=False) == frontier_count_cliques(
        g, k
    )


class TestTrivialSizes:
    def test_direct_answers_below_k4(self):
        g = gnm_random_graph(20, 60, seed=3)
        ref = {k: run_variant(g, k, "best-work", Tracker()).count for k in (1, 2, 3)}
        for k, expected in ref.items():
            assert frontier_count_cliques(g, k) == expected
            assert frontier_list_cliques(g, k) == list_cliques(
                g, k, engine="reference"
            )

    def test_bad_k_rejected(self):
        g = complete_graph(5)
        with pytest.raises(ValueError):
            frontier_count_cliques(g, 0)


def _drive_slice(tables, eids, c):
    return _drive(tables, tables.base[eids], tables.rows_in[eids], c)[0]


class TestSliceDecomposition:
    def test_slices_partition_the_count(self):
        # The executor's contract: driving any partition of the eligible
        # edges separately and summing reproduces the total.
        g = gnm_random_graph(40, 220, seed=7)
        k = 5
        ctx = PreparedGraph(g)
        total = frontier_count_cliques(g, k, prepared=ctx)
        tables = ctx.frontier_tables("degeneracy")
        comms = ctx.communities("degeneracy")
        eligible = np.flatnonzero(comms.sizes >= (k - 2))
        for parts in (1, 2, 3, 7):
            pieces = np.array_split(eligible, parts)
            assert sum(_drive_slice(tables, p, k - 2) for p in pieces) == total

    def test_empty_slice_counts_zero(self):
        g = complete_graph(6)
        ctx = PreparedGraph(g)
        tables = ctx.frontier_tables("degeneracy")
        assert _drive_slice(tables, np.empty(0, dtype=np.int64), 2) == 0


class TestTriangleListing:
    """k = 3 lists the memoized triangle array, canonicalized in numpy."""

    @given(g=random_graphs())
    @settings(**SETTINGS)
    def test_matches_reference_bytes(self, g):
        ref = list_cliques(g, 3, engine="reference")
        got = frontier_list_cliques(g, 3)
        assert got == ref
        assert repr(got) == repr(ref)

    @pytest.mark.parametrize(
        "g",
        [empty_graph(0), empty_graph(5), hypercube_graph(4)],
        ids=["empty", "edgeless", "triangle-free"],
    )
    def test_no_triangles_lists_nothing(self, g):
        assert frontier_list_cliques(g, 3) == []
        assert list_cliques(g, 3, engine="reference") == []

    def test_matches_brute_force(self):
        g = gnm_random_graph(30, 150, seed=5)
        assert frontier_list_cliques(g, 3) == sorted(brute_force_list(g, 3))


class TestTables:
    def test_tables_are_frozen_and_shaped(self):
        g = gnm_random_graph(25, 90, seed=11)
        ctx = PreparedGraph(g)
        dag = ctx.dag("degeneracy")
        tri = ctx.triangles("degeneracy")
        tables = build_frontier_tables(dag, tri)
        width_words = (dag.max_out_degree + 63) // 64
        assert tables.rows.shape == (dag.num_edges, width_words)
        assert tables.rows_in.shape == (dag.num_edges, width_words)
        assert not tables.rows.flags.writeable
        assert not tables.rows_in.flags.writeable

    def test_prepared_context_memoizes_tables(self):
        g = gnm_random_graph(25, 90, seed=11)
        ctx = PreparedGraph(g)
        first = ctx.frontier_tables("degeneracy")
        assert ctx.frontier_tables("degeneracy") is first


class TestObservability:
    def test_frontier_metrics_emitted(self):
        g = complete_graph(12)
        registry = MetricsRegistry()
        tracker = Tracker()
        tracker.attach_metrics(registry)
        frontier_count_cliques(g, 5, tracker=tracker)
        data = registry.to_dict()
        assert data["frontier.rounds"]["value"] >= 1
        assert data["frontier.width"]["count"] >= 1
        assert data["frontier.peak_width"]["max"] >= 1

    def test_kernel_metrics_emitted(self):
        # A clique plus pendant noise: the kernel strictly shrinks, and
        # the shrink ratio lands in the registry.
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        edges += [(5 + i, 5 + i + 1) for i in range(1, 8)]
        g = from_edges(np.asarray(edges, dtype=np.int64), num_vertices=14)
        registry = MetricsRegistry()
        tracker = Tracker()
        tracker.attach_metrics(registry)
        result = count_cliques(g, 4, kernelize=True, tracker=tracker)
        assert result.count == brute_force_count(g, 4)
        data = registry.to_dict()
        assert 0 < data["kernel.shrink_ratio"]["value"] < 1
        assert data["kernel.kept_vertices"]["value"] == 6


def _two_word_graph():
    """K_{70,70} plus a sparse random graph and a planted K_6 on one side.

    Every vertex has degree >= 70, so the degeneracy DAG's max out-degree
    exceeds 64 and every frontier mask spans two words, yet the cliques
    stay few: at most one vertex from the independent side.
    """
    rng = np.random.default_rng(5)
    side_b = range(70, 140)
    edges = [(a, b) for a in range(70) for b in side_b]
    edges += [e for e in itertools.combinations(side_b, 2) if rng.random() < 0.12]
    edges += itertools.combinations([75, 88, 101, 113, 126, 139], 2)
    return from_edges(np.asarray(edges, dtype=np.int64), num_vertices=140)


def _brute_force_relevant_pairs(g, k, prune):
    """Relevant DAG[I]-edges over every expansion round, one pair at a time.

    The reference recursion's rule: in the sorted candidate set I, the
    pair (w, x) with x at least ``gap`` places after w is expanded iff
    w -> x is a DAG edge; its child set is I ∩ N⁺(w) ∩ N⁻(x), kept when it
    still has c-2 members.
    """
    ctx = PreparedGraph(g)
    dag = ctx.dag("degeneracy")
    comms = ctx.communities("degeneracy")
    out = [set(dag.out_neighbors(v).tolist()) for v in range(dag.num_vertices)]
    frontier = [
        sorted(comms.of(e).tolist())
        for e in range(dag.num_edges)
        if comms.sizes[e] >= k - 2
    ]
    c, pairs = k - 2, 0
    while c >= 3 and frontier:
        gap = (c - 1) if prune else 1
        children = []
        for members in frontier:
            for i, w in enumerate(members):
                for x in members[i + gap:]:
                    if x not in out[w]:
                        continue
                    pairs += 1
                    child = [y for y in members if y in out[w] and x in out[y]]
                    if len(child) >= c - 2:
                        children.append(child)
        frontier, c = children, c - 2
    return pairs


class TestRelevantPairs:
    """The relevant-pair rule is applied before the pairs are enumerated,
    so ``frontier.pairs`` counts exactly the relevant pairs."""

    GRAPHS = {
        "one-word": lambda: gnm_random_graph(40, 400, seed=4),
        "two-word": _two_word_graph,
    }

    @pytest.fixture(scope="class", params=sorted(GRAPHS))
    def graph(self, request):
        return self.GRAPHS[request.param]()

    @pytest.mark.parametrize("k", [6, 7])
    @pytest.mark.parametrize("prune", [True, False])
    def test_pairs_count_and_listing(self, graph, k, prune):
        registry = MetricsRegistry()
        tracker = Tracker()
        tracker.attach_metrics(registry)
        got = frontier_count_cliques(graph, k, tracker=tracker, prune=prune)
        expected_pairs = _brute_force_relevant_pairs(graph, k, prune)
        assert expected_pairs > 0
        assert registry.to_dict()["frontier.pairs"]["value"] == expected_pairs
        assert got == count_cliques(graph, k, engine="reference").count > 0
        assert frontier_list_cliques(graph, k) == list_cliques(
            graph, k, engine="reference"
        )

    def test_two_word_graph_sets_bits_in_the_second_word(self):
        tables = PreparedGraph(_two_word_graph()).frontier_tables("degeneracy")
        assert tables.width == 2
        assert np.any(tables.rows_in[:, 1])


class TestDispatchMetadata:
    def test_auto_resolves_to_frontier_and_says_why(self):
        g = complete_graph(10)
        result = count_cliques(g, 4)
        assert result.engine == "frontier"
        assert result.engine_reason
        explicit = count_cliques(g, 4, engine="reference")
        assert explicit.engine == "reference"
        assert "explicitly requested" in explicit.engine_reason

    def test_engine_decision_is_a_string(self):
        ctx = PreparedGraph(complete_graph(8))
        decision = resolve_engine(ctx, 5, "best-work", True, None, NULL_TRACKER)
        assert isinstance(decision, EngineDecision)
        assert isinstance(decision, str)
        assert decision == "frontier"
        assert decision.reason
