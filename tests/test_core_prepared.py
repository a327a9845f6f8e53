"""The shared preprocessing cache (repro.core.prepared) + engine dispatch.

Tentpole tests of the PreparedGraph contract: every engine served from a
shared context must return exactly what a cold run returns (counts *and*
canonical listings), the second query on a context must charge zero
preprocessing work, pieces must be computed once and returned by
identity, and the façade's LRU must key per (graph, eps).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    ENGINES,
    VARIANTS,
    PreparedGraph,
    clear_prepared_cache,
    count_cliques,
    has_clique,
    list_cliques,
    prepare,
    prepared_cache_info,
)
from repro.bench.datasets import DATASETS, load_dataset
from repro.core import (
    clique_spectrum,
    find_clique,
    max_clique_size,
    per_vertex_clique_counts,
    resolve_engine,
    run_variant,
)
from repro.core.frontier import frontier_count_cliques
from repro.core.prepared import EDGE_ORDER_KINDS, ORDER_VARIANTS, PreparedCache
from repro.fuzz.strategies import random_graphs
from repro.graphs import complete_graph, from_edges, gnm_random_graph
from repro.graphs.generators import plant_cliques
from repro.obs import MetricsRegistry
from repro.pram.tracker import NULL_TRACKER, Tracker

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)



def clique_rich_graph():
    g = gnm_random_graph(60, 320, seed=9)
    g, _ = plant_cliques(g, [8, 7], seed=9)
    return g


class TestPieceMemoization:
    def test_each_piece_is_computed_once_and_identical(self):
        g = clique_rich_graph()
        ctx = PreparedGraph(g)
        for variant in ORDER_VARIANTS:
            assert ctx.dag(variant) is ctx.dag(variant)
            assert ctx.triangles(variant) is ctx.triangles(variant)
            assert ctx.communities(variant) is ctx.communities(variant)
        for kind in EDGE_ORDER_KINDS:
            assert ctx.edge_order(kind) is ctx.edge_order(kind)

    def test_hit_miss_counters(self):
        g = clique_rich_graph()
        ctx = PreparedGraph(g)
        assert ctx.hits == 0 and ctx.misses == 0
        ctx.communities("degeneracy")
        # order, dag, triangles, communities: four misses, no hit yet.
        assert ctx.misses == 4
        first_hits = ctx.hits
        ctx.communities("degeneracy")
        assert ctx.misses == 4
        assert ctx.hits == first_hits + 1

    def test_exact_and_approx_pipelines_are_distinct(self):
        g = clique_rich_graph()
        ctx = PreparedGraph(g)
        assert ctx.dag("degeneracy") is not ctx.dag("approx")
        assert ctx.communities("degeneracy") is not ctx.communities("approx")

    def test_derived_scalars(self):
        g = complete_graph(10)
        ctx = PreparedGraph(g)
        assert ctx.degeneracy() == 9
        assert ctx.gamma() == 8  # largest community of K10 under any order

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_gamma_from_tables_equals_the_communities(self, name):
        # A context holding the frontier tables reads γ (and every
        # community size) as row popcounts and builds no communities.
        g = load_dataset(name)
        ctx = PreparedGraph(g)
        tables = ctx.frontier_tables("degeneracy")
        gamma = ctx.gamma()
        assert ctx.peek("communities", "degeneracy") is None
        comms = ctx.communities("degeneracy")
        assert gamma == comms.max_size
        assert np.array_equal(tables.sizes, comms.sizes)

    def test_bad_inputs_rejected(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            PreparedGraph(g, eps=0.0)
        ctx = PreparedGraph(g)
        with pytest.raises(ValueError):
            ctx.dag("no-such-order")
        with pytest.raises(ValueError):
            ctx.edge_order("no-such-kind")


class TestWarmEqualsCold:
    @given(g=random_graphs(max_n=14), k=st.integers(min_value=1, max_value=6))
    @settings(**SETTINGS)
    def test_counts_and_listings_all_variants(self, g, k):
        ctx = PreparedGraph(g)
        for variant in VARIANTS:
            cold = run_variant(g, k, variant, Tracker(), collect=True)
            warm = run_variant(
                g, k, variant, Tracker(), collect=True, prepared=ctx
            )
            assert warm.count == cold.count, variant
            assert warm.cliques == cold.cliques, variant

    @given(g=random_graphs(max_n=14), k=st.integers(min_value=3, max_value=6))
    @settings(**SETTINGS)
    def test_every_engine_agrees_on_a_shared_context(self, g, k):
        ctx = PreparedGraph(g)
        cold = run_variant(g, k, "best-work", Tracker()).count
        for engine in ENGINES:
            assert count_cliques(g, k, engine=engine, prepared=ctx).count == cold
        assert (find_clique(g, k, prepared=ctx) is not None) == (cold > 0)

    def test_decision_and_analysis_queries_warm(self):
        g = clique_rich_graph()
        ctx = PreparedGraph(g)
        assert max_clique_size(g, prepared=ctx) == max_clique_size(g)
        assert clique_spectrum(g, k_max=6, prepared=ctx) == clique_spectrum(
            g, k_max=6
        )
        np.testing.assert_array_equal(
            per_vertex_clique_counts(g, 4, prepared=ctx),
            per_vertex_clique_counts(g, 4),
        )

    def test_second_query_charges_zero_preprocessing(self):
        g = clique_rich_graph()
        ctx = PreparedGraph(g)
        first = Tracker()
        run_variant(g, 5, "best-work", first, prepared=ctx)
        second = Tracker()
        run_variant(g, 5, "best-work", second, prepared=ctx)
        # The cold query paid for orientation + communities; the warm one
        # must not be charged a single unit of preprocessing work.
        assert "orientation" in first.phases
        assert first.phases["orientation"].work > 0
        assert first.phases["communities"].work > 0
        assert "orientation" not in second.phases
        assert "communities" not in second.phases
        assert second.phases["search"].work == first.phases["search"].work
        assert second.work < first.work

    def test_multi_k_sweep_charges_preprocessing_once(self):
        # The acceptance scenario: a k in {4..8} sweep through one context
        # pays preprocessing on the first query only, and every count
        # matches its cold twin.
        g = clique_rich_graph()
        ctx = PreparedGraph(g)
        trackers = {}
        for k in range(4, 9):
            tr = Tracker()
            warm = run_variant(g, k, "best-work", tr, prepared=ctx)
            cold = run_variant(g, k, "best-work", Tracker())
            assert warm.count == cold.count, k
            trackers[k] = tr
        assert trackers[4].phases["orientation"].work > 0
        for k in range(5, 9):
            assert "orientation" not in trackers[k].phases, k
            assert "communities" not in trackers[k].phases, k

    def test_wrong_graph_rejected_everywhere(self):
        g = gnm_random_graph(20, 60, seed=1)
        other = gnm_random_graph(20, 60, seed=2)
        ctx = PreparedGraph(other)
        with pytest.raises(ValueError):
            run_variant(g, 4, "best-work", Tracker(), prepared=ctx)
        with pytest.raises(ValueError):
            frontier_count_cliques(g, 4, prepared=ctx)
        with pytest.raises(ValueError):
            count_cliques(g, 4, prepared=ctx)
        with pytest.raises(ValueError):
            find_clique(g, 4, prepared=ctx)
        with pytest.raises(ValueError):
            per_vertex_clique_counts(g, 4, prepared=ctx)

    def test_eps_mismatch_rejected_for_eps_variants(self):
        g = gnm_random_graph(20, 60, seed=1)
        ctx = PreparedGraph(g, eps=0.5)
        with pytest.raises(ValueError):
            run_variant(g, 4, "best-depth", Tracker(), eps=0.25, prepared=ctx)
        # best-work ignores eps, so a mismatch there is fine.
        assert (
            run_variant(g, 4, "best-work", Tracker(), eps=0.25, prepared=ctx).count
            == run_variant(g, 4, "best-work", Tracker()).count
        )


class TestEngineDispatch:
    def test_unknown_engine_rejected(self):
        g = complete_graph(5)
        with pytest.raises(ValueError):
            count_cliques(g, 3, engine="gpu")

    def test_explicit_engines_agree(self):
        g = clique_rich_graph()
        expected = count_cliques(g, 5, engine="reference").count
        assert count_cliques(g, 5, engine="frontier").count == expected
        assert count_cliques(g, 5, engine="sharded").count == expected
        assert count_cliques(g, 5, engine="frontier", workers=1).count == expected

    def test_auto_keeps_frontier_when_workers_requested(self):
        g = complete_graph(8)
        ctx = PreparedGraph(g)
        decision = resolve_engine(ctx, 4, "best-work", True, 2, NULL_TRACKER)
        assert decision == "frontier"
        assert "workers=2" in decision.reason

    def test_auto_picks_frontier_for_default_counting(self):
        # Recalibrated against measured crossovers: the level-synchronous
        # engine wins every k >= 4 best-work regime, single- and
        # multi-word candidate universes alike.
        wide = PreparedGraph(complete_graph(70))
        decision = resolve_engine(wide, 4, "best-work", True, None, NULL_TRACKER)
        assert decision == "frontier"
        assert decision.reason  # every decision states why
        narrow = PreparedGraph(complete_graph(10))
        assert (
            resolve_engine(narrow, 4, "best-work", True, None, NULL_TRACKER)
            == "frontier"
        )
        # k < 4, non-default variant or disabled pruning: reference owns
        # the direct answers and the instrumented ablations.
        assert (
            resolve_engine(wide, 3, "best-work", True, None, NULL_TRACKER)
            == "reference"
        )
        assert (
            resolve_engine(wide, 4, "hybrid", True, None, NULL_TRACKER)
            == "reference"
        )
        assert (
            resolve_engine(wide, 4, "best-work", False, None, NULL_TRACKER)
            == "reference"
        )

    def test_auto_on_wide_graph_matches_reference(self):
        g = complete_graph(70)
        auto = count_cliques(g, 4)
        assert auto.count == count_cliques(g, 4, engine="reference").count
        # Metadata of the synthesized result is real, not placeholder.
        assert auto.gamma == 68

    def test_non_reference_results_carry_tracked_preprocessing(self):
        g = clique_rich_graph()
        tr = Tracker()
        res = count_cliques(g, 5, engine="frontier", tracker=tr)
        assert res.cost.work == tr.work
        assert res.cliques is None
        assert "orientation" in tr.phases


class TestFacadeCache:
    def test_repeat_api_queries_hit_the_lru(self):
        clear_prepared_cache()
        g = clique_rich_graph()
        count_cliques(g, 4)
        info = prepared_cache_info()
        assert info["misses"] == 1 and info["size"] == 1
        count_cliques(g, 5)
        has_clique(g, 6)
        list_cliques(g, 4)
        info = prepared_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 3

    def test_second_api_query_is_warm(self):
        g = clique_rich_graph()
        first = Tracker()
        count_cliques(g, 5, tracker=first)
        second = Tracker()
        count_cliques(g, 5, tracker=second)
        assert "orientation" not in second.phases
        assert second.work < first.work

    def test_lru_keys_per_eps_and_graph(self):
        cache = PreparedCache(maxsize=8)
        g = gnm_random_graph(15, 40, seed=0)
        h = gnm_random_graph(15, 40, seed=1)
        assert cache.get(g) is cache.get(g)
        assert cache.get(g) is not cache.get(h)
        assert cache.get(g, eps=0.5) is not cache.get(g, eps=0.25)
        assert len(cache) == 3

    def test_lru_evicts_oldest(self):
        cache = PreparedCache(maxsize=2)
        graphs = [gnm_random_graph(10, 20, seed=s) for s in range(3)]
        first = cache.get(graphs[0])
        cache.get(graphs[1])
        cache.get(graphs[2])  # evicts graphs[0]
        assert len(cache) == 2
        assert cache.get(graphs[0]) is not first  # rebuilt after eviction

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError):
            PreparedCache(maxsize=0)


class TestObservability:
    def test_piece_and_graph_counters_flow_to_metrics(self):
        clear_prepared_cache()
        g = clique_rich_graph()
        registry = MetricsRegistry()
        tr = Tracker()
        tr.attach_metrics(registry)
        count_cliques(g, 5, tracker=tr)
        count_cliques(g, 6, tracker=tr)
        snap = registry.to_dict()
        assert snap["prepared.graph.miss"]["value"] == 1
        assert snap["prepared.graph.hit"]["value"] == 1
        assert snap["prepared.piece.miss"]["value"] >= 4
        assert snap["prepared.piece.hit"]["value"] >= 1


class TestCacheLifetime:
    """Regression tests for the weakref-based cache lifetime semantics.

    The seed cache strong-referenced graphs forever: entries were
    immortal until LRU eviction, and the id()-keyed lookup silently
    depended on that immortality (a collected graph's reused id could
    have served another graph's preprocessing).
    """

    def test_dropped_graph_frees_its_entry(self):
        import gc

        cache = PreparedCache()
        g = gnm_random_graph(12, 30, seed=3)
        entry = cache.get(g)
        entry.triangles()
        assert len(cache) == 1
        del g, entry
        gc.collect()
        assert len(cache) == 0
        assert cache.info()["invalidations"] == 1

    def test_facade_cache_does_not_pin_graphs(self):
        import gc
        import weakref

        clear_prepared_cache()
        g = gnm_random_graph(12, 30, seed=4)
        ref = weakref.ref(g)
        count_cliques(g, 4)
        assert prepared_cache_info()["size"] == 1
        del g
        gc.collect()
        assert ref() is None, "façade cache must not keep graphs alive"
        assert prepared_cache_info()["size"] == 0

    def test_counters_stay_correct_across_invalidations(self):
        import gc

        cache = PreparedCache()
        keep = gnm_random_graph(12, 30, seed=5)
        cache.get(keep)
        drop = gnm_random_graph(12, 30, seed=6)
        cache.get(drop)
        assert cache.info()["misses"] == 2
        del drop
        gc.collect()
        cache.get(keep)
        info = cache.info()
        assert info == {
            "hits": 1,
            "misses": 2,
            "invalidations": 1,
            "size": 1,
            "maxsize": cache.maxsize,
            "approx_bytes": cache.total_bytes(),
        }

    def test_explicit_invalidate(self):
        cache = PreparedCache()
        g = gnm_random_graph(12, 30, seed=7)
        first = cache.get(g)
        assert cache.invalidate(g) == 1
        assert len(cache) == 0
        assert cache.get(g) is not first
        assert cache.invalidate(gnm_random_graph(5, 5, seed=8)) == 0

    def test_pinned_context_still_owns_its_graph(self):
        import gc
        import weakref

        g = gnm_random_graph(12, 30, seed=9)
        ctx = PreparedGraph(g)  # direct construction pins
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is not None
        assert ctx.graph is ref()

    def test_adopted_patched_context_serves_warm_hits(self):
        from repro.core.prepared import adopt_prepared

        cache = PreparedCache()
        g = gnm_random_graph(12, 30, seed=10)
        ctx = PreparedGraph(g)
        adopt_prepared(g, ctx, cache=cache)
        # The adopted context owns the graph's slot: the façade's next
        # lookup is a warm hit on it, never a cold miss.
        assert cache.lookup(g) is ctx
        assert cache.get(g) is ctx
        assert cache.info()["hits"] == 1 and cache.info()["misses"] == 0
