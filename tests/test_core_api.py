"""Unit tests for the public API façade."""

import pytest

from repro import VARIANTS, count_cliques, has_clique, list_cliques
from repro.baselines import brute_force_count, brute_force_list
from repro.graphs import clique_chain, complete_graph, empty_graph, gnm_random_graph
from repro.pram.tracker import Tracker


class TestCountCliques:
    def test_default_variant(self):
        g = gnm_random_graph(20, 80, seed=1)
        assert count_cliques(g, 4).count == brute_force_count(g, 4)

    def test_external_tracker_filled(self):
        g = gnm_random_graph(20, 80, seed=1)
        tr = Tracker()
        count_cliques(g, 4, tracker=tr)
        assert tr.work > 0

    def test_result_has_cliques_none_in_count_mode(self):
        g = complete_graph(6)
        assert count_cliques(g, 4).cliques is None

    def test_all_variants_reachable(self):
        g = gnm_random_graph(18, 70, seed=2)
        expected = brute_force_count(g, 4)
        for v in VARIANTS:
            assert count_cliques(g, 4, variant=v).count == expected


class TestListCliques:
    def test_returns_sorted_tuples(self):
        g = clique_chain(2, 5, overlap=1)
        cliques = list_cliques(g, 4)
        assert all(tuple(sorted(c)) == c for c in cliques)
        assert sorted(cliques) == sorted(brute_force_list(g, 4))

    def test_empty_result(self):
        assert list_cliques(empty_graph(5), 4) == []

    def test_output_order_is_canonical(self):
        # Two runs — and any two variants — must produce byte-identical
        # listings: the output is sorted lexicographically regardless of
        # internal iteration/schedule order (lint rule R3's property).
        g = gnm_random_graph(24, 110, seed=7)
        first = list_cliques(g, 4)
        second = list_cliques(g, 4)
        assert first == second
        assert first == sorted(first)
        assert list_cliques(g, 4, variant="hybrid") == first


class TestHasClique:
    def test_positive(self):
        assert has_clique(complete_graph(5), 5)

    def test_negative(self):
        assert not has_clique(complete_graph(5), 6)

    def test_docstring_example(self):
        g = clique_chain(3, 6)
        assert count_cliques(g, 4).count == 45  # 3 * C(6,4)


class TestEngineDispatchEdgeCases:
    """resolve_engine corner cases and the stability of its reasons.

    The ``EngineDecision.reason`` strings are part of the observable
    surface (profile output, bench records, fuzz artifacts), so their
    key phrases are pinned here — a recalibration that changes the
    *shape* of an explanation should have to say so in a test diff.
    """

    @staticmethod
    def _resolve(g, k, variant="best-work", prune=True, workers=None):
        from repro.core.api import resolve_engine
        from repro.core.prepared import PreparedGraph
        from repro.pram.tracker import NULL_TRACKER

        return resolve_engine(
            PreparedGraph(g), k, variant, prune, workers, NULL_TRACKER
        )

    def test_k3_is_reference_with_direct_answer_reason(self):
        g = gnm_random_graph(20, 70, seed=4)
        decision = self._resolve(g, 3)
        assert decision == "reference"
        assert "k=3 < 4" in decision.reason
        assert "directly" in decision.reason
        result = count_cliques(g, 3)
        assert result.engine == "reference"
        assert result.count == brute_force_count(g, 3)

    def test_prune_false_ablation_is_reference(self):
        g = gnm_random_graph(20, 70, seed=4)
        decision = self._resolve(g, 5, prune=False)
        assert decision == "reference"
        assert "prune=False ablation" in decision.reason
        assert (
            count_cliques(g, 5, prune=False).count
            == brute_force_count(g, 5)
        )

    def test_workers_compose_with_kernelize_and_k(self):
        # workers never choose the engine, they only fan the plan's units
        # out; kernelize composes (it shrinks the instance *before*
        # dispatch).
        g = gnm_random_graph(22, 100, seed=5)
        decision = self._resolve(g, 4, workers=2)
        assert decision == "frontier"
        assert "workers=2" in decision.reason
        assert self._resolve(g, 3, workers=2) == "reference"
        result = count_cliques(g, 4, workers=2, kernelize=True)
        assert result.engine == "frontier"
        assert result.count == brute_force_count(g, 4)

    def test_workers_one_is_not_process(self):
        g = gnm_random_graph(18, 60, seed=6)
        assert self._resolve(g, 4, workers=1) == "frontier"

    def test_explicit_sharded_bypasses_resolver(self):
        # An explicit request skips the resolver, with the generic
        # explicit-request reason on the result.
        g = gnm_random_graph(20, 90, seed=7)
        result = count_cliques(g, 4, engine="sharded")
        assert result.engine == "sharded"
        assert "explicitly requested" in result.engine_reason
        assert result.count == brute_force_count(g, 4)

    def test_non_default_variant_is_reference(self):
        g = gnm_random_graph(18, 60, seed=8)
        decision = self._resolve(g, 5, variant="cd-best-work")
        assert decision == "reference"
        assert "cd-best-work" in decision.reason

    def test_default_regime_reason_names_the_crossover(self):
        g = gnm_random_graph(18, 60, seed=9)
        decision = self._resolve(g, 5)
        assert decision == "frontier"
        assert "k >= 4" in decision.reason
