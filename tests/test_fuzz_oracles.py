"""The differential/metamorphic oracles: hold on good graphs, catch liars."""

import pytest

from repro.fuzz.oracles import (
    ORACLES,
    count_perturbation,
    run_oracle,
    run_oracles,
    set_count_perturbation,
)
from repro.fuzz.strategies import build_family, graph_from_edge_list
from repro.graphs import complete_graph
from repro.graphs.generators import gnm_random_graph, plant_cliques


@pytest.fixture
def sample_graphs():
    base = gnm_random_graph(18, 40, seed=11)
    planted, _ = plant_cliques(base, [6], seed=12)
    return [
        planted,
        complete_graph(6),
        build_family("kneser", {"ground": 5, "subset": 2}),  # Petersen
        build_family("clique-chain", {"n_cliques": 3, "clique_size": 5, "overlap": 2}),
        graph_from_edge_list([], 4),  # edgeless
    ]


class TestOraclesHoldOnCorrectEngines:
    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize("k", [4, 5])
    def test_oracle_passes(self, sample_graphs, name, k):
        for i, g in enumerate(sample_graphs):
            assert run_oracle(name, g, k, seed=7) == [], (name, k, i)

    def test_run_oracles_returns_empty_on_clean_graph(self):
        g = complete_graph(5)
        assert run_oracles(g, 4) == {}

    def test_run_oracles_respects_name_subset(self):
        g = complete_graph(5)
        assert run_oracles(g, 4, names=["engines", "relabel"]) == {}

    def test_oracle_seed_is_deterministic(self, sample_graphs):
        g = sample_graphs[0]
        for name in ("relabel", "deletion", "union", "planted"):
            assert run_oracle(name, g, 4, seed=3) == run_oracle(name, g, 4, seed=3)


class TestUnknownNames:
    def test_run_oracle_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            run_oracle("nope", complete_graph(4), 4)


class TestPerturbationHook:
    """The acceptance gate: an injected count lie must surface."""

    def _lie(self, engine, graph, k, true_count):
        if engine == "frontier" and true_count > 0:
            return true_count + 1
        return true_count

    def test_engines_oracle_catches_frontier_off_by_one(self):
        g = complete_graph(6)
        with count_perturbation(self._lie):
            msgs = run_oracle("engines", g, 4)
        assert msgs and "disagree" in msgs[0]
        # and the hook really is scoped: cleared on exit
        assert run_oracle("engines", g, 4) == []

    def test_union_oracle_catches_the_same_lie(self):
        # Additivity breaks: count(G ⊔ H) + 1 != (count(G)+1) + (count(H)+1).
        g = complete_graph(5)
        with count_perturbation(self._lie):
            msgs = run_oracle("union", g, 4, seed=0)
        assert msgs and "not additive" in msgs[0]

    def test_set_count_perturbation_none_clears(self):
        set_count_perturbation(self._lie)
        try:
            assert run_oracle("engines", complete_graph(5), 4) != []
        finally:
            set_count_perturbation(None)
        assert run_oracle("engines", complete_graph(5), 4) == []

    def test_perturbing_reference_is_caught_by_process_oracle(self):
        def lie(engine, graph, k, true_count):
            return true_count + 2 if engine == "process" else true_count

        with count_perturbation(lie):
            msgs = run_oracle("process", complete_graph(5), 4)
        assert msgs and "workers=2" in msgs[0]


class TestMetamorphicEdgeCases:
    def test_relabel_trivial_on_tiny_graph(self):
        assert run_oracle("relabel", graph_from_edge_list([(0, 1)], 2), 4) == []

    def test_deletion_noop_on_edgeless_graph(self):
        assert run_oracle("deletion", graph_from_edge_list([], 3), 4) == []

    def test_spectrum_holds_on_triangle_free_graph(self):
        # Petersen: spectrum must be zero from k=3 up, with no support gap.
        petersen = build_family("kneser", {"ground": 5, "subset": 2})
        assert run_oracle("spectrum", petersen, 4) == []


class TestServiceVersionsOracle:
    """Service answers racing mutations are checked against their version."""

    @pytest.mark.parametrize(
        "family, params",
        [
            ("sbm", {"block_sizes": [6, 5, 5], "p_in": 0.8, "p_out": 0.1,
                     "seed": 3}),
            ("lattice", {"dims": [3, 4], "periodic": True, "diagonals": True}),
            ("watts-strogatz", {"n": 16, "k_ring": 4, "p_rewire": 0.2,
                                "seed": 1}),
            ("clique-chain", {"n_cliques": 3, "clique_size": 5, "overlap": 2}),
        ],
        ids=["sbm", "lattice", "watts-strogatz", "clique-chain"],
    )
    def test_holds_on_families(self, family, params):
        g = build_family(family, params)
        for k in (4, 5):
            assert run_oracle("service-versions", g, k, seed=11) == [], k

    def test_lying_service_is_caught(self, monkeypatch):
        import repro.service.daemon as daemon

        honest = daemon._run_count
        seen = []

        def lying(graph, k, *args, **kwargs):
            result = honest(graph, k, *args, **kwargs)
            if not any(g is graph for g in seen):
                seen.append(graph)
            if len(seen) > 1 and graph is seen[1]:
                result["count"] += 1  # wrong on exactly one version
            return result

        monkeypatch.setattr(daemon, "_run_count", lying)
        msgs = run_oracle("service-versions", complete_graph(7), 4, seed=3)
        assert msgs
        assert all("reference counts" in m for m in msgs)

    def test_padded_spectrum_is_caught(self, monkeypatch):
        # A spectrum without k_max must list exactly the sizes 1..ω.
        import repro.service.daemon as daemon

        honest = daemon._run_spectrum

        def padded(graph, k_max, *args, **kwargs):
            result = honest(graph, k_max, *args, **kwargs)
            if k_max is None:
                result["spectrum"][str(len(result["spectrum"]) + 1)] = 0
            return result

        monkeypatch.setattr(daemon, "_run_spectrum", padded)
        msgs = run_oracle("service-versions", complete_graph(7), 4, seed=3)
        assert msgs
        assert all("listed sizes" in m for m in msgs)
