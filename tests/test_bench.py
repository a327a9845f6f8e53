"""Unit tests for the dataset stand-ins, harness, and reporting."""

import pytest

from repro.bench import (
    ALGORITHMS,
    TABLE2_PAPER,
    dataset_names,
    figure_series,
    format_table,
    load_dataset,
    run_experiment,
    speedup_table,
    sweep,
    to_csv,
)
from repro.graphs import CSRGraph, gnm_random_graph


class TestDatasets:
    def test_seven_datasets_in_paper_order(self):
        assert dataset_names() == list(TABLE2_PAPER.keys())

    def test_all_load_and_are_valid(self):
        for name in dataset_names():
            g = load_dataset(name)
            CSRGraph(g.indptr, g.indices, validate=True)
            assert g.num_edges > 0

    def test_memoized(self):
        assert load_dataset("gearbox") is load_dataset("gearbox")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("facebook")

    def test_planted_cliques_present(self):
        # Every stand-in must contain at least one 10-clique so the k-sweep
        # is non-trivial at the top end.
        from repro import has_clique

        for name in dataset_names():
            assert has_clique(load_dataset(name), 10), name

    def test_shape_orderings(self):
        # The T/E column ordering that drives the paper's discussion:
        # chebyshev4 richest in triangles per edge, skitter poorest.
        from repro.analysis import graph_summary

        ratios = {
            name: graph_summary(load_dataset(name), name).triangles_per_edge
            for name in dataset_names()
        }
        assert ratios["chebyshev4"] == max(ratios.values())
        assert ratios["tech-as-skitter"] == min(ratios.values())


class TestHarness:
    def test_measurement_fields(self):
        g = gnm_random_graph(40, 160, seed=1)
        m = run_experiment(g, 4, "c3list", repeats=2, graph_name="toy")
        assert m.count >= 0
        assert m.wall_mean > 0
        assert m.work > 0
        assert m.t72 == pytest.approx(m.work / 72 + m.depth)
        assert m.graph == "toy"
        assert m.repeats == 2

    def test_counts_agree_across_algorithms(self):
        g = gnm_random_graph(40, 200, seed=2)
        counts = {
            algo: run_experiment(g, 4, algo, repeats=1).count
            for algo in ("c3list", "kclist", "arbcount", "chiba-nishizeki")
        }
        assert len(set(counts.values())) == 1

    def test_unknown_algorithm(self):
        g = gnm_random_graph(10, 20, seed=3)
        with pytest.raises(ValueError):
            run_experiment(g, 4, "magic")

    def test_invalid_repeats(self):
        g = gnm_random_graph(10, 20, seed=3)
        with pytest.raises(ValueError):
            run_experiment(g, 4, "c3list", repeats=0)

    def test_sweep_shape(self):
        g = gnm_random_graph(30, 120, seed=4)
        ms = sweep(g, [4, 5], ["c3list", "kclist"], repeats=1)
        assert len(ms) == 4

    def test_sched_simulation_at_most_brent_plus_slack(self):
        g = gnm_random_graph(40, 200, seed=5)
        m = run_experiment(g, 4, "c3list", repeats=1)
        # Greedy schedule uses task work only; it should be within a small
        # factor of the Brent estimate.
        assert m.t72_sched <= 3 * m.t72 + 1


class TestReporting:
    def _measurements(self):
        g = gnm_random_graph(30, 130, seed=6)
        return sweep(g, [4, 5], ["c3list", "kclist"], repeats=1, graph_name="toy")

    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "bb" in lines[0]

    def test_figure_series_contains_all_cells(self):
        out = figure_series(self._measurements(), metric="count", title="toy")
        assert "c3list" in out and "kclist" in out
        assert out.count("\n") >= 3

    def test_speedup_table(self):
        out = speedup_table(self._measurements(), "kclist", "c3list", metric="work")
        assert "kclist/c3list" in out

    def test_csv_round_trip(self):
        csv = to_csv(self._measurements())
        lines = csv.strip().splitlines()
        assert lines[0].startswith("graph,algorithm,k")
        assert len(lines) == 5


class TestSparklines:
    def test_sparkline_shape(self):
        from repro.bench import sparkline

        s = sparkline([1, 2, 4, 8, 16])
        assert len(s) == 5
        assert s[0] != s[-1]  # min and max render differently

    def test_sparkline_constant_series(self):
        from repro.bench import sparkline

        s = sparkline([3, 3, 3])
        assert len(set(s)) == 1

    def test_sparkline_empty(self):
        from repro.bench import sparkline

        assert sparkline([]) == ""

    def test_figure_sparklines(self):
        from repro.bench import figure_sparklines

        ms = self._measurements()
        out = figure_sparklines(ms, metric="count")
        assert "c3list" in out and "kclist" in out

    def _measurements(self):
        g = gnm_random_graph(30, 130, seed=6)
        return sweep(g, [4, 5], ["c3list", "kclist"], repeats=1, graph_name="toy")


class TestAllHarnessAlgorithms:
    @pytest.mark.parametrize(
        "algo",
        [
            "c3list",
            "c3list-approx",
            "c3list-hybrid",
            "c3list-cd",
            "c3list-cd-approx",
            "kclist",
            "arbcount",
            "chiba-nishizeki",
        ],
    )
    def test_every_algorithm_runs_and_agrees(self, algo):
        g = gnm_random_graph(25, 110, seed=17)
        reference = run_experiment(g, 4, "c3list", repeats=1).count
        m = run_experiment(g, 4, algo, repeats=1)
        assert m.count == reference
        assert m.work > 0

    def test_shared_prepared_context_across_a_sweep(self):
        from repro.core.prepared import PreparedGraph

        g = gnm_random_graph(40, 220, seed=17)
        cold = sweep(g, [4, 5], ["c3list"], repeats=1)
        warm = sweep(g, [4, 5], ["c3list"], repeats=1, prepared=PreparedGraph(g))
        for c, w in zip(cold, warm):
            assert c.count == w.count
        # First warm cell builds the preprocessing (same work as cold);
        # the k=5 cell charges only its search.
        assert warm[0].work == cold[0].work
        assert warm[1].work < cold[1].work
        assert warm[1].search_work == cold[1].search_work

    def test_algorithms_registry_is_complete(self):
        # The registry must expose every Table-1 variant plus baselines.
        assert {
            "c3list",
            "c3list-approx",
            "c3list-hybrid",
            "c3list-cd",
            "c3list-cd-approx",
            "kclist",
            "arbcount",
            "chiba-nishizeki",
        } <= set(ALGORITHMS)
