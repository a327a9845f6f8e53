"""Degenerate-input matrix: every engine, every pathological shape.

One shared parametrized matrix pins the contract that degenerate inputs
— the empty graph, edgeless (all-isolated) graphs, k > n, and empty
eligible-edge slices after aggressive kernelization — produce exact
zeros / empty listings and never raise, on every engine. These are the
shapes the dynamic mutation layer routinely drives graphs through
(deleting every edge, mutating tiny snapshots), so the sweep guards the
whole serving surface, not just the fuzz generators' typical range.
"""

import numpy as np
import pytest

from repro.core.api import count_cliques, has_clique, list_cliques
from repro.core.existence import clique_spectrum, find_clique
from repro.core.frontier import (
    _drive,
    execute,
    frontier_count_cliques,
    frontier_list_cliques,
)
from repro.core.parallel import count_cliques_parallel
from repro.core.prepared import PreparedGraph
from repro.core.variants import run_variant
from repro.dynamic import DynamicGraph, cliques_through_edges
from repro.graphs import complete_graph, from_edges
from repro.pram.tracker import Tracker


def edgeless(n):
    return from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=n)


def triangle_plus_isolated():
    return from_edges(
        np.asarray([[0, 1], [1, 2], [0, 2]], dtype=np.int64), num_vertices=6
    )


GRAPHS = {
    "empty": edgeless(0),
    "single-vertex": edgeless(1),
    "all-isolated": edgeless(7),
    "triangle+isolated": triangle_plus_isolated(),
    "k4": complete_graph(4),
}

ENGINES = {
    "reference": lambda g, k: run_variant(g, k, "best-work", Tracker()).count,
    "frontier": lambda g, k: frontier_count_cliques(g, k),
    "frontier-warm": lambda g, k: frontier_count_cliques(
        g, k, prepared=PreparedGraph(g)
    ),
    "process": lambda g, k: count_cliques_parallel(g, k, n_workers=2),
    "auto": lambda g, k: count_cliques(g, k).count,
    "kernelized": lambda g, k: count_cliques(
        g, k, engine="frontier", kernelize=True
    ).count,
}


def expected_count(g, k):
    """Brute force over the tiny fixtures (n <= 7)."""
    import itertools

    if k < 1:
        return 0
    return sum(
        1
        for comb in itertools.combinations(range(g.num_vertices), k)
        if all(g.has_edge(a, b) for a, b in itertools.combinations(comb, 2))
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("gname", sorted(GRAPHS))
class TestDegenerateMatrix:
    def test_exact_count_never_raises(self, gname, engine):
        g = GRAPHS[gname]
        for k in (1, 2, 3, 4, g.num_vertices + 1, g.num_vertices + 5):
            assert ENGINES[engine](g, k) == expected_count(g, k), (gname, k)


@pytest.mark.parametrize("gname", sorted(GRAPHS))
class TestDegenerateListingsAndExistence:
    def test_listings_empty_and_exact(self, gname):
        g = GRAPHS[gname]
        for k in (3, g.num_vertices + 2):
            expected = expected_count(g, k)
            assert len(list_cliques(g, k, engine="reference")) == expected
            assert len(list_cliques(g, k)) == expected
            assert len(frontier_list_cliques(g, k)) == expected

    def test_existence_and_spectrum(self, gname):
        g = GRAPHS[gname]
        k = g.num_vertices + 1  # k > n: no clique can exist
        assert find_clique(g, k) is None
        assert not has_clique(g, k)
        spectrum = clique_spectrum(g)
        for j, c in spectrum.items():
            assert c == expected_count(g, j), (gname, j)


class TestEmptyEligibleSlices:
    def test_empty_slice_counts_zero(self):
        g = triangle_plus_isolated()
        ctx = PreparedGraph(g)
        tables = ctx.frontier_tables()
        empty = np.empty(0, dtype=np.int64)
        base, masks = tables.base[empty], tables.rows_in[empty]
        for c in (0, 1, 2, 5):
            assert _drive(tables, base, masks, c, prune=True)[0] == 0
            assert _drive(tables, base, masks, c, prune=False)[0] == 0

    def test_edgeless_graph_has_empty_tables(self):
        g = edgeless(5)
        ctx = PreparedGraph(g)
        tables = ctx.frontier_tables()
        assert tables.rows.shape[0] == 0
        for k in (4, 5):
            assert execute(g, k, ctx, workers=2) == (0, None)
            assert execute(g, k, ctx, listing=True) == (0, [])


class TestDegenerateDynamic:
    def test_delete_every_edge_then_reinsert(self):
        g = triangle_plus_isolated()
        dyn = DynamicGraph(g, verify=True)
        dyn.count(3)
        edges = list(g.edges())
        dyn.delete_edges(edges)
        assert dyn.num_edges == 0
        assert dyn.count(3) == 0
        dyn.insert_edges(edges)
        assert dyn.count(3) == 1

    def test_delta_on_edgeless_membership(self):
        # A delta sweep where communities are all empty must count zero.
        g = from_edges(np.asarray([[0, 1]], dtype=np.int64), num_vertices=4)
        res = cliques_through_edges(g, [(0, 1)], 4, collect=True)
        assert res.count == 0 and res.cliques == []

    def test_mutations_on_isolated_vertices_graph(self):
        dyn = DynamicGraph(edgeless(5), verify=True)
        dyn.count(3)
        dyn.insert_edges([(0, 1), (1, 2), (0, 2)])
        assert dyn.count(3) == 1
        dyn.delete_edges([(0, 1)])
        assert dyn.count(3) == 0
