"""Unit tests for triangle listing and edge-community construction."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fuzz.strategies import random_graphs
from repro.graphs import (
    complete_graph,
    empty_graph,
    from_edges,
    gnm_random_graph,
    hypercube_graph,
    orient_by_order,
)
from repro.pram.primitives import log2p1
from repro.pram.tracker import Tracker
from repro.triangles import (
    build_communities,
    count_triangles,
    list_triangles,
    per_edge_triangle_counts,
)
from tests.conftest import nx_graph


def ident_dag(g):
    return orient_by_order(g, np.arange(g.num_vertices))


class TestListTriangles:
    def test_single_triangle(self):
        g = from_edges([(0, 1), (1, 2), (0, 2)])
        tri = list_triangles(ident_dag(g))
        assert tri.shape == (1, 3)
        assert tuple(tri[0]) == (0, 1, 2)

    def test_rows_are_ordered(self):
        g = gnm_random_graph(40, 200, seed=1)
        tri = list_triangles(ident_dag(g))
        assert np.all(tri[:, 0] < tri[:, 1])
        assert np.all(tri[:, 1] < tri[:, 2])

    def test_each_triangle_once(self):
        g = gnm_random_graph(40, 200, seed=1)
        tri = list_triangles(ident_dag(g))
        rows = {tuple(r) for r in tri.tolist()}
        assert len(rows) == tri.shape[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_count_matches_networkx(self, seed):
        import networkx as nx

        g = gnm_random_graph(50, 220, seed=seed)
        expected = sum(nx.triangles(nx_graph(g)).values()) // 3
        assert count_triangles(ident_dag(g)) == expected

    def test_count_invariant_under_order(self):
        g = gnm_random_graph(40, 180, seed=7)
        a = count_triangles(ident_dag(g))
        order = np.random.default_rng(0).permutation(40)
        b = count_triangles(orient_by_order(g, order))
        assert a == b

    def test_triangle_free(self):
        assert count_triangles(ident_dag(hypercube_graph(4))) == 0

    def test_complete_graph(self):
        # C(6,3) = 20 triangles.
        assert count_triangles(ident_dag(complete_graph(6))) == 20

    def test_empty(self):
        assert count_triangles(ident_dag(empty_graph(4))) == 0


def brute_force_rows(dag):
    """Every DAG triangle ``u < w < v`` by checking all vertex triples."""
    rows = [
        (u, w, v)
        for u, w, v in itertools.combinations(range(dag.num_vertices), 3)
        if dag.has_edge(u, w) and dag.has_edge(w, v) and dag.has_edge(u, v)
    ]
    return np.asarray(rows, dtype=np.int32).reshape(-1, 3)


def merge_loop_work(dag):
    """The charge of the per-edge merge-intersection loop, as reference.

    ``|N+(u)| + |N+(w)|`` for every out-neighbour ``w`` of ``u`` but the
    last, ``|N+(u)|`` when ``u`` has fewer than two out-neighbours.
    """
    work = 0.0
    for u in range(dag.num_vertices):
        out_u = dag.out_neighbors(u)
        du = out_u.size
        if du < 2:
            work += du
            continue
        for w in out_u[:-1]:
            work += du + dag.out_neighbors(int(w)).size
    return work + dag.num_edges + dag.num_vertices


def check_against_brute_force(dag):
    tracker = Tracker()
    tri = list_triangles(dag, tracker=tracker)
    assert tri.dtype == np.int32
    assert np.array_equal(tri, brute_force_rows(dag))
    assert tracker.work == merge_loop_work(dag)
    assert tracker.depth == 2 * log2p1(dag.num_vertices) ** 2 + 2


class TestListTrianglesBruteForce:
    @given(g=random_graphs(max_n=14), seed=st.integers(0, 2**16))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_graphs_any_order(self, g, seed):
        order = np.random.default_rng(seed).permutation(g.num_vertices)
        check_against_brute_force(orient_by_order(g, order))

    @pytest.mark.parametrize(
        "graph",
        [
            empty_graph(0),
            empty_graph(5),
            from_edges([(0, 1)]),
            from_edges([(0, i) for i in range(1, 9)]),
            from_edges([(i, 8) for i in range(8)]),
        ],
        ids=["no-vertices", "no-edges", "single-edge", "star-out", "star-in"],
    )
    def test_degenerate_graphs(self, graph):
        check_against_brute_force(ident_dag(graph))

    def test_complete_graph_spans_several_chunks(self):
        from repro.triangles.count import WEDGE_CHUNK

        dag = ident_dag(complete_graph(80))
        wedges = int((dag.out_degrees * (dag.out_degrees - 1) // 2).sum())
        assert wedges == 82160 > WEDGE_CHUNK
        check_against_brute_force(dag)


class TestCommunities:
    def test_community_members_adjacent_to_both(self):
        g = gnm_random_graph(40, 200, seed=2)
        dag = ident_dag(g)
        comms = build_communities(dag)
        us, vs = dag.edge_endpoints()
        for eid in range(dag.num_edges):
            for w in comms.of(eid).tolist():
                assert dag.has_edge(int(us[eid]), w)
                assert dag.has_edge(w, int(vs[eid]))

    def test_members_sorted(self):
        g = gnm_random_graph(40, 200, seed=2)
        comms = build_communities(ident_dag(g))
        for eid in range(comms.dag.num_edges):
            c = comms.of(eid)
            assert np.all(np.diff(c) > 0)

    def test_total_members_equals_triangles(self):
        g = gnm_random_graph(40, 200, seed=3)
        dag = ident_dag(g)
        assert build_communities(dag).num_triangles == count_triangles(dag)

    def test_matches_direct_intersection(self):
        g = gnm_random_graph(30, 140, seed=4)
        dag = ident_dag(g)
        comms = build_communities(dag)
        us, vs = dag.edge_endpoints()
        for eid in range(dag.num_edges):
            direct = dag.community(int(us[eid]), int(vs[eid]))
            assert np.array_equal(comms.of(eid), direct)

    def test_of_pair_missing_edge(self):
        g = from_edges([(0, 1), (1, 2), (0, 2)])
        comms = build_communities(ident_dag(g))
        assert comms.of_pair(0, 3 % 3) .size == 0  # (0,0) is not an edge

    def test_max_size_gamma(self):
        comms = build_communities(ident_dag(complete_graph(6)))
        # Edge (0,5) has community {1,2,3,4}.
        assert comms.max_size == 4

    def test_sizes_matches_per_edge_counts(self):
        g = gnm_random_graph(35, 160, seed=5)
        dag = ident_dag(g)
        comms = build_communities(dag)
        counts = per_edge_triangle_counts(dag)
        assert np.array_equal(comms.sizes, counts)

    def test_precomputed_triangles_accepted(self):
        g = gnm_random_graph(35, 160, seed=6)
        dag = ident_dag(g)
        tri = list_triangles(dag)
        a = build_communities(dag, triangles=tri)
        b = build_communities(dag)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.members, b.members)

    def test_empty_graph(self):
        comms = build_communities(ident_dag(empty_graph(5)))
        assert comms.num_triangles == 0
        assert comms.max_size == 0

    def test_triangle_off_the_dag_raises(self):
        dag = ident_dag(from_edges([(0, 1), (1, 2), (2, 3), (0, 3)]))
        # (0, 2) is not an edge of this DAG.
        bad = np.asarray([[0, 1, 2]], dtype=np.int32)
        with pytest.raises(ValueError, match=r"\(0, 2\) is not an edge"):
            build_communities(dag, triangles=bad)
