"""Unit tests for graph orientation by a total order."""

import numpy as np
import pytest

from repro.graphs import (
    complete_graph,
    from_edges,
    gnm_random_graph,
    orient_by_order,
    orient_by_rank,
)


def triangle_plus_tail():
    return from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])


class TestOrientation:
    def test_identity_order(self):
        g = triangle_plus_tail()
        dag = orient_by_order(g, np.arange(4))
        assert np.array_equal(dag.out_neighbors(0), [1, 2])
        assert np.array_equal(dag.out_neighbors(2), [3])
        assert dag.num_edges == g.num_edges

    def test_out_neighbors_always_larger(self):
        g = gnm_random_graph(50, 200, seed=3)
        order = np.random.default_rng(0).permutation(50)
        dag = orient_by_order(g, order)
        for v in range(50):
            assert np.all(dag.out_neighbors(v) > v)

    def test_in_neighbors_always_smaller(self):
        g = gnm_random_graph(50, 200, seed=3)
        dag = orient_by_order(g, np.arange(50))
        for v in range(50):
            assert np.all(dag.in_neighbors(v) < v)

    def test_in_out_consistency(self):
        g = gnm_random_graph(30, 100, seed=4)
        dag = orient_by_order(g, np.arange(30))
        for u in range(30):
            for v in dag.out_neighbors(u).tolist():
                assert u in dag.in_neighbors(v).tolist()

    def test_reversed_order_flips_edges(self):
        g = triangle_plus_tail()
        dag = orient_by_order(g, np.array([3, 2, 1, 0]))
        # vertex 3 is first in the order -> relabeled 0.
        assert np.array_equal(dag.original_ids, [3, 2, 1, 0])
        assert dag.out_degree(0) == 1  # 3 -> 2 only

    def test_invalid_order_rejected(self):
        g = triangle_plus_tail()
        with pytest.raises(ValueError):
            orient_by_order(g, np.array([0, 1, 2]))  # wrong length
        with pytest.raises(ValueError):
            orient_by_order(g, np.array([0, 1, 2, 2]))  # not a permutation

    def test_rank_and_order_agree(self):
        g = gnm_random_graph(20, 60, seed=8)
        order = np.random.default_rng(1).permutation(20)
        rank = np.empty(20, dtype=np.int64)
        rank[order] = np.arange(20)
        a = orient_by_order(g, order)
        b = orient_by_rank(g, rank)
        assert np.array_equal(a.out_indptr, b.out_indptr)
        assert np.array_equal(a.out_indices, b.out_indices)
        assert np.array_equal(a.original_ids, b.original_ids)


class TestEdgeAccess:
    def test_has_edge_and_id(self):
        g = triangle_plus_tail()
        dag = orient_by_order(g, np.arange(4))
        assert dag.has_edge(0, 1)
        assert not dag.has_edge(1, 0)
        eid = dag.edge_id(0, 2)
        us, vs = dag.edge_endpoints()
        assert (us[eid], vs[eid]) == (0, 2)

    def test_missing_edge_id(self):
        g = triangle_plus_tail()
        dag = orient_by_order(g, np.arange(4))
        assert dag.edge_id(0, 3) == -1

    def test_max_out_degree(self):
        dag = orient_by_order(complete_graph(6), np.arange(6))
        assert dag.max_out_degree == 5


class TestEdgeIds:
    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_scalar_edge_id_on_every_pair(self, seed):
        g = gnm_random_graph(25, 70, seed=seed)
        dag = orient_by_order(g, np.random.default_rng(seed).permutation(25))
        us, vs = np.divmod(np.arange(25 * 25), 25)
        expected = [dag.edge_id(int(u), int(v)) for u, v in zip(us, vs)]
        got = dag.edge_ids(us, vs)
        assert got.dtype == np.int64
        assert got.tolist() == expected
        assert (got >= 0).sum() == dag.num_edges

    def test_first_and_last_edge_ids(self):
        dag = orient_by_order(triangle_plus_tail(), np.arange(4))
        us, vs = dag.edge_endpoints()
        got = dag.edge_ids(us[[0, -1]], vs[[0, -1]])
        assert got.tolist() == [0, dag.num_edges - 1]
        # Absent pairs before the first key, after the last and between.
        assert dag.edge_ids([0, 3, 1, 2], [0, 3, 0, 1]).tolist() == [-1] * 4

    def test_out_of_range_pairs_are_absent(self):
        # (0, 4) would pack to the key of (1, 0) without the range check.
        dag = orient_by_order(triangle_plus_tail(), np.arange(4))
        assert dag.edge_ids([0, -1, 4, 0], [4, 1, 0, -1]).tolist() == [-1] * 4

    def test_empty_dag(self):
        dag = orient_by_order(from_edges(np.empty((0, 2)), num_vertices=3), np.arange(3))
        assert dag.edge_ids([0, 1], [1, 2]).tolist() == [-1, -1]
        assert dag.edge_ids([], []).size == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_present_lookup_equals_the_checked_one_on_present_pairs(self, seed):
        g = gnm_random_graph(30, 120, seed=seed)
        dag = orient_by_order(g, np.random.default_rng(seed).permutation(30))
        us, vs = dag.edge_endpoints()
        pick = np.random.default_rng(seed).permutation(dag.num_edges)
        # int32 inputs, as triangle rows carry them, must not overflow.
        got = dag.present_edge_ids(us[pick], vs[pick].astype(np.int32))
        assert got.tolist() == dag.edge_ids(us[pick], vs[pick]).tolist()
        assert got.tolist() == pick.tolist()

    def test_edge_keys_are_built_once_and_sealed(self):
        dag = orient_by_order(gnm_random_graph(20, 50, seed=1), np.arange(20))
        keys = dag.edge_keys
        assert dag.edge_keys is keys
        assert not keys.flags.writeable
        assert np.all(np.diff(keys) > 0)


class TestCommunity:
    def test_triangle_community(self):
        g = triangle_plus_tail()
        dag = orient_by_order(g, np.arange(4))
        assert np.array_equal(dag.community(0, 2), [1])
        assert dag.community(0, 1).size == 0

    def test_complete_graph_community(self):
        dag = orient_by_order(complete_graph(5), np.arange(5))
        assert np.array_equal(dag.community(0, 4), [1, 2, 3])

    def test_community_between_endpoints_only(self):
        g = gnm_random_graph(40, 150, seed=9)
        dag = orient_by_order(g, np.arange(40))
        us, vs = dag.edge_endpoints()
        for j in range(0, dag.num_edges, 7):
            c = dag.community(int(us[j]), int(vs[j]))
            assert np.all((c > us[j]) & (c < vs[j]))


class TestRoundTrip:
    def test_to_undirected_recovers_graph(self):
        g = gnm_random_graph(25, 80, seed=10)
        order = np.random.default_rng(2).permutation(25)
        dag = orient_by_order(g, order)
        back = dag.to_undirected()
        # Same number of edges; degree multiset preserved under relabeling.
        assert back.num_edges == g.num_edges
        assert sorted(back.degrees.tolist()) == sorted(g.degrees.tolist())
