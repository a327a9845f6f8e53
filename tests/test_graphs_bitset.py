"""Unit tests for the packed-bitset adjacency and the fast engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_count
from repro.core import fast_count_cliques
from repro.graphs import (
    BitMatrix,
    complete_graph,
    empty_graph,
    gnm_random_graph,
    orient_by_order,
    pack_indices,
    popcount,
    unpack_bits,
)
from repro.graphs.bitset import popcount_rows, set_bits_2d


class TestPackUnpack:
    def test_round_trip(self):
        idx = np.array([0, 1, 63, 64, 65, 127, 200])
        words = pack_indices(idx, 256)
        assert unpack_bits(words, 256).tolist() == idx.tolist()

    def test_empty(self):
        words = pack_indices(np.array([], dtype=np.int64), 100)
        assert popcount(words) == 0
        assert unpack_bits(words, 100).size == 0

    def test_out_of_universe_rejected(self):
        with pytest.raises(ValueError):
            pack_indices(np.array([70]), 64)
        with pytest.raises(ValueError):
            pack_indices(np.array([-1]), 64)

    def test_popcount_matches_size(self):
        rng = np.random.default_rng(1)
        idx = np.unique(rng.integers(0, 500, size=200))
        assert popcount(pack_indices(idx, 500)) == idx.size

    def test_popcount_all_ones_word(self):
        assert popcount(np.array([~np.uint64(0)], dtype=np.uint64)) == 64


_ALL_ONES = (1 << 64) - 1


@st.composite
def word_arrays(draw):
    """``(rows, W)`` uint64 arrays, W in {1, 2, 3}, 0 rows allowed, with
    zero words, all-ones words and bit 63 drawn often."""
    nwords = draw(st.integers(1, 3))
    nrows = draw(st.integers(0, 12))
    word = st.one_of(
        st.just(0),
        st.just(_ALL_ONES),
        st.just(1 << 63),
        st.integers(0, _ALL_ONES),
        st.integers(0, _ALL_ONES).map(lambda w: w | (1 << 63)),
    )
    values = draw(st.lists(word, min_size=nrows * nwords, max_size=nrows * nwords))
    return np.array(values, dtype=np.uint64).reshape(nrows, nwords)


class TestBitHelpers:
    @given(words=word_arrays())
    @settings(max_examples=200, deadline=None)
    def test_set_bits_2d_matches_unpackbits(self, words):
        bits = np.unpackbits(
            words.astype("<u8").view(np.uint8), axis=1, bitorder="little"
        )
        want_rows, want_pos = np.nonzero(bits)
        rows, pos = set_bits_2d(words)
        assert rows.dtype == pos.dtype == np.int64
        assert rows.tolist() == want_rows.tolist()
        assert pos.tolist() == want_pos.tolist()

    @given(words=word_arrays())
    @settings(max_examples=200, deadline=None)
    def test_popcount_rows_matches_python(self, words):
        want = [sum(bin(int(w)).count("1") for w in row) for row in words]
        got = popcount_rows(words)
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert popcount(words) == sum(want)

    def test_set_bits_2d_rejects_1d(self):
        with pytest.raises(ValueError):
            set_bits_2d(np.zeros(3, dtype=np.uint64))


class TestBitMatrix:
    def test_from_graph_symmetric(self):
        g = gnm_random_graph(70, 300, seed=2)
        mat = BitMatrix.from_graph(g)
        for v in range(70):
            assert unpack_bits(mat.rows[v], 70).tolist() == g.neighbors(v).tolist()

    def test_from_dag_community(self):
        g = complete_graph(8)
        dag = orient_by_order(g, np.arange(8))
        members = np.array([1, 3, 5, 6])
        mat = BitMatrix.from_dag_community(dag, members)
        # renamed: 0=1, 1=3, 2=5, 3=6; upper-triangular complete
        assert mat.has_bit(0, 1) and mat.has_bit(2, 3)
        assert not mat.has_bit(1, 0)  # direction respected
        # in-rows are the transpose
        assert mat.rows_in[3, 0] != 0

    def test_full_mask_bit_count(self):
        mat = BitMatrix(70)
        assert popcount(mat.full_mask()) == 70

    def test_full_mask_zero_universe(self):
        mat = BitMatrix(0)
        assert mat.full_mask().size == 0

    def test_negative_universe_rejected(self):
        with pytest.raises(ValueError):
            BitMatrix(-1)

    def test_count_and(self):
        g = complete_graph(6)
        mat = BitMatrix.from_graph(g)
        assert mat.count_and(0, mat.full_mask()) == 5


class TestFrozenRows:
    def test_from_graph_rows_in_not_aliased(self):
        # The seed bug: rows_in = rows (one buffer, two names). A frozen
        # copy means the views can never drift apart.
        g = gnm_random_graph(40, 150, seed=4)
        mat = BitMatrix.from_graph(g)
        assert mat.rows_in is not mat.rows
        assert not np.shares_memory(mat.rows_in, mat.rows)
        np.testing.assert_array_equal(mat.rows_in, mat.rows)

    def test_constructed_matrices_are_frozen(self):
        g = gnm_random_graph(40, 150, seed=4)
        sym = BitMatrix.from_graph(g)
        dag = orient_by_order(g, np.arange(40))
        tri = BitMatrix.from_dag_community(dag, dag.out_neighbors(0).astype(np.int64))
        for mat in (sym, tri):
            assert not mat.rows.flags.writeable
            assert not mat.rows_in.flags.writeable
            with pytest.raises(ValueError):
                mat.rows[0, 0] |= np.uint64(1)
            with pytest.raises(ValueError):
                mat.rows_in[0, 0] |= np.uint64(1)

    def test_direct_constructor_stays_writable(self):
        # Hand-built matrices (tests, future kernels) fill rows in place
        # before freezing; the bare constructor must not pre-freeze.
        mat = BitMatrix(8)
        mat.rows[0] = pack_indices(np.array([1, 2]), 8)
        mat._fill_in_rows()
        mat.freeze()
        assert not mat.rows.flags.writeable


class TestFastEngine:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_oracle(self, k, small_random_graphs):
        for g in small_random_graphs:
            assert fast_count_cliques(g, k) == brute_force_count(g, k)

    def test_complete_graph(self):
        g = complete_graph(11)
        for k in (4, 8, 11):
            assert fast_count_cliques(g, k) == math.comb(11, k)

    def test_matches_reference_engine_on_dataset(self):
        from repro import count_cliques
        from repro.bench import load_dataset

        g = load_dataset("bio-sc-ht")
        for k in (6, 9):
            assert fast_count_cliques(g, k) == count_cliques(g, k).count

    def test_large_universe_multiword(self):
        # Community > 64 members exercises multi-word masks.
        g = complete_graph(80)
        assert fast_count_cliques(g, 4) == math.comb(80, 4)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            fast_count_cliques(empty_graph(3), 0)

    def test_empty(self):
        assert fast_count_cliques(empty_graph(5), 4) == 0

    def test_per_source_hoist_matches_reference_on_dense_sources(self):
        # Regression for the per-edge matrix rebuild: sources with many
        # eligible out-edges (planted cliques) now share one BitMatrix per
        # source — counts must stay identical to the reference engine,
        # including on a multi-word universe.
        from repro import count_cliques
        from repro.graphs.generators import plant_cliques

        g = gnm_random_graph(120, 600, seed=8)
        g, _ = plant_cliques(g, [10, 9], seed=8)
        for k in (4, 5, 6, 8):
            assert (
                fast_count_cliques(g, k)
                == count_cliques(g, k, engine="reference").count
            ), k
        # Multi-word universe (γ > 64), small k to keep the count tame.
        wide, _ = plant_cliques(gnm_random_graph(100, 300, seed=8), [68], seed=8)
        assert (
            fast_count_cliques(wide, 4)
            == count_cliques(wide, 4, engine="reference").count
        )

    def test_shared_prepared_context(self):
        from repro.core.prepared import PreparedGraph

        g = gnm_random_graph(50, 250, seed=6)
        ctx = PreparedGraph(g)
        cold = fast_count_cliques(g, 4)
        assert fast_count_cliques(g, 4, prepared=ctx) == cold
        assert fast_count_cliques(g, 4, prepared=ctx) == cold  # warm hit
