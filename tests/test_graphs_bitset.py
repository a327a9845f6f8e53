"""Unit tests for the whole-array bit helpers of the frontier engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.bitset import popcount_rows, set_bits_2d


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

    def test_set_bits_2d_rejects_1d(self):
        with pytest.raises(ValueError):
            set_bits_2d(np.zeros(3, dtype=np.uint64))
