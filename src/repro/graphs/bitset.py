"""Packed-bitset adjacency for dense subproblems.

The reference C implementations (kClist, ArbCount, GBBS) switch to bitmap
set operations once the candidate universe is small: with the subproblem's
vertices renamed to ``0..u-1``, a neighborhood is ``ceil(u/64)`` machine
words and intersection is a vectorized AND + popcount. This module
provides that representation on numpy ``uint64`` words:

* :class:`BitMatrix` — u×ceil(u/64) adjacency bitset of an induced
  subproblem;
* intersections/popcounts over whole rows (`and_row`, `count_and`);
* :func:`pack_indices` / :func:`unpack_bits` converters.

The fast counting engine (:mod:`repro.core.fast`) builds one
``BitMatrix`` per top-level community and replaces the sorted-array
intersections of the reference engine with word operations.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph
from .digraph import OrientedDAG

__all__ = [
    "BitMatrix",
    "pack_indices",
    "unpack_bits",
    "popcount",
    "popcount_rows",
    "set_bits_2d",
]

_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)

# Index of the lowest set bit of every nonzero byte value (entry 0 unused).
_CTZ8 = np.array(
    [((i & -i).bit_length() - 1) if i else 0 for i in range(256)],
    dtype=np.int64,
)


def popcount(words: np.ndarray) -> int:
    """Total number of set bits across an array of uint64 words."""
    return int(np.bitwise_count(words.astype(np.uint64, copy=False)).sum())


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a 2-D ``(rows, nwords)`` uint64 array.

    The whole-array sibling of :func:`popcount`: one int64 count per row
    from numpy's native ``bitwise_count`` — no Python loop over rows,
    which is what lets the frontier engine filter thousands of candidate
    masks per numpy call.
    """
    if words.ndim != 2:
        raise ValueError(f"expected a 2-D word array, got ndim={words.ndim}")
    w = words.astype(np.uint64, copy=False)
    return np.bitwise_count(w).sum(axis=1, dtype=np.int64)


def set_bits_2d(words: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """All set bits of a 2-D ``(rows, nwords)`` uint64 array at once.

    Returns ``(row_idx, bit_pos)`` int64 arrays sorted by row then bit
    position (row-major) — the vectorized counterpart of calling
    :func:`unpack_bits` per row. Bit position is the index within the
    row's ``64 * nwords``-bit universe.

    Byte peeling: only the nonzero bytes are visited. Each gets its
    output slots from a running sum of byte popcounts, then at most 8
    rounds write the lowest remaining bit of every still-nonzero byte
    and clear it, so the output is allocated once at its exact size and
    no per-bit plane of the input is ever materialized.
    """
    if words.ndim != 2:
        raise ValueError(f"expected a 2-D word array, got ndim={words.ndim}")
    # Little-endian words make byte j of word i hold bits 8j..8j+7 of it.
    w = np.ascontiguousarray(words, dtype="<u8")
    row_bytes = 8 * w.shape[1]
    flat = w.view(np.uint8).reshape(-1)
    nz = np.flatnonzero(flat)
    byte = flat[nz]
    cnt = np.bitwise_count(byte)
    row_of, byte_col = np.divmod(nz, row_bytes)
    rows = np.repeat(row_of, cnt)
    pos = np.empty(rows.size, dtype=np.int64)
    slot = np.cumsum(cnt, dtype=np.int64)
    slot -= cnt
    bit0 = byte_col * 8
    while byte.size:
        pos[slot] = bit0 + _CTZ8[byte]
        byte &= byte - np.uint8(1)
        more = np.flatnonzero(byte)
        byte = byte[more]
        slot = slot[more] + 1
        bit0 = bit0[more]
    return rows, pos


def pack_indices(indices: np.ndarray, universe: int) -> np.ndarray:
    """Pack a sorted index set from ``[0, universe)`` into uint64 words."""
    nwords = (universe + 63) // 64
    words = np.zeros(nwords, dtype=np.uint64)
    if indices.size:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.min() < 0 or idx.max() >= universe:
            raise ValueError("index outside the packing universe")
        np.bitwise_or.at(words, idx // 64, _BITS[idx % 64])
    return words


def unpack_bits(words: np.ndarray, universe: int) -> np.ndarray:
    """Inverse of :func:`pack_indices`: sorted indices of the set bits."""
    out = []
    for w_idx in range(words.size):
        w = int(words[w_idx])
        base = w_idx * 64
        while w:
            low = w & -w
            out.append(base + low.bit_length() - 1)
            w ^= low
    arr = np.asarray(out, dtype=np.int64)
    return arr[arr < universe]


class BitMatrix:
    """Adjacency bitsets of a small renamed subproblem (u ≤ a few 1000).

    ``rows`` holds out-neighbor bitsets (bit j of row i set iff edge
    (i, j), j > i); ``rows_in`` the transpose (in-neighbors), so the
    community of a pair is ``rows[u] & rows_in[v]`` — two word ANDs.
    """

    __slots__ = ("universe", "nwords", "rows", "rows_in")

    def __init__(self, universe: int) -> None:
        if universe < 0:
            raise ValueError("universe must be non-negative")
        self.universe = universe
        self.nwords = (universe + 63) // 64
        self.rows = np.zeros((universe, self.nwords), dtype=np.uint64)
        self.rows_in = np.zeros((universe, self.nwords), dtype=np.uint64)

    def _fill_in_rows(self) -> None:
        for i in range(self.universe):
            for j in unpack_bits(self.rows[i], self.universe).tolist():
                self.rows_in[j, i // 64] |= _BITS[i % 64]

    @classmethod
    def from_dag_community(
        cls, dag: OrientedDAG, members: np.ndarray
    ) -> "BitMatrix":
        """Adjacency of ``DAG[members]`` with members renamed to 0..u-1.

        Bit j of row i is set iff ``(members[i], members[j])`` is a DAG
        edge (so the matrix is upper-triangular in the renamed order).
        """
        members = np.asarray(members, dtype=np.int64)
        u = int(members.size)
        mat = cls(u)
        for i in range(u):
            nbrs = np.intersect1d(
                dag.out_neighbors(int(members[i])), members, assume_unique=True
            )
            local = np.searchsorted(members, nbrs)
            mat.rows[i] = pack_indices(local, u)
        mat._fill_in_rows()
        return mat.freeze()

    @classmethod
    def from_graph(cls, graph: CSRGraph) -> "BitMatrix":
        """Symmetric adjacency bitsets of a whole (small) graph."""
        n = graph.num_vertices
        mat = cls(n)
        for v in range(n):
            mat.rows[v] = pack_indices(graph.neighbors(v).astype(np.int64), n)
        # The matrix is symmetric, but rows_in must NOT alias rows: a later
        # in-place row update through either view would silently corrupt
        # the other (and freeze() would be defeated by the shared buffer).
        mat.rows_in = mat.rows.copy()
        return mat.freeze()

    def freeze(self) -> "BitMatrix":
        """Make both adjacency views immutable; returns self.

        Kernels share one matrix across many masks/queries — an accidental
        in-place row update would corrupt every later query, so the
        constructors freeze the finished arrays.
        """
        self.rows.setflags(write=False)
        self.rows_in.setflags(write=False)
        return self

    def and_row(self, row: int, mask: np.ndarray) -> np.ndarray:
        """``adjacency[row] & mask`` as a fresh word array."""
        return self.rows[row] & mask

    def count_and(self, row: int, mask: np.ndarray) -> int:
        """popcount(adjacency[row] & mask) without materializing indices."""
        return popcount(self.rows[row] & mask)

    def has_bit(self, row: int, col: int) -> bool:
        return bool(
            (self.rows[row, col // 64] >> np.uint64(col % 64)) & np.uint64(1)
        )

    def full_mask(self) -> np.ndarray:
        """Mask with all ``universe`` bits set (the whole candidate set)."""
        words = np.full(self.nwords, ~np.uint64(0), dtype=np.uint64)
        extra = self.nwords * 64 - self.universe
        if extra and self.nwords:
            words[-1] = words[-1] >> np.uint64(extra)
        return words
