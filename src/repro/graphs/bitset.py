"""Whole-array bit operations on packed uint64 word rows.

The frontier engine (:mod:`repro.core.frontier`) keeps every candidate
set as a row of ``ceil(universe/64)`` machine words, the bitmap form the
reference C implementations (kClist, ArbCount, GBBS) switch to once the
candidate universe is small. Its rounds need two operations over many
rows at once, both vectorized here with no Python loop over rows or
bits: per-row popcounts (:func:`popcount_rows`) and the enumeration of
every set bit (:func:`set_bits_2d`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["popcount_rows", "set_bits_2d"]

# Index of the lowest set bit of every nonzero byte value (entry 0 unused).
_CTZ8 = np.array(
    [((i & -i).bit_length() - 1) if i else 0 for i in range(256)],
    dtype=np.int64,
)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a 2-D ``(rows, nwords)`` uint64 array.

    One int64 count per row from numpy's native ``bitwise_count`` — no
    Python loop over rows, which is what lets the frontier engine filter
    thousands of candidate masks per numpy call.
    """
    if words.ndim != 2:
        raise ValueError(f"expected a 2-D word array, got ndim={words.ndim}")
    w = words.astype(np.uint64, copy=False)
    return np.bitwise_count(w).sum(axis=1, dtype=np.int64)


def set_bits_2d(words: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """All set bits of a 2-D ``(rows, nwords)`` uint64 array at once.

    Returns ``(row_idx, bit_pos)`` int64 arrays sorted by row then bit
    position (row-major). Bit position is the index within the row's
    ``64 * nwords``-bit universe.

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
