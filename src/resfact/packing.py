"""Bit-packed bipolar vectors: the decoder's codebook layout.

Maps +1 -> 1 and -1 -> 0, eight elements per byte, so the dot product of
two D-dimensional vectors reduces to D - 2 * popcount(xor).  The update
sweep searches and reconstructs from codebooks in the layout of
``pack_words``: zero-padded 64-bit words, least significant bit first,
so that element j is bit j % 64 of word j // 64.  The compiled sweep
packs each query the same way and popcounts their xor row by row; it
sums the rows a search keeps from their set bits.  ``pack_bipolar``
keeps ``np.packbits``'s order, element 0 in the top bit of byte 0.
``packed_dot`` is the scalar reference for the search, and it serves
either layout, as long as both operands share it.
"""

from __future__ import annotations

import numpy as np


def pack_bipolar(x) -> np.ndarray:
    """Pack a +-1 vector into a uint8 array, one bit per element.

    Trailing bits of the last byte are zero-padded; the original length
    must be carried separately.
    """
    arr = np.asarray(x)
    if not ((arr == 1) | (arr == -1)).all():
        raise ValueError("input must contain only -1 and +1")
    return np.packbits(arr == 1)


def pack_words(x) -> np.ndarray:
    """Pack +-1 values along the last axis into zero-padded uint64 words.

    Element j of a row is bit j % 64 of its word j // 64, padded with zero
    bits to a whole number of words, ceil(D / 64), per row.  Padding bits
    cancel in the xor of two packed rows and add nothing to a sum of set
    bits.  Does not validate: the decoder passes codebooks, which are
    bipolar by construction.
    """
    arr = np.asarray(x)
    dim = arr.shape[-1]
    out = np.zeros(arr.shape[:-1] + (-(-dim // 64) * 8,), dtype=np.uint8)
    out[..., : (dim + 7) // 8] = np.packbits(arr > 0, axis=-1, bitorder="little")
    return out.view(np.uint64)


def packed_dot(p1: np.ndarray, p2: np.ndarray, dim: int) -> int:
    """Dot product of two packed bipolar vectors of original length ``dim``.

    Computed as dim - 2 * hamming; padding bits cancel in the xor.
    """
    if p1.shape != p2.shape:
        raise ValueError(f"packed length mismatch: {p1.shape} vs {p2.shape}")
    hamming = int(np.bitwise_count(np.bitwise_xor(p1, p2)).sum())
    return dim - 2 * hamming
