"""Bit-packed bipolar vectors: a public reference, not on the decode path.

Maps +1 -> 1 and -1 -> 0, eight elements per byte, so the dot product of
two D-dimensional vectors is D - 2 * popcount(xor).  ``pack_bipolar``
keeps ``np.packbits``'s order, element 0 in the top bit of byte 0;
``packed_dot`` is the scalar reference for the search, in any layout both
operands share.  The decoder's books and queries are packed by ``_sweep.c``.
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


def packed_dot(p1: np.ndarray, p2: np.ndarray, dim: int) -> int:
    """Dot product of two packed bipolar vectors of original length ``dim``.

    Computed as dim - 2 * hamming; padding bits cancel in the xor.
    """
    if p1.shape != p2.shape:
        raise ValueError(f"packed length mismatch: {p1.shape} vs {p2.shape}")
    hamming = int(np.bitwise_count(np.bitwise_xor(p1, p2)).sum())
    return dim - 2 * hamming
