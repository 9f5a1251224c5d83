"""Shared log-space primitives.

All probabilities attached to n-copy objects are carried as log2 values;
the helpers here implement the few operations on them that numpy does not
provide directly (stable differences and shifted sums).
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


def log2_sub(a: float, b: float) -> float:
    """log2(2**a - 2**b) for a >= b, stable when the two are close."""
    if b == -np.inf:
        return a
    if b >= a:
        return -np.inf
    return a + math.log1p(-(2.0 ** (b - a))) / LN2


def logsumexp2(values) -> float:
    """log2 of a sum of 2**values, -inf if empty: one pairwise sum shifted by
    the largest value (the result if infinite or NaN), within 2e-15 bits on
    n-copy lattice masses, where a logaddexp2 chain drifts to 2e-14. Shifted
    values below -1000 count as -1000: they move a sum of at least 1 by
    under 2**-970 of it, and exp2 runs 15-90 times slower where it underflows."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return -math.inf
    top = float(np.maximum.reduce(arr))
    if not math.isfinite(top):
        return top
    shifted = np.subtract(arr, top)
    np.maximum(shifted, -1000.0, out=shifted)
    return top + math.log2(np.add.reduce(np.exp2(shifted, out=shifted)))


def shifted_cumsums(values):
    """(top, left, right): each row's largest value, as a column, and the sums
    of 2**(values - top) over its first and over its last k entries, k = 0 to
    its length; log2 of a sum is top + its log2. Every row needs a finite entry."""
    top = np.maximum.reduce(values, axis=-1, keepdims=True)
    shifted = np.exp2(values - top)
    left, right = (np.zeros(values.shape[:-1] + (values.shape[-1] + 1,)) for _ in range(2))
    np.cumsum(shifted, axis=-1, out=left[..., 1:])
    np.cumsum(shifted[..., ::-1], axis=-1, out=right[..., 1:])
    return top, left, right
