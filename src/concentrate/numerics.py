"""Shared log-space primitives and a plain bisection solver.

All probabilities attached to n-copy objects are carried as log2 values;
the helpers here implement the few operations on them that numpy does not
provide directly (stable differences, tolerant floor) plus the bracketing
bisection used by every monotone-equation solver in the package.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import SolverError

LN2 = math.log(2.0)

#: absolute slack used when flooring ratios like 1/p1 whose float image can
#: land a few ulp below an exact integer
FLOOR_TOL = 1e-12

#: largest upper end the open-bracket search of bisect_for_value tries
BRACKET_CAP = 1e6


def log2_sub(a: float, b: float) -> float:
    """log2(2**a - 2**b) for a >= b, stable when the two are close."""
    if b == -np.inf:
        return a
    if b >= a:
        return -np.inf
    return a + math.log1p(-(2.0 ** (b - a))) / LN2


def logsumexp2(values) -> float:
    """log2 of a sum of 2**values; -inf on an empty input."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return -np.inf
    return float(np.logaddexp2.reduce(arr))


def tolerant_floor(x: float) -> int:
    """floor(x) forgiving a FLOOR_TOL shortfall below an exact integer."""
    return int(math.floor(x + FLOOR_TOL))


def bisect_for_value(
    fn: Callable[[float], float],
    target: float,
    lo: float,
    hi: float | None = None,
    *,
    increasing: bool,
    f_tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Solve fn(x) = target for monotone fn on [lo, hi] by bisection.

    Without hi, hi doubles from 2 * lo until fn passes target (SolverError
    once hi would exceed BRACKET_CAP). The bisection stops when
    |fn(x) - target| <= f_tol, when the bracket has shrunk to two adjacent
    floats, or after max_iter halvings, and returns the midpoint in every
    case. No halving can move the midpoint of two adjacent floats, so that
    exit returns what the full loop would; it is the usual one when f_tol
    lies below the roundoff of fn near the root.
    """
    if hi is None:
        hi = 2.0 * lo
        while (fn(hi) <= target) if increasing else (fn(hi) >= target):
            hi *= 2.0
            if hi > BRACKET_CAP:
                raise SolverError(
                    f"bracket expansion exceeded cap {BRACKET_CAP:g} "
                    f"while chasing target {target:g}"
                )
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            return mid
        val = fn(mid)
        if abs(val - target) <= f_tol:
            return mid
        if (val < target) == increasing:
            lo = mid
        else:
            hi = mid
    return mid
