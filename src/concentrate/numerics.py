"""Shared log-space primitives and a plain bisection solver.

All probabilities attached to n-copy objects are carried as log2 values;
the helpers here implement the few operations on them that numpy does not
provide directly (stable differences, tolerant floor) plus the bisection
loop used by every monotone-equation solver in the package.
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
    hi: float,
    *,
    increasing: bool,
    f_tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Solve fn(x) = target for monotone fn on [lo, hi] by bisection.

    Stops when |fn(x) - target| <= f_tol, when the bracket has shrunk to two
    adjacent floats, or after max_iter halvings, and returns the midpoint in
    every case. No halving can move the midpoint of two adjacent floats, so
    that exit returns what the full loop would; it is the usual one when
    f_tol lies below the roundoff of fn near the root.
    """
    a, b = lo, hi
    mid = 0.5 * (a + b)
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            return mid
        val = fn(mid)
        if abs(val - target) <= f_tol:
            return mid
        if (val < target) == increasing:
            a = mid
        else:
            b = mid
    return mid


def expand_bracket(
    fn: Callable[[float], float],
    target: float,
    start: float,
    *,
    cap: float = 1e6,
) -> float:
    """Double `start` until fn exceeds target (fn increasing); SolverError at cap."""
    hi = start
    while fn(hi) <= target:
        hi *= 2.0
        if hi > cap:
            raise SolverError(
                f"bracket expansion exceeded cap {cap:g} while chasing target {target:g}"
            )
    return hi
