"""Types with denominator n: enumeration, class sizes, and probabilities.

A type is the empirical distribution of a length-n sequence over d symbols,
stored as integer counts. The standard sandwiches drive every exact n-copy
computation in this package:

    number of types           <= (n + 1)**d
    log2 |T_q|                in [n H(q) - d log2(n+1), n H(q)]
    log2 Pr[T_q under p**n]   in [-n D(q||p) - d log2(n+1), -n D(q||p)]

Multinomials go through log-gamma, never integer factorials, because d = 2
sweeps push n into the thousands. Everything returns base-2 logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import gammaln

from .errors import DimensionMismatchError, TooManyTypesError
from .numerics import LN2
from .spectra import _as_prob_vector

#: refuse enumerations beyond this many compositions (resource policy)
DEFAULT_TYPE_GUARD = 10**8


@dataclass(frozen=True)
class TypeComposition:
    """Counts of each symbol in a length-n sequence; an empirical distribution."""

    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def d(self) -> int:
        return len(self.counts)

    def distribution(self) -> np.ndarray:
        """The type as a probability vector counts / n."""
        return np.asarray(self.counts, dtype=float) / self.n


def count_types(n: int, d: int) -> int:
    """Number of compositions of n into d ordered parts: C(n+d-1, d-1)."""
    return math.comb(n + d - 1, d - 1)


def enumerate_types(
    n: int, d: int, max_count: int = DEFAULT_TYPE_GUARD
) -> Iterator[TypeComposition]:
    """Stream every type with denominator n over d symbols, lexicographically
    descending in the counts, each exactly once and in constant memory."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if count_types(n, d) > max_count:
        raise TooManyTypesError(
            f"{count_types(n, d)} types for (n={n}, d={d}) exceeds guard {max_count}"
        )
    return (TypeComposition(c) for c in _compositions(n, d))


def _compositions(n: int, d: int) -> Iterator[tuple[int, ...]]:
    if d == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, d - 1):
            yield (first,) + rest


def type_matrix(n: int, d: int, max_count: int = DEFAULT_TYPE_GUARD) -> np.ndarray:
    """All types at once as an integer array of shape (count, d)."""
    return np.array([t.counts for t in enumerate_types(n, d, max_count)], dtype=np.int64)


def log_type_class_size(t: TypeComposition) -> float:
    """log2 of the multinomial n! / prod(counts_i!), via log-gamma."""
    counts = np.asarray(t.counts, dtype=float)
    return float((gammaln(t.n + 1) - gammaln(counts + 1).sum()) / LN2)


def log_multinomial_rows(counts: np.ndarray) -> np.ndarray:
    """Row-wise log2 multinomials for an integer (m, d) counts array."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum(axis=-1)
    return (gammaln(n + 1) - gammaln(counts + 1).sum(axis=-1)) / LN2


def log_sequence_prob(t: TypeComposition, q) -> float:
    """log2 probability of any one sequence of type t under q drawn i.i.d.

    Equals -n (H(t) + D(t||q)); -inf when t uses a symbol q excludes.
    """
    qv = _as_prob_vector(q)
    if qv.size != t.d:
        raise DimensionMismatchError(f"type has {t.d} symbols, q has {qv.size}")
    counts = np.asarray(t.counts, dtype=float)
    if np.any((counts > 0) & (qv == 0.0)):
        return float(-np.inf)
    mask = counts > 0
    return float(counts[mask] @ np.log2(qv[mask]))


def log_type_class_prob(t: TypeComposition, q) -> float:
    """log2 probability of the whole type class under q**n."""
    return log_type_class_size(t) + log_sequence_prob(t, q)
