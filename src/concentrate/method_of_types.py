"""Types with denominator n: enumeration, class sizes, and probabilities.

A type is the empirical distribution of a length-n sequence over d symbols,
stored as integer counts. The standard sandwiches drive every exact n-copy
computation in this package:

    number of types           <= (n + 1)**d
    log2 |T_q|                in [n H(q) - d log2(n+1), n H(q)]
    log2 Pr[T_q under p**n]   in [-n D(q||p) - d log2(n+1), -n D(q||p)]

type_matrix and log_multinomial_rows work one column at a time. Multinomials
read ln c! from one process-wide table, grown on demand to the largest n
seen and never recomputed: math.log(math.factorial(c)) up to c = 170,
correctly rounded, and math.lgamma(c + 1) above, within 2 ulp to c = 20000.
Everything returns base-2 logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionMismatchError, TooManyTypesError
from .numerics import LN2
from .spectra import _as_prob_vector

#: refuse enumerations beyond this many compositions (resource policy)
DEFAULT_TYPE_GUARD = 10**8

#: ln c! for c = 0, 1, ...; grown by _ln_factorials, never recomputed
_LN_FACTORIAL = np.zeros(1)


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
    """Every type with denominator n over d symbols: the rows of type_matrix,
    built eagerly, so its memory is bounded by max_count."""
    return (TypeComposition(tuple(r)) for r in type_matrix(n, d, max_count).tolist())


def type_matrix(n: int, d: int, max_count: int = DEFAULT_TYPE_GUARD) -> np.ndarray:
    """All types as an int64 (count, d) array, rows lexicographically
    descending. Column by column, a prefix leaving rest takes counts rest,
    ..., 0; a count leaving r spans the C(r + k, k) rows that fill the k + 1
    columns after it."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    count = count_types(n, d)
    if count > max_count:
        raise TooManyTypesError(
            f"{count} types for (n={n}, d={d}) exceeds guard {max_count}"
        )
    rows = np.empty((count, d), dtype=np.int64)
    rest = np.array([n], dtype=np.int64)
    for j in range(d - 1):
        sizes = rest + 1
        starts = np.cumsum(sizes) - sizes
        offset = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(starts, sizes)
        span = 1
        for i in range(1, d - 1 - j):
            span = span * (offset + i) // i
        rows[:, j] = np.repeat(np.repeat(rest, sizes) - offset, span)
        rest = offset
    rows[:, d - 1] = rest
    return rows


def _ln_factorials(n: int) -> np.ndarray:
    """The ln c! table, grown to cover c = n by the module doc's rule."""
    global _LN_FACTORIAL
    table = _LN_FACTORIAL
    if n >= table.size:
        grown = [math.log(math.factorial(c)) if c <= 170 else math.lgamma(c + 1)
                 for c in range(table.size, n + 1)]
        # a racing thread may store a shorter table: its entries are the same
        table = _LN_FACTORIAL = np.concatenate((table, grown))
    return table


def log_type_class_size(t: TypeComposition) -> float:
    """log2 of the multinomial n! / prod(counts_i!) from the ln c! table,
    whose entries are correctly rounded to c = 170 and within 2 ulp above."""
    return float(log_multinomial_rows(t.counts))


def log_multinomial_rows(counts: np.ndarray) -> np.ndarray:
    """Row-wise log2 multinomials for an integer (m, d) counts array; rows
    may differ in n, every ln c! comes from one table, columns add up left
    to right."""
    counts = np.asarray(counts, dtype=np.int64)
    n = sum(counts[..., j] for j in range(counts.shape[-1]))
    table = _ln_factorials(int(n.max(initial=0)))
    classes = sum(table[counts[..., j]] for j in range(counts.shape[-1]))
    return (table[n] - classes) / LN2


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
