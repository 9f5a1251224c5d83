"""Types with denominator n: the lattice, class sizes, and probabilities.

A type is the empirical distribution of a length-n sequence over d symbols,
stored as its integer counts: a (d,) row for one type, an (m, d) array for
many, such as the rows of type_matrix. The standard sandwiches drive every
exact n-copy computation in this package:

    number of types           <= (n + 1)**d
    log2 |T_q|                in [n H(q) - d log2(n+1), n H(q)]
    log2 Pr[T_q under p**n]   in [-n D(q||p) - d log2(n+1), -n D(q||p)]

One walk yields the lattice a column at a time and alone checks n, d and
the type guard. type_matrix stacks its columns into the (m, d) counts;
lattice_logs, the n-copy path's builder, keeps only each type's log2
sequence probability and class size, peaking at about five arrays of m
values. It adds each type's terms column by column, left to right, so a
type's logs are those of its counts row summed in that order, whatever
types come with it. Multinomials read ln c! from one process-wide table,
grown on demand to the largest n seen and never recomputed:
math.log(math.factorial(c)) up to c = 170, correctly rounded, and
math.lgamma(c + 1) above, within 2 ulp to c = 20000. The band's chain
counts, free of the values and n, sit in a second such table, one per pair
of last-two multiplicities: (n+1)(n+2) floats twice per pair, 0.13 MB at
n = 89 and 2.6 MB at n = 400. All logs are base 2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TooManyTypesError
from .numerics import LN2, logsumexp2, shifted_cumsums

#: refuse enumerations beyond this many compositions (resource policy)
DEFAULT_TYPE_GUARD = 10**8

#: ln c! for c = 0, 1, ...; grown by _ln_factorials, never recomputed
_LN_FACTORIAL = np.zeros(1)
#: (x, y) -> (leaf counts, their shifted running sums) of the band's chains
_CHAIN_COUNTS = {}


def count_types(n: int, d: int) -> int:
    """Number of compositions of n into d ordered parts: C(n+d-1, d-1)."""
    return math.comb(n + d - 1, d - 1)


def _walk(n: int, d: int, max_count: int, keep=None):
    """Check n, d and the guard, then yield the full lattice's type count,
    then each column's (sizes, counts) in row order: the rows so far repeat
    by sizes, and a prefix leaving rest has the children with counts
    rest - first down to rest - first - sizes + 1, where keep(j, rest) gives
    (first, sizes), or (0, rest + 1) without keep: all of them, the largest
    counts first. The last column yields sizes None. The checks run at the
    first next(): take the count before allocating."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    count = count_types(n, d)
    if count > max_count:
        raise TooManyTypesError(
            f"{count} types for (n={n}, d={d}) exceeds guard {max_count}"
        )
    yield count
    rest = np.array([n], dtype=np.int64)
    for j in range(d - 1):
        first, sizes = (0, rest + 1) if keep is None else keep(j, rest)
        starts = np.cumsum(sizes) - sizes - first
        offset = np.arange(int(sizes.sum()), dtype=np.int64)
        offset -= starts.repeat(sizes)
        counts = rest.repeat(sizes)
        counts -= offset
        yield sizes, counts
        rest = offset
    yield None, rest


def type_matrix(n: int, d: int, max_count: int = DEFAULT_TYPE_GUARD) -> np.ndarray:
    """All types as an int64 (count, d) array with contiguous columns, rows
    lexicographically descending: the walk's columns, stacked."""
    walk = _walk(n, d, max_count)
    next(walk)
    cols = []
    for sizes, counts in walk:
        if sizes is not None:
            cols = [col.repeat(sizes) for col in cols]
        cols.append(counts)
    return np.stack(cols).T


def lattice_logs(n: int, log_q, max_count: int = DEFAULT_TYPE_GUARD, mults=None,
                 floor: float = -math.inf, ceiling: float = math.inf):
    """(log2 sequence probability, log2 class size) of every type under
    finite log2 q, in type_matrix's row order, with no counts matrix.

    Each prefix of the walk keeps only its running sum of c log2 q_j and of
    ln c!, repeated down to its children by the walk's sizes. A column
    standing for m tied symbols (mults[j] = m) counts m**c sequences for c
    of them: its ln c! becomes ln c! - c ln m.

    With a floor, only the types whose first log exceeds floor are built,
    each entry the full build's, in its row order; log_q must then be
    decreasing, as a spectrum's distinct values are. A child's best
    completion puts all that is left on the next symbol, so each prefix
    keeps its largest counts down to the last whose best completion clears
    the floor less a margin of 1e-9 (1 + |floor|) bits against roundoff:
    whole subtrees drop out, and logs > floor decides the rest. The guard
    still counts the full lattice.

    With a ceiling too, the entries are those whose first log lies in
    (floor, ceiling], and a third item sums what lies outside that band,
    exactly: (log2 count and log2 mass of the types above the ceiling, log2
    mass of those at or below the floor), each -inf for none. No subtree
    drops out. Over four or more values, a chain -- the leaves of a prefix that leaves
    rho for the last two values, falling by their gap -- builds only its
    leaves within the margin of the band; the leaves before and after enter
    from shifted partial sums over C(rho, i) x**(rho - i) y**i, (x, y) the
    last two values' multiplicities (a process-wide table), then over their
    masses (per call), read in log2 only where a chain ends. Over three or
    fewer the tables would be as large as the lattice, so every type is
    built. Built types outside the band join the sums.
    """
    log_q = np.asarray(log_q, dtype=float)
    d = log_q.size
    folded = [np.empty(0)] * 3

    def keep(j, rest):
        # a prefix's best completion puts all of rest on symbol j; each
        # count moved on to symbol j + 1 lowers it by the gap
        gap = log_q[j] - log_q[j + 1]
        best = logs + rest * log_q[j]
        kept = np.floor((best - floor + 1e-9 * (1.0 + abs(floor))) / gap) + 1.0
        if ceiling == math.inf:
            return 0, np.minimum(np.maximum(kept, 0), rest + 1).astype(np.int64)
        if j < d - 2:
            return 0, rest + 1
        # a chain's leaf i lies at best - i gap: those before first lie
        # above the ceiling by over the margin, those from end on below the floor
        first = np.ceil((best - ceiling - 1e-9 * (1.0 + abs(ceiling))) / gap)
        first = np.minimum(np.maximum(first, 0), rest + 1).astype(np.int64)
        end = np.minimum(np.maximum(kept, first), rest + 1).astype(np.int64)
        def at(top, sums, k):  # log2 of row rest's k-th shifted running sum
            return top.take(rest) + np.log2(sums.take(rest * sums.shape[1] + k))
        prefix = (table[n] - ln_classes - table[rest]) / LN2
        with np.errstate(divide="ignore"):  # an empty sum's log2 is -inf
            folded[:] = (prefix + at(*counts_above, first),
                         prefix + logs + at(*masses[:2], first),
                         prefix + logs + at(masses[0], masses[2], n + 1 - end))
        return first, end - first

    chains = ceiling < math.inf and d >= 4
    pruned = chains or (ceiling == math.inf and floor > -math.inf)
    walk = _walk(n, d, max_count, keep if pruned else None)
    next(walk)  # the checks, before any allocation
    table = _ln_factorials(n)[: n + 1]
    tables = [table if m == 1 else table - np.arange(n + 1) * math.log(m)
              for m in ([1] * d if mults is None else mults)]
    if chains:
        # leaf i of a chain of rho (i copies of value d - 1) at [rho, i]; the
        # sums over its first and its last k leaves at [rho, k]
        key = (1, 1) if mults is None else (int(mults[d - 2]), int(mults[d - 1]))
        rho, i = np.arange(n + 1)[:, None], np.arange(n + 1)
        entry = _CHAIN_COUNTS.get(key)
        if entry is None or entry[0].shape[0] <= n:
            # a racing thread may store a smaller table: its entries are the same
            leaves = (table[rho] - tables[d - 2][np.maximum(rho - i, 0)] - tables[d - 1][i]) / LN2
            leaves[i > rho] = -np.inf
            entry = _CHAIN_COUNTS[key] = (leaves, *shifted_cumsums(leaves)[:2])
        leaves, *counts_above = entry
        masses = shifted_cumsums(leaves[: n + 1, : n + 1]
                                 + ((rho - i) * log_q[d - 2] + i * log_q[d - 1]))
    logs, ln_classes, terms = np.zeros(1), np.zeros(1), np.empty(1)
    for j, (sizes, counts) in enumerate(walk):
        if sizes is not None:
            logs = logs.repeat(sizes)
            ln_classes = ln_classes.repeat(sizes)
            terms = np.empty(counts.size)
        logs += np.multiply(counts, log_q[j], out=terms)
        ln_classes += tables[j].take(counts, out=terms, mode="clip")
    del counts  # the last column's, as large as the result
    if ceiling < math.inf:
        np.subtract(table[n], ln_classes, out=ln_classes)
        ln_classes /= LN2
        above, below = logs > ceiling, logs <= floor
        mass = np.add(logs, ln_classes, out=terms)
        sums = tuple(float(np.logaddexp2(logsumexp2(chained), logsumexp2(built[out])))
                     for chained, built, out in zip(folded, (ln_classes, mass, mass),
                                                    (above, above, below)))
        inside = ~np.logical_or(above, below, out=above)
        return logs[inside], ln_classes[inside], sums
    if floor > -math.inf:
        above = logs > floor
        logs, ln_classes = logs[above], ln_classes[above]
    np.subtract(table[n], ln_classes, out=ln_classes)
    ln_classes /= LN2
    return logs, ln_classes


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

