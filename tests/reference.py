"""Independent routes the tests check the package against, each written once:
compositions of n; the counts route (ln_factorial, log_type_class_size,
log_sequence_prob), whose bits lattice_logs reproduces; the n-copy product
as a full spectrum and in exact integers (ExactProduct); the n-copy lattice
in mpmath (Lattice); the tilted family in mpmath (family, f_root); and
high-precision sums of floats.

Every mpmath computation runs under mpmath.workdps(dps), 50 digits (for
Lattice, 50 past n log10 d) unless the caller asks otherwise, and returns
floats, so no result depends on the process-wide mpmath precision, which
any module may set. This is the only test module that imports mpmath.
"""

import bisect
import collections
import functools
import itertools
import math
import operator
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np

from concentrate import new_spectrum
from concentrate.finite import TIE_BITS
from concentrate.numerics import LN2

#: digits of every mpmath reference unless a caller asks otherwise
DPS = 50


def compositions(n, d):
    """Every composition of n into d parts, an int64 (m, d) array in
    lexicographically descending order, as type_matrix lists its rows."""
    heads = itertools.product(range(n, -1, -1), repeat=d - 1)
    rows = [head + (n - sum(head),) for head in heads if sum(head) <= n]
    return np.array(rows, dtype=np.int64).reshape(-1, d)


def ln_factorial(c):
    """ln c! by the package's table rule: math.log(c!) up to c = 170,
    math.lgamma(c + 1) above."""
    return math.log(math.factorial(c)) if c <= 170 else math.lgamma(c + 1)


def log_type_class_size(counts):
    """log2 n! / prod_j counts_j! of each counts row (rows may differ in n),
    the ln c! summed over the columns left to right."""
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.sum(axis=-1)
    table = np.array([ln_factorial(c) for c in range(int(np.max(n)) + 1)])
    classes = sum(table[counts[..., j]] for j in range(counts.shape[-1]))
    return (table[n] - classes) / LN2


def log_sequence_prob(counts, log_q):
    """sum_j counts_j log_q[j] of each counts row, the log2 probability of
    one sequence of that type, the columns added left to right."""
    counts = np.asarray(counts, dtype=np.int64)
    return sum(counts[..., j] * log_q[j] for j in range(len(log_q)))


def full_product_spectrum(p, n):
    """Every coefficient of the n-copy state, materialized."""
    values = [
        math.prod(combo) for combo in itertools.product(p.probs.tolist(), repeat=n)
    ]
    return new_spectrum(values, renormalize=True)


def _pow2(x):
    """2**x for a Fraction x, to 40 digits, as a Fraction."""
    with localcontext(Context(prec=40)):
        return Fraction(Decimal(2) ** (Decimal(x.numerator) / Decimal(x.denominator)))


TIE = _pow2(Fraction(TIE_BITS))


class ExactProduct:
    """The n-copy product state in exact integers.

    Floats are dyadic: p_i = a_i / 2**e with integer a_i, so each product
    coefficient is an integer value over 2**(n e). Groups are the distinct
    values, largest first, with their multinomial counts.
    """

    def __init__(self, p, n):
        probs = [Fraction(q) for q in p.probs.tolist()]
        denominator = max(q.denominator for q in probs)
        self.shift = n * (denominator.bit_length() - 1)
        # powers[i][c] = a_i**c, factorials[c] = c!
        powers = [[*itertools.accumulate([int(q * denominator)] * n, initial=1,
                                          func=lambda x, y: x * y)] for q in probs]
        factorials = [*itertools.accumulate(range(1, n + 1), initial=1,
                                            func=lambda x, y: x * y)]
        counts = collections.Counter()
        for row in compositions(n, p.dim).tolist():
            value = math.prod([column[c] for column, c in zip(powers, row)])
            counts[value] += factorials[n] // math.prod([factorials[c] for c in row])
        self.values = sorted(counts, reverse=True)
        self.counts = [counts[v] for v in self.values]
        masses = [m * v for m, v in zip(self.counts, self.values)]
        self.above = [0, *itertools.accumulate(self.counts)]  # A_k; A_G = d**n
        self.tails = [*itertools.accumulate(masses[::-1])][::-1] + [0]  # T_k

    def log_success(self, bits, top):
        """(log2 P, log2 (1 - P)) at size L = d**n 2**(bits - top).

        B_k = A_k + T_k / v_k never decreases, so bisect for the first
        B_k >= L; then, as the scan does at a tie, step down while
        t = T_k / (L - A_k) stays within TIE_BITS of v_k at the k below.
        """
        size = self.above[-1] * _pow2(Fraction(bits) - Fraction(top))
        ln, ld = size.numerator, size.denominator
        a, tail, v = self.above, self.tails, self.values
        k = bisect.bisect_left(
            range(len(v)), True, key=lambda j: (a[j] * v[j] + tail[j]) * ld >= ln * v[j]
        )
        while k > 0 and tail[k - 1] * TIE.numerator * ld >= (
            (ln - a[k - 1] * ld) * v[k - 1] * TIE.denominator
        ):
            k -= 1
        if k == 0:
            return 0.0, -math.inf
        room = ln - a[k] * ld  # (L - A_k) ld
        log_p = math.log2(tail[k]) + math.log2(ln) - math.log2(room) - self.shift
        # excess above t: sum_{j<k} m_j (v_j - t) = (S_k room - T_k A_k ld) / room
        excess = (tail[0] - tail[k]) * room - tail[k] * a[k] * ld
        if excess <= 0:
            return min(log_p, 0.0), -math.inf
        return min(log_p, 0.0), math.log2(excess) - math.log2(room) - self.shift


def _log2(x):
    """log2 x of a non-negative mpf as a float, -inf at zero."""
    return float(mpmath.log(x, 2)) if x > 0 else -math.inf


class Lattice:
    """The n-copy product of probs in dps-digit mpmath, one entry per type:
    class size n! / prod c_j! from a table of c!, value prod q_j**c_j.

    Types are kept in compositions' row order for log2_sums, and sorted by
    value, largest first, for the threshold scan: with A_k the count above
    type k and T_k the mass from it on, the first k whose breakpoint
    A_k + T_k / v_k reaches L, stepped down as ExactProduct steps over ties
    within TIE_BITS, gives t = T_k / (L - A_k) and P = t L. L - A_k loses
    log10(L / (L - A_k)) of the dps digits, at most n log10 d at L = d**n,
    so dps defaults to DPS more than that.
    """

    def __init__(self, probs, n, dps=None):
        dps = DPS + math.ceil(n * math.log10(len(probs))) if dps is None else dps
        self.digits = dps
        rows = compositions(n, len(probs)).tolist()
        self.count = len(rows)
        self.top = n * math.log2(len(probs))  # exact_success_prob's float n log2 d
        with mpmath.workdps(dps):
            one, zero = mpmath.mpf(1), mpmath.mpf(0)
            inverses = [*itertools.accumulate(range(1, n + 1), initial=one,
                                              func=lambda x, c: x / c)]  # 1 / c!
            powers = [[*itertools.accumulate([mpmath.mpf(float(q))] * n, initial=one,
                                             func=operator.mul)] for q in probs]
            # n! rides on the first column's table: d - 1 products a size
            whole = 1 / inverses[n]
            tables = [[whole * x for x in inverses], *[inverses] * (len(probs) - 1)]
            self.sizes = [functools.reduce(operator.mul, [t[c] for t, c in zip(tables, row)])
                          for row in rows]
            values = [functools.reduce(operator.mul, [t[c] for t, c in zip(powers, row)])
                      for row in rows]
            self.masses = [size * value for size, value in zip(self.sizes, values)]
            # the counts route's float order is off only at near-ties: few swaps
            rough = np.argsort(-log_sequence_prob(rows, np.log2(probs)), kind="stable")
            order = sorted(rough.tolist(), key=values.__getitem__, reverse=True)
            self.counts = [self.sizes[i] for i in order]
            self.values = [values[i] for i in order]
            masses = [self.masses[i] for i in order]
            self.above = [*itertools.accumulate(self.counts, initial=zero)]
            self.mass_above = [*itertools.accumulate(masses, initial=zero)]
            self.tails = [*itertools.accumulate(masses[::-1], initial=zero)][::-1]
            self.tie = mpmath.mpf(2) ** -TIE_BITS
            self.kept = mpmath.mpf(10) ** (20 - dps)  # 20 digits left after cancelling
            self.full = mpmath.mpf(len(probs)) ** n  # the size the float top stands for

    def log2_sums(self, select=None):
        """(log2 count, log2 mass) of the types a boolean mask in row order
        selects, of every type without one; -inf for none."""
        select = [True] * self.count if select is None else select
        with mpmath.workdps(self.digits):
            return (_log2(mpmath.fsum(s for s, keep in zip(self.sizes, select) if keep)),
                    _log2(mpmath.fsum(m for m, keep in zip(self.masses, select) if keep)))

    def log2_breakpoint(self, k):
        """log2 of the size whose threshold sits on the k-th largest value."""
        with mpmath.workdps(self.digits):
            return _log2(self.above[k] + self.tails[k] / self.values[k])

    def log2_probs(self, log2_size):
        """(log2 P, log2 (1 - P)) at the size 2**log2_size, d**n exactly at the
        float n log2 d, as exact_success_prob reads it; 1 - P is the mass
        above t less t for each coefficient above it, read from the prefix
        sums while that keeps 20 digits and summed term by term, each
        positive, when it does not."""
        with mpmath.workdps(self.digits):
            size = self.full if log2_size == self.top else mpmath.mpf(2) ** float(log2_size)
            a, tail, v = self.above, self.tails, self.values
            k = bisect.bisect_left(range(self.count), True,
                                   key=lambda j: a[j] + tail[j] / v[j] >= size)
            k = min(k, self.count - 1)  # L = d**n by roundoff of the count
            while k > 0 and tail[k - 1] >= (size - a[k - 1]) * v[k - 1] * self.tie:
                k -= 1
            t = tail[k] / (size - a[k])
            excess = self.mass_above[k] - t * a[k]
            if excess < self.mass_above[k] * self.kept:
                excess = mpmath.fsum(c * (x - t) for c, x in zip(self.counts[:k], v))
            return _log2(t * size), _log2(excess)


def _family(probs):
    """s -> (psi, psi', psi'', F, H) of probs in mpmath at the working
    precision."""
    p = [mpmath.mpf(float(x)) for x in probs]
    logs = [mpmath.log(x, 2) for x in p]

    def at(s):
        s = mpmath.mpf(s)
        w = [mpmath.power(x, s) for x in p]
        z = mpmath.fsum(w)
        m1 = mpmath.fsum(a * b for a, b in zip(w, logs)) / z
        m2 = mpmath.fsum(a * b * b for a, b in zip(w, logs)) / z
        psi = mpmath.log(z, 2)
        return psi, m1, mpmath.log(2) * (m2 - m1 * m1), -psi - (1 - s) * m1, psi - s * m1

    return at


def family(probs, s, dps=DPS):
    """The tilted family of probs at tilt s, summed directly, as floats in
    TiltedFamilyPoint's order: psi = log2 sum p**s, psi' = E_h[log2 p],
    psi'' = ln 2 Var_h(log2 p), F = -psi - (1 - s) psi' = D(h||p) and
    H(h) = psi - s psi'. At s = 1, H is the entropy of probs; at s = 0, F is
    D(u||probs)."""
    with mpmath.workdps(dps):
        return tuple(float(v) for v in _family(probs)(s))


def f_root(probs, r, start, dps=DPS):
    """The tilt with F = r that mpmath.findroot reaches from start."""
    with mpmath.workdps(dps):
        at = _family(probs)
        return float(mpmath.findroot(lambda s: at(s)[3] - r, mpmath.mpf(start)))


def log2_sum(values, less=(), dps=DPS):
    """log2 (sum 2**values - sum 2**less) of floats; -inf if not positive."""
    with mpmath.workdps(dps):
        two = mpmath.mpf(2)
        return _log2(mpmath.fsum(two ** float(v) for v in values)
                     - mpmath.fsum(two ** float(v) for v in less))


def ln_factorial_ulps(value, c, dps=DPS):
    """|value - ln c!| in units in the last place of ln c!."""
    with mpmath.workdps(dps):
        exact = mpmath.loggamma(c + 1)
        return float(abs(mpmath.mpf(value) - exact) / math.ulp(float(exact) or 1.0))
