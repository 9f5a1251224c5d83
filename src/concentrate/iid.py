"""Exact n-copy quantities: grouped product spectra and success exponents.

The n-fold product of a spectrum has d**n coefficients but only polynomially
many types. grouped_spectrum collapses it to (log2 value, log2 count) pairs,
one per type: lattice_logs (method_of_types) gives every type's log2 value
and log2 class size over the d' distinct values (m tied entries add counts
log2 m to a type's count) with no counts matrix, and one argsort orders
them. Types share a value only when ratios of log p are rational, as in a
geometric spectrum; they stay separate, and the breakpoint search settles
such a tie at the threshold as it settles any other. exact_success_prob
runs the threshold protocol's breakpoint search (finite) on the groups in
log space. Every size up to d**n has an answer; at d**n, log2 P =
n log2(d p_d). d = 2 reaches n of several thousand without underflow.
Below n H(p) it builds only the types above 1/(2L) and answers from them
when P >= 1/2; above n H(p), only those in a band around the threshold,
the rest entering the search as two exact sums. Over three or more values
a lattice of at most BLOCK types is built whole, 90-122 us a call against
95-172 by band or cut up to 496 types at d = 3 and 455 at d = 4 (the band
wins from about 666 and 560); over two values the whole lattice's
log2 (1 - P) drifts (1.6e-11 bits at n = 461), so the cut holds. On one
core of a shared host, d = 3 at n = 2000 (about 2M types) takes 0.007-0.06
s of CPU and 32-48 MiB peak RSS at direct rates 30-95% of the way from
-log2 p_1 to H(p), 0.11-0.20 s and 107-118 MiB at converse rates 20-80% of
the way to log2 d (over three values every type is still built); d = 4 at
n = 400 (10.8M types), 0.008-0.17 s and 33-106 MiB, 0.06-0.12 s and 48-60 MiB.

While P >= 1/2, 1 - P is the exact sum of per-group excess mass above the
threshold, accurate when P is within 1e-300 of one; whichever of P and
1 - P is below 1/2 gives the other by log1p, never by subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RateOutOfRangeError, SizeOutOfRangeError
from .finite import BLOCK, _breakpoint_search
from .method_of_types import DEFAULT_TYPE_GUARD, count_types, lattice_logs
from .numerics import LN2, logsumexp2
from .spectra import SchmidtSpectrum, _require_spectrum, shannon_entropy, solve_tilts


@dataclass(frozen=True, eq=False)
class GroupedSpectrum:
    """Coefficient values of an n-copy product state, one entry per type.

    log_probs is non-increasing (types of a geometric spectrum can share a
    value); log_mults counts each type's product coefficients (also a log2).
    The pairing satisfies logsumexp2(log_probs + log_mults) == 0 up to roundoff.
    """

    log_probs: np.ndarray
    log_mults: np.ndarray
    n: int
    total_log_dim: float

    def __post_init__(self):
        self.log_probs.setflags(write=False)
        self.log_mults.setflags(write=False)

    @property
    def group_count(self) -> int:
        return int(self.log_probs.size)

    def normalization_defect(self) -> float:
        """log2 of total mass; zero for an exactly normalized spectrum."""
        return logsumexp2(self.log_probs + self.log_mults)


def grouped_spectrum(
    p: SchmidtSpectrum, n: int, max_types: int = DEFAULT_TYPE_GUARD
) -> GroupedSpectrum:
    """The n-copy product state's coefficients, one entry per type, largest first."""
    _require_spectrum(p)
    log_probs, log_mults = lattice_logs(n, p.log2[p.starts], max_types, p.mults)
    order = log_probs.argsort()[::-1]
    return GroupedSpectrum(log_probs[order], log_mults[order], n, n * math.log2(p.dim))


def _solve_grouped_threshold(spec: GroupedSpectrum, log2_size: float):
    """The threshold protocol on a grouped spectrum, all in log2 space.

    Returns (log_t, k, log_success, log_failure) where k is the number of
    groups strictly above the threshold t = T_k / (L - A_k).
    """
    lp, lm = spec.log_probs, spec.log_mults
    k, log_tail, log_room = _breakpoint_search(lp, lm, log2_size, spec.total_log_dim)
    log_t = log_tail - log_room
    if k == 0:
        # nothing above the line: success is the whole unit mass
        return log_t, k, 0.0, -np.inf
    log_success = min(log_t + log2_size, 0.0)
    if log_success < -1.0:
        # P < 1/2: log1p(-P) is exact, where the excess mass adds up to ~1
        return log_t, k, log_success, math.log1p(-(2.0**log_success)) / LN2
    excess = lm[:k] + lp[:k]
    excess += np.log1p(-np.exp2(log_t - lp[:k])) / LN2
    log_failure = min(logsumexp2(excess), 0.0)
    if log_failure < -1.0:
        # 1 - P < 1/2: log_t + log2_size cancels to ulp(log2 L), log1p does not
        log_success = math.log1p(-(2.0**log_failure)) / LN2
    return log_t, k, log_success, log_failure


def exact_success_prob(
    p: SchmidtSpectrum, n: int, log2_size: float, max_types: int = DEFAULT_TYPE_GUARD,
    tilt=None,
) -> tuple[float, float]:
    """Optimal n-copy success probability at a target size of log2_size bits.

    Returns (log2 P, log2 (1-P)) as floats. The size must satisfy
    0 <= log2_size <= n log2 d; it is interpreted as an exact real, so pass
    log2 of an integer when the integer matters (the caller owns rounding).
    tilt, a converse_rate point of solve_tilts at any rate, sets the band's
    ceiling above n H(p); without one it is solved at log2_size / n there.

    A bit or more below n log2 d (where the search counts the groups above
    t), on over BLOCK types or at most two values, only the types with log2
    values in a band (f, c] around log2 t are built, by lattice_logs, whose
    guard still counts the whole lattice, and one argsort orders them.

    - Below n H(p), f = -log2 L - 1 and c = +inf. The types left out enter
      the search as one group at value 2**f holding their mass, 1 minus the
      kept mass by log1p, so the band is tried only while that is at most 1/2.
    - Above n H(p), c is _ceiling's, a bit or more above t by Hoelder's
      bound on P, and f = c - _band_width. The types above c enter first as
      one group of their count A at value M/A, M their mass; those at or
      below f enter last as one group at 2**f holding their mass. Both are
      lattice_logs' sums, never a rest: t is tiny and the mass above it
      close to 1 here.

    The answer stands iff f + 1e-9 < log2 t < c - 1e-9: then the groups
    above t, their count, their excess (M - t A for the first group) and
    the mass from t on are the whole lattice's. Otherwise the whole lattice
    answers.
    """
    _require_spectrum(p)
    top = n * math.log2(p.dim)
    if log2_size < -1e-12 or log2_size > top + 1e-12:
        raise SizeOutOfRangeError(f"log2 size {log2_size} outside [0, {top}]")
    log2_size = min(max(log2_size, 0.0), top)
    entropy_bits = n * shannon_entropy(p)
    if (log2_size <= top - 1.0 and log2_size != entropy_bits
            and (p.starts.size < 3 or count_types(n, p.starts.size) > BLOCK)):
        if log2_size < entropy_bits:
            floor, ceiling = -log2_size - 1.0, math.inf
        else:
            if tilt is None:
                tilt = solve_tilts(p, [log2_size / n], "converse_rate")[0]
            ceiling = _ceiling(n, log2_size, tilt)
            floor = ceiling - _band_width(n, tilt)
        answer = _band_answer(p, n, log2_size, max_types, floor, ceiling)
        if answer is not None:
            return answer
    spec = grouped_spectrum(p, n, max_types)
    _, _, log_success, log_failure = _solve_grouped_threshold(spec, log2_size)
    return float(log_success), float(log_failure)


def _ceiling(n: int, log2_size: float, tilt) -> float:
    """c: one bit above Hoelder's bound on log2 t = log2 (P / L) at the tilt
    0 < s < 1. sum min(lambda, t) <= sum lambda**s t**(1-s) = t**(1-s) Z(s)**n
    gives log2 P <= (n psi(s) - (1 - s) log2 L) / s, -n E* at the
    converse_rate tilt of the rate log2 L / n and above it at any other."""
    s = tilt.s
    return (n * tilt.psi - (1.0 - s) * log2_size) / s - log2_size + 1.0


def _band_width(n: int, tilt) -> float:
    """Bits from the ceiling down to the floor. The Hoelder sum exceeds
    sum min(lambda, t) by about the saddle's width, sqrt(n), and the bound
    divides its log by s. On 995 random converse calls (d = 2-5, n up to
    3000, spectra with entries far below 1e-3 among them) log2 t lay at most
    1 + (0.5 log2(n + 1) + 0.99) / s bits below the bound; a width of
    2 + d log2(n + 1) missed 14 of them and held 2.6 times the types."""
    return 2.0 + (0.5 * math.log2(n + 1) + 2.0) / tilt.s


def _band_answer(p, n, log2_size, max_types, floor, ceiling):
    """exact_success_prob from the types in (floor, ceiling], or None if t
    lies outside the band."""
    built = lattice_logs(n, p.log2[p.starts], max_types, p.mults, floor, ceiling)
    order = built[0].argsort()[::-1]
    log_probs, log_mults = built[0][order], built[1][order]
    if ceiling < math.inf:
        log_count, log_mass, below = built[2]
    else:
        # below n H(p) the rest is 1 minus the kept mass, by log1p
        log_count = log_mass = -math.inf
        kept = logsumexp2(log_probs + log_mults)
        if kept > -1.0:
            return None
        below = math.log1p(-(2.0**kept)) / LN2
    # the types above the band lead as one group, those below it close as one
    above = ([log_mass - log_count], [log_count]) if log_count > -math.inf else ([], [])
    under = ([floor], [below - floor]) if below > -math.inf else ([], [])
    spec = GroupedSpectrum(np.concatenate((above[0], log_probs, under[0])),
                           np.concatenate((above[1], log_mults, under[1])),
                           n, n * math.log2(p.dim))
    log_t, _, log_success, log_failure = _solve_grouped_threshold(spec, log2_size)
    if floor + 1e-9 < log_t < ceiling - 1e-9:
        return float(log_success), float(log_failure)
    return None


@dataclass(frozen=True)
class ExponentSample:
    """One point of an empirical exponent sequence.

    rate is the per-copy log2 of the size actually used, which differs from
    the requested rate by the integer rounding of the size. Whichever of the
    two exponents is undefined (failure at P = 1) is None.
    """

    n: int
    rate: float
    failure_exponent: float | None
    success_exponent: float | None


def _log2_size_for_rate(n: int, rate: float, cap_bits: float) -> float:
    """log2 of ceil(2**(n * rate)) clipped into [1, 2**cap_bits]."""
    bits = n * rate
    if bits <= 52.0:
        size = max(1, math.ceil(2.0**bits))
        bits = math.log2(size)
    # beyond 52 bits the ceil shifts log2 by less than one ulp
    return min(max(bits, 0.0), cap_bits)


def _regime(p: SchmidtSpectrum, rate: float) -> str:
    """A rate's regime: direct on (-log2 p_1, H(p)), converse on (H(p), log2 d)."""
    entropy = shannon_entropy(p)
    if p.min_entropy < rate < entropy:
        return "direct"
    if entropy < rate < math.log2(p.dim):
        return "converse"
    raise RateOutOfRangeError(
        f"rate {rate} is outside both regime intervals for this spectrum"
    )


def exponent_sweep(
    p: SchmidtSpectrum,
    rate: float,
    n_list,
    max_types: int = DEFAULT_TYPE_GUARD,
    tilt=None,
) -> list[ExponentSample]:
    """Empirical exponents of the optimal protocol at a fixed per-copy rate.

    The rate must lie in the direct regime (-log2 p_1, H(p)), where the
    failure exponent is the quantity of interest, or in the converse regime
    (H(p), log2 d), where the success exponent decays instead. There, tilt
    is the converse_rate point of solve_tilts at the rate, solved once for
    every n when not given.
    """
    if _regime(p, rate) == "converse" and tilt is None:
        tilt = solve_tilts(p, [rate], "converse_rate")[0]
    samples = []
    for n in n_list:
        bits = _log2_size_for_rate(n, rate, n * math.log2(p.dim))
        log_success, log_failure = exact_success_prob(p, n, bits, max_types, tilt)
        samples.append(
            ExponentSample(
                n=int(n),
                rate=bits / n,
                failure_exponent=None if log_failure == -np.inf else -log_failure / n,
                success_exponent=None if log_success == -np.inf else -log_success / n,
            )
        )
    return samples
