"""Exact n-copy quantities: grouped product spectra and success exponents.

The n-fold product of a spectrum has d**n coefficients but only polynomially
many distinct values, one per type (fewer when the spectrum is degenerate).
grouped_spectrum collapses the product state to (log2 value, log2 count)
pairs; exact_success_prob then runs the single-copy threshold scan on the
groups entirely in log space, so the d = 2 fast path reaches n of several
thousand without underflow; with the numpy type lattice and a vectorized
scan, d = 3 at n = 2000 (about 2M types) takes about a second.

The failure probability is never formed as 1 - P. It is the exact sum of
per-group excess mass above the threshold, which stays accurate when P is
within 1e-300 of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import RateOutOfRangeError, SizeOutOfRangeError, SolverError
from .method_of_types import DEFAULT_TYPE_GUARD, log_multinomial_rows, type_matrix
from .numerics import LN2, log2_sub, logsumexp2
from .spectra import SchmidtSpectrum, shannon_entropy

#: groups whose log2 sequence probabilities differ by at most this merge
MERGE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GroupedSpectrum:
    """Distinct coefficient values of an n-copy product state.

    log_probs is strictly decreasing; log_mults counts how many product
    coefficients share each value (also a log2). The pairing satisfies
    logsumexp2(log_probs + log_mults) == 0 up to roundoff.
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


def _merge_groups(log_probs, log_mults):
    """Collapse runs of equal (within MERGE_TOL) descending log-probs."""
    if log_probs.size <= 1:
        return log_probs, log_mults
    gaps = log_probs[:-1] - log_probs[1:]
    starts = np.concatenate(([0], np.flatnonzero(gaps > MERGE_TOL) + 1))
    if starts.size == log_probs.size:
        return log_probs, log_mults
    merged = np.logaddexp2.reduceat(log_mults, starts)
    return log_probs[starts], merged


def grouped_spectrum(
    p: SchmidtSpectrum, n: int, max_types: int = DEFAULT_TYPE_GUARD
) -> GroupedSpectrum:
    """Group the coefficients of the n-copy product state by value."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = p.dim
    if d == 1:
        return GroupedSpectrum(np.zeros(1), np.zeros(1), n, 0.0)
    if d == 2:
        k = np.arange(n + 1, dtype=float)
        log_probs = (n - k) * p.log2[0] + k * p.log2[1]
        log_mults = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)) / LN2
    else:
        counts = type_matrix(n, d, max_types)
        log_probs = counts @ p.log2
        log_mults = log_multinomial_rows(counts)
        order = np.argsort(log_probs)[::-1]
        log_probs = log_probs[order]
        log_mults = log_mults[order]
    log_probs, log_mults = _merge_groups(log_probs, log_mults)
    return GroupedSpectrum(log_probs, log_mults, n, n * math.log2(d))


def _solve_grouped_threshold(spec: GroupedSpectrum, log2_size: float):
    """Threshold scan on a grouped spectrum, all in log2 space.

    Returns (log_t, k, log_success, log_failure) where k is the number of
    groups strictly above the threshold. Mirrors the single-copy scan: on
    the interval where exactly k groups lie above, the defining equation
    gives t = (tail mass) / (L - count above); the smallest such k wins.
    """
    lp = spec.log_probs
    lm = spec.log_mults
    # log count of the groups above k (none at k = 0), log tail mass from k on
    log_above = np.concatenate(([-np.inf], np.logaddexp2.accumulate(lm)[:-1]))
    log_tail = np.logaddexp2.accumulate((lm + lp)[::-1])[::-1]
    gap = log_above - log2_size
    # numpy's exp2/log1p differ from log2_sub's scalar ones by under 3e-12
    # bits while gap <= -1e-4, by up to 0.2 bits as gap nears 0 (numpy 2.4,
    # x86-64). So the vector tests, with slack, only nominate k; the scalar
    # tests decide on exactly the floats a k-by-k scan would compute.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_ts = log_tail - (log2_size + np.log1p(-np.exp2(gap)) / LN2)
        slack = 1e-9 + 1e-12 * np.abs(log_ts)
        upper = np.concatenate(([True], lp[:-1] > log_ts[1:] - slack[1:]))
        lower = log_ts >= lp - 1e-12 - slack
    # log_above never decreases, so the k with gap < 0 are the scan's prefix
    nominated = (gap < 0.0) & ((upper & lower) | (gap > -1e-4))
    for k in np.flatnonzero(nominated).tolist():
        log_t = log_tail[k] - log2_sub(log2_size, log_above[k])
        upper_ok = k == 0 or lp[k - 1] > log_t
        # the right edge tolerates roundoff: at an exact tie t = (value of
        # group k+1) this interval is the conventional answer
        lower_ok = log_t >= lp[k] - 1e-12
        if upper_ok and lower_ok:
            if k == 0:
                # nothing above the line: success is the whole unit mass
                log_success, log_failure = 0.0, -np.inf
            else:
                log_success = min(log_t + log2_size, 0.0)
                excess = lm[:k] + lp[:k]
                excess += np.log1p(-np.exp2(log_t - lp[:k])) / LN2
                log_failure = logsumexp2(excess)
            return log_t, k, log_success, log_failure
    raise SolverError(
        f"no threshold bracketed log2 size {log2_size}; grouped spectrum corrupt"
    )


def exact_success_prob(
    p: SchmidtSpectrum, n: int, log2_size: float, max_types: int = DEFAULT_TYPE_GUARD
) -> tuple[float, float]:
    """Optimal n-copy success probability at a target size of log2_size bits.

    Returns (log2 P, log2 (1-P)). The size must satisfy
    0 <= log2_size <= n log2 d; it is interpreted as an exact real, so pass
    log2 of an integer when the integer matters (the caller owns rounding).
    """
    spec = grouped_spectrum(p, n, max_types)
    if log2_size < -1e-12 or log2_size > spec.total_log_dim + 1e-12:
        raise SizeOutOfRangeError(
            f"log2 size {log2_size} outside [0, {spec.total_log_dim}]"
        )
    log2_size = min(max(log2_size, 0.0), spec.total_log_dim)
    _, _, log_success, log_failure = _solve_grouped_threshold(spec, log2_size)
    return log_success, log_failure


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


def exponent_sweep(
    p: SchmidtSpectrum,
    rate: float,
    n_list,
    regime: str,
    max_types: int = DEFAULT_TYPE_GUARD,
) -> list[ExponentSample]:
    """Empirical exponents of the optimal protocol at a fixed per-copy rate.

    regime "direct": requires -log2 p_1 < rate < H(p); the quantity of
    interest is the failure exponent. regime "converse": requires
    H(p) < rate < log2 d; the success exponent decays instead.
    """
    entropy = shannon_entropy(p)
    if regime == "direct":
        lo, hi = -float(p.log2[0]), entropy
    elif regime == "converse":
        lo, hi = entropy, math.log2(p.dim)
    else:
        raise ValueError(f"regime must be 'direct' or 'converse', not {regime!r}")
    if not (lo < rate < hi):
        raise RateOutOfRangeError(
            f"rate {rate} outside open interval ({lo}, {hi}) for {regime} regime"
        )
    samples = []
    for n in n_list:
        bits = _log2_size_for_rate(n, rate, n * math.log2(p.dim))
        log_success, log_failure = exact_success_prob(p, n, bits, max_types)
        samples.append(
            ExponentSample(
                n=int(n),
                rate=bits / n,
                failure_exponent=None if log_failure == -np.inf else -log_failure / n,
                success_exponent=None if log_success == -np.inf else -log_success / n,
            )
        )
    return samples
