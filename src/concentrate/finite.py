"""Single-copy concentration: optimal probability and the threshold protocol.

Distilling a maximally entangled state of size L from a spectrum p succeeds
with probability at most

    P_L = min_{1 <= l <= L}  L / (L - l + 1) * sum_{i >= l} p_i,

and the optimum is achieved by a two-outcome measurement that truncates the
spectrum at a threshold t: coefficients above t are damped to t, the rest
pass through. The threshold is pinned by L = sum_i min(1, p_i / t), which
makes P_L = t * L an exact identity.

With coefficients in groups of equal value p_0 > p_1 > ..., A_k the count
above group k and T_k the mass from it on, the breakpoint B_k = A_k + T_k/p_k
is the size whose threshold sits on p_k. It never decreases in k, so the
first k with B_k >= L has k groups above t and t = T_k / (L - A_k).
_breakpoint_search runs this in log2 space for solve_plan and for iid's
n-copy types; types that share a value have equal breakpoints, so the first
wins, as at any tie within TIE_BITS. It lands on k = 0 for L up to
floor(2**TIE_BITS / p_1), deterministic_yield: nothing is damped, so P = 1
exactly, since P is read as 1 minus the damped mass while that mass is below
1/2 (as iid does) and as t*L otherwise. At every size it works in blocks
of BLOCK groups: one shifted sum per block of counts and of masses gives
B_k at each block start, and the element-wise log-space chains run only
inside the one or two blocks that hold k. Within a bit of the top it reads
the count from the end, as it reads T_k: L - A_k is C_k - R there, with C_k
the count from group k on and R = 2**top - L, so nothing cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeOutOfRangeError
from .numerics import LN2, log2_sub, logsumexp2
from .spectra import SchmidtSpectrum, _require_spectrum, new_spectrum

#: log2 allowance on t at a tie t = p_k (the smallest k wins), iid's shared type values too
TIE_BITS = 1e-12
#: groups per block of the breakpoint search's shifted sums
BLOCK = 512


@dataclass(frozen=True, eq=False)
class ConcentrationPlan:
    """A solved truncation protocol for one (spectrum, L) pair.

    cut_index is 1-based: entries before it, above t by over TIE_BITS, are
    damped by sqrt(t / p_i); the rest pass with coefficient 1. failure_prob
    is the damped mass sum_{i < cut_index} (p_i - t), 0.0 when none is;
    success_prob is 1 - failure_prob while that is below 1/2, else t * L.
    """

    target_size: int
    threshold: float
    cut_index: int
    success_prob: float
    failure_prob: float
    measurement_coeffs: np.ndarray

    def __post_init__(self):
        self.measurement_coeffs.setflags(write=False)


def _check_size(p: SchmidtSpectrum, target_size: int) -> None:
    _require_spectrum(p)
    if not (1 <= target_size <= p.dim):
        raise SizeOutOfRangeError(
            f"size {target_size} outside [1, {p.dim}] for this spectrum"
        )


def deterministic_yield(p: SchmidtSpectrum) -> int:
    """Largest size distillable with probability one: Vidal's floor(1 / p_1),
    read with TIE_BITS, so the largest L that solve_plan puts at k = 0."""
    _require_spectrum(p)
    return math.floor(2.0**TIE_BITS / float(p.probs[0]))


def optimal_probability(p: SchmidtSpectrum, target_size: int) -> float:
    """Optimal success probability for target size L, by direct minimization."""
    _check_size(p, target_size)
    L = target_size
    # suffix[l-1] = sum_{i=l}^{d} p_i for 1-based l
    suffix = np.cumsum(p.probs[::-1])[::-1]
    l = np.arange(1, L + 1)
    # the l=1 term is sum(p) which can land an ulp above 1 after validation
    return float(min(np.min(L * suffix[:L] / (L - l + 1)), 1.0))


def _block_logsums(values, buffer):
    """log2 of the sum of 2**values over each BLOCK entries, the last block
    possibly shorter: logsumexp2's shifted pairwise sum of each block, bit
    for bit. The full blocks are shifted in buffer, which may be values."""
    full = values.size - values.size % BLOCK
    rows, shifted = values[:full].reshape(-1, BLOCK), buffer[:full].reshape(-1, BLOCK)
    top = np.maximum.reduce(rows, axis=1)
    np.subtract(rows, top[:, None], out=shifted)
    sums = top + np.log2(np.add.reduce(np.exp2(shifted, out=shifted), axis=1))
    return np.concatenate((sums, [logsumexp2(values[full:])])) if full < values.size else sums


def _first_hit(base, reach, log_tail, log_probs):
    """The first k with B_k >= L, as base + T_k / p_k >= reach, the allowance
    on T_k / p_k (so on t) included; None if there is none."""
    hits = np.logaddexp2(base, log_tail - log_probs + TIE_BITS) >= reach
    return int(hits.argmax()) if hits.any() else None


def _chain(seed, values):
    """log2 of the running sums of 2**values after 2**seed, seed first."""
    return np.logaddexp2.accumulate(np.concatenate(([seed], values)))


def _breakpoint_search(log_probs, log_mults, log2_size: float, top: float):
    """The module doc's rule on groups of non-increasing log2 values and log2
    counts whose total is 2**top. Returns (k, log2 T_k, log2 (L - A_k)); a
    tie within TIE_BITS of t goes to the smaller k."""
    lp, lm = log_probs, log_mults
    near = log2_size > top - 1.0
    if near:
        rest = -math.expm1((log2_size - top) * LN2)  # R / 2**top
        log_rest = top + math.log2(rest) if rest > 0.0 else -math.inf

    def sides(count):
        # B_k >= L as base + T_k / p_k >= reach, group k admitted while
        # base < reach: A_k against L, or near the top R against C_k
        return (log_rest, count) if near else (count, log2_size)

    # count[b] is A before block b, or C from block b on; tail[b] is T from
    # block b on. The first block start with B_k >= L points at the block
    # before it and its own; with none, k is in the last admitted block.
    count = tail = (-math.inf, -math.inf)
    blocks = [0]
    if lm.size > BLOCK:
        buffer = lm + lp
        tail = _chain(-np.inf, _block_logsums(buffer, buffer)[::-1])[::-1]
        sums = _block_logsums(lm, buffer)
        count = _chain(-np.inf, sums[::-1])[::-1] if near else _chain(-np.inf, sums)
        last = int(np.count_nonzero(np.less(*sides(count[:-1])))) - 1
        first = _first_hit(*sides(count[: last + 1]), tail[: last + 1],
                           lp[: (last + 1) * BLOCK : BLOCK])
        blocks = [last] if first is None else range(max(first - 1, 0), first + 1)
    for b in blocks:
        # in a block the count chains on from the neighbouring block sum, and
        # the mass from k on chains back from the groups past the admitted
        # ones, which take one shifted sum with the blocks after
        start = b * BLOCK
        block_lm, block_lp = lm[start : start + BLOCK], lp[start : start + BLOCK]
        mass = block_lm + block_lp
        if near:
            block_count = _chain(count[b + 1], block_lm[::-1])[:0:-1]
        else:
            block_count = _chain(count[b], block_lm[:-1])
        admitted = int(np.count_nonzero(np.less(*sides(block_count))))
        block_count = block_count[:admitted]
        seed = logsumexp2(mass[admitted:])
        if tail[b + 1] > -math.inf:
            seed = np.logaddexp2(seed, tail[b + 1])
        log_tail = _chain(seed, mass[:admitted][::-1])[:0:-1]
        k = _first_hit(*sides(block_count), log_tail, block_lp[:admitted])
        if k is not None:
            break
    k = admitted - 1 if k is None else k  # a miss is roundoff
    base, reach = sides(block_count[k])
    return start + k, log_tail[k], log2_sub(reach, base)


def solve_plan(p: SchmidtSpectrum, target_size: int) -> ConcentrationPlan:
    """Solve the truncation threshold and assemble the full protocol."""
    _check_size(p, target_size)
    L = target_size
    probs = p.probs
    suffix = np.cumsum(probs[::-1])[::-1]
    # group k is the first at or below t, a = A_k entries above it: t = T_k / (L - a)
    k = _breakpoint_search(p.log2[p.starts], np.log2(p.mults), math.log2(L),
                           math.log2(p.dim))[0]
    a = int(p.starts[k])
    t = suffix[a] / (L - a)
    failure = float(np.sum(probs[:a] - t))
    return ConcentrationPlan(
        target_size=L,
        threshold=float(t),
        cut_index=a + 1,
        success_prob=1.0 - failure if failure < 0.5 else float(min(t * L, 1.0)),
        failure_prob=failure,
        measurement_coeffs=np.concatenate((np.sqrt(t / probs[:a]), np.ones(probs.size - a))),
    )


def post_measurement_spectrum(
    plan: ConcentrationPlan, p: SchmidtSpectrum
) -> SchmidtSpectrum:
    """Spectrum after a successful truncation outcome.

    The first cut_index - 1 entries are clipped to t, over the new sum P:
    they equal t / P = 1/L, so the result concentrates deterministically to size >= L.
    """
    _require_spectrum(p)
    clipped = p.probs.copy()
    clipped[: plan.cut_index - 1] = plan.threshold
    return new_spectrum(clipped, renormalize=True)
