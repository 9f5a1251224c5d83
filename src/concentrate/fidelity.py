"""Conversions between probabilistic concentration and high-fidelity output.

A scheme that produces a size-L maximally entangled state with probability P
can always be flattened into a deterministic map whose output has fidelity
P * L / T to the size-T target (mixing the failure branch in; the overlap
between the two targets is L/T). In the other direction, fidelity 1 - eps
to a size-T target with eps < 1/6 buys back an exact size
floor(T (1 - 6 eps) / 6) with probability 1 - 6 eps, and any fidelity F at
all guarantees some (P, L) with sqrt(P L) >= (sqrt(T F) - 1) / ln T. That
last bound is the one place in this package where a natural log is correct.

verify_fidelity_conversion and verify_recovery_bound execute the
constructions behind the two bounds on a concrete spectrum and report every
intermediate check, so the inequalities can be property-tested in bulk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EpsTooLargeError,
    SizeOrderError,
    SizeOutOfRangeError,
    TTooSmallError,
)
from .finite import deterministic_yield
from .spectra import SchmidtSpectrum, _require_spectrum, new_spectrum

#: coefficients at or above (1 + sqrt(2))**2 / T get projected out
STRIP_CONSTANT = (1.0 + math.sqrt(2.0)) ** 2


def prob_to_fidelity(success_prob: float, size: int, target_size: int) -> float:
    """Fidelity achievable deterministically: P * L / T (needs L <= T)."""
    if not (0.0 < success_prob <= 1.0):
        raise ValueError(f"success probability must be in (0, 1], got {success_prob}")
    if size > target_size:
        raise SizeOrderError(f"need L <= T, got L={size}, T={target_size}")
    if size < 1:
        raise SizeOutOfRangeError(f"size must be >= 1, got {size}")
    return success_prob * size / target_size


def fidelity_to_prob_params(target_size: int, eps: float) -> tuple[int, float]:
    """(L, P) recovered from fidelity 1 - eps to a size-T target.

    L = floor(T (1 - 6 eps) / 6) and P = 1 - 6 eps; eps must be below 1/6
    and T large enough that L comes out >= 1.
    """
    if not (0.0 <= eps < 1.0 / 6.0):
        raise EpsTooLargeError(f"eps must lie in [0, 1/6), got {eps}")
    if target_size < 7:
        raise TTooSmallError(f"need T >= 7, got {target_size}")
    bound = 1.0 - 6.0 * eps
    size = math.floor(target_size * bound / 6.0)
    if size < 1:
        raise TTooSmallError(
            f"T={target_size} with eps={eps} yields an empty output size"
        )
    return size, bound


def recovery_bound(target_size: int, fidelity: float) -> float:
    """(sqrt(T F) - 1) / ln T;  natural log, and negative (vacuous) if TF < 1."""
    if target_size < 2:
        raise SizeOutOfRangeError(f"need T >= 2, got {target_size}")
    if not (0.0 < fidelity <= 1.0):
        raise ValueError(f"fidelity must be in (0, 1], got {fidelity}")
    return (math.sqrt(target_size * fidelity) - 1.0) / math.log(target_size)


def best_fidelity_to_target(p: SchmidtSpectrum, target_size: int) -> float:
    """Optimal fidelity of the spectrum to a size-T maximally entangled state.

    With both states written in the aligned basis the overlap is maximized
    by keeping the T largest coefficients: (sum_{i<=T} sqrt(p_i))**2 / T.
    """
    _require_spectrum(p)
    if not (1 <= target_size <= p.dim):
        raise SizeOutOfRangeError(
            f"target size {target_size} outside [1, {p.dim}]"
        )
    root_sum = float(np.sqrt(p.probs[:target_size]).sum())
    return min(root_sum**2 / target_size, 1.0)


@dataclass(frozen=True)
class RecoveryBoundCheck:
    """Threshold scan versus the fidelity lower bound on sqrt(P L)."""

    target_size: int
    fidelity: float
    bound: float
    best_sqrt_pl: float
    best_threshold_index: int
    holds: bool


def verify_recovery_bound(p: SchmidtSpectrum, target_size: int) -> RecoveryBoundCheck:
    """Scan one threshold t = p_k per group; max sqrt(P L) must clear the bound.

    At threshold t the implied size is the breakpoint sum_i min(1, p_i / t)
    = (count of p_i >= t) + (mass below t) / t, real valued, where the
    count is the end of t's group, and the success probability is
    sum_i min(t, p_i) = t * size, so sqrt(P L) = size * sqrt(t). The first
    maximum wins; its index is the first entry of its group.
    """
    fid = best_fidelity_to_target(p, target_size)
    bound = recovery_bound(target_size, fid)
    probs, starts = p.probs, p.starts
    count = np.concatenate((starts[1:], [p.dim]))
    below = np.concatenate((probs[::-1].cumsum()[::-1], [0.0]))[count]
    heads = probs[starts]
    values = (count + below / heads) * np.sqrt(heads)
    k = int(np.argmax(values))
    best = float(values[k])
    return RecoveryBoundCheck(
        target_size=target_size,
        fidelity=fid,
        bound=bound,
        best_sqrt_pl=best,
        best_threshold_index=int(starts[k]) + 1,
        holds=best >= bound,
    )


@dataclass(frozen=True)
class FidelityConversionCheck:
    """The project-then-concentrate construction, check by check.

    eps is the fidelity defect to the size-T target; stripping the
    coefficients at or above (1+sqrt2)**2 / T removes mass delta <= 6 eps,
    the renormalized remainder is flat enough that its deterministic yield
    reaches floor(T (1 - 6 eps) / 6), and the protocol keeps probability
    1 - delta >= 1 - 6 eps.
    """

    target_size: int
    eps: float
    strip_threshold: float
    stripped_count: int
    stripped_mass: float
    promised_size: int
    achieved_size: int
    remainder_max: float
    remainder_cap: float
    mass_ok: bool
    cap_ok: bool
    size_ok: bool
    prob_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.mass_ok and self.cap_ok and self.size_ok and self.prob_ok


def verify_fidelity_conversion(p: SchmidtSpectrum, target_size: int) -> FidelityConversionCheck:
    """Run the constructive fidelity-to-probability protocol on p."""
    eps = 1.0 - best_fidelity_to_target(p, target_size)
    if eps >= 1.0 / 6.0:
        raise EpsTooLargeError(
            f"fidelity defect {eps} is not below 1/6 for T={target_size}"
        )
    strip_at = STRIP_CONSTANT / target_size
    keep = p.probs < strip_at
    stripped = int(np.sum(~keep))
    delta = float(p.probs[~keep].sum())
    remainder = new_spectrum(p.probs[keep], renormalize=True)
    promised = math.floor(target_size * (1.0 - 6.0 * eps) / 6.0)
    achieved = deterministic_yield(remainder)
    cap = 6.0 / (target_size * (1.0 - 6.0 * eps))
    return FidelityConversionCheck(
        target_size=target_size,
        eps=eps,
        strip_threshold=strip_at,
        stripped_count=stripped,
        stripped_mass=delta,
        promised_size=promised,
        achieved_size=achieved,
        remainder_max=float(remainder.probs[0]),
        remainder_cap=cap,
        mass_ok=delta <= 6.0 * eps,
        cap_ok=float(remainder.probs[0]) <= cap,
        size_ok=achieved >= promised,
        prob_ok=(1.0 - delta) >= (1.0 - 6.0 * eps),
    )
