"""Asymptotic yield curves, their inverses, and brute-force grid oracles.

Four curves map an exponent r > 0 to Bell pairs per copy:

    direct_yield             E(r)   = min_{D(q||p) <= r} { D(q||p) + H(q) }
    converse_yield           E*(r)  = max_{D(q||p) <= r} H(q)
    fidelity_direct_yield    equal to E(r)
    fidelity_converse_yield  E*(r) up to the slope-one point r', then the
                             straight line r + H_{1/2}(p)

E governs how fast the failure probability of an optimal scheme can decay
while the yield stays above the entropy floor; E* governs the forced decay
of the success probability when the yield exceeds the entropy. Both are
computed through the tilted family h(s): the optimizer is h(s+) (s > 1) for
E and h(s-) (0 < s < 1) for E*, with F(s) = r pinning the tilt, so the cost
is independent of the spectrum dimension. E saturates at -log2 p_1 once
r >= -log2 p_1 and E* saturates at log2 d once r >= D(u||p).

Along the converse branch dE*/dr = s/(1-s), which is one at s = 1/2, so the
slope-one point is r' = F(1/2) in closed form. Past it the fidelity-converse
line is E*(r') + r - r' = r + 2 psi(1/2) = r + H_{1/2}(p), the Renyi-1/2
entropy; on a flat spectrum that is r + log2 d.

brute_force_direct / brute_force_converse evaluate the defining simplex
optimizations literally on a grid (d <= 3). They exist purely as
independent oracles for the parametric route and are deliberately kept free
of the tilted-family machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLargeError,
    NonPositiveExponentError,
    RateOutOfRangeError,
)
from .numerics import bisect_for_value, expand_bracket
from .spectra import (
    SATURATED,
    SchmidtSpectrum,
    big_f,
    psi,
    psi_derivatives,
    shannon_entropy,
    solve_s_minus,
    solve_s_plus,
    tensor,
    tilted_entropy,
)

REGIME_INTERIOR = "interior"
REGIME_SATURATED_LOW = "saturated-low"
REGIME_SATURATED_HIGH = "saturated-high"
REGIME_LINEAR = "linear"


@dataclass(frozen=True)
class RateCurvePoint:
    """One evaluated point (r, yield) plus which branch produced it.

    s_star is the optimizing tilt for interior points and None on the
    saturated plateaus and the linear fidelity-converse segment.
    """

    r: float
    yield_bits: float
    regime: str
    s_star: float | None = None


def _require_positive(r: float) -> None:
    if not r > 0.0:
        raise NonPositiveExponentError(f"exponent must be > 0, got {r!r}")


def direct_yield(p: SchmidtSpectrum, r: float) -> RateCurvePoint:
    """E(r): decreasing from H(p) at r -> 0 to the -log2 p_1 plateau."""
    _require_positive(r)
    s = solve_s_plus(p, r)
    if s is SATURATED:
        return RateCurvePoint(r, -float(p.log2[0]), REGIME_SATURATED_HIGH)
    return RateCurvePoint(r, (r + psi(p, s)) / (1.0 - s), REGIME_INTERIOR, s)


def converse_yield(p: SchmidtSpectrum, r: float) -> RateCurvePoint:
    """E*(r): increasing from H(p) at r -> 0 to the log2 d plateau at D(u||p)."""
    _require_positive(r)
    s = solve_s_minus(p, r)
    if s is SATURATED:
        return RateCurvePoint(r, math.log2(p.dim), REGIME_SATURATED_LOW)
    return RateCurvePoint(r, (s * r + psi(p, s)) / (1.0 - s), REGIME_INTERIOR, s)


def fidelity_direct_yield(p: SchmidtSpectrum, r: float) -> RateCurvePoint:
    """Yield against the fidelity-defect exponent; identical to direct_yield."""
    return direct_yield(p, r)


@dataclass(frozen=True)
class RPrimeResult:
    """Location of the slope-one point of the converse curve.

    On a uniform spectrum the curve is flat and no slope-one point exists;
    value is 0 by convention and degenerate is set.
    """

    value: float
    degenerate: bool = False


def r_prime(p: SchmidtSpectrum) -> RPrimeResult:
    """The slope-one point of the converse curve, r' = F(1/2).

    dE*/dr = s/(1-s) along the tilted family, so the slope passes through
    one exactly at the tilt s = 1/2.
    """
    if p.is_uniform:
        return RPrimeResult(0.0, degenerate=True)
    return RPrimeResult(big_f(p, 0.5))


def fidelity_converse_yield(p: SchmidtSpectrum, r: float) -> RateCurvePoint:
    """E*_F(r): follows E*(r) up to r', then the line r + H_{1/2}(p).

    H_{1/2}(p) = 2 psi(1/2) is the Renyi-1/2 entropy. Uniform spectra are on
    the line r + log2 d from the start, which for a product state (d = 1) is
    the bare line E*_F(r) = r.
    """
    _require_positive(r)
    if r <= r_prime(p).value:
        return converse_yield(p, r)
    return RateCurvePoint(r, r + 2.0 * psi(p, 0.5), REGIME_LINEAR)


def inverse_direct(p: SchmidtSpectrum, rate: float) -> float:
    """The exponent r with E(r) = rate, for -log2 p_1 <= rate < H(p).

    Solves D(h(s)||p) + H(h(s)) = rate for s > 1 (the combination equals
    -psi'(s), strictly decreasing) and returns F(s). At the lower endpoint
    the optimizer escapes to infinity; the limit is the divergence of the
    flat distribution on the maximal coefficients. Near-flat tops raise
    SolverError (root past the bracket cap).
    """
    floor = -float(p.log2[0])
    entropy = shannon_entropy(p)
    if not (floor <= rate < entropy):
        raise RateOutOfRangeError(f"rate {rate} outside [{floor}, {entropy})")
    if rate == floor:
        ties = int(np.sum(p.probs >= p.probs[0] * (1.0 - 1e-12)))
        return -math.log2(ties * float(p.probs[0]))

    def objective(s):
        return -psi_derivatives(p, s)[0]

    hi = expand_bracket(lambda s: -objective(s), -rate, 2.0)
    s = bisect_for_value(objective, rate, 1.0, hi, increasing=False)
    return big_f(p, s)


def inverse_converse(p: SchmidtSpectrum, rate: float) -> float:
    """The exponent r with E*(r) = rate, for H(p) < rate < log2 d.

    Solves H(h(s)) = rate on 0 < s < 1 and returns F(s); round-trips with
    converse_yield on the interior.
    """
    entropy = shannon_entropy(p)
    top = math.log2(p.dim)
    if not (entropy < rate < top):
        raise RateOutOfRangeError(f"rate {rate} outside ({entropy}, {top})")
    s = bisect_for_value(
        lambda s: tilted_entropy(p, s), rate, 0.0, 1.0, increasing=False
    )
    return big_f(p, s)


# ---------------------------------------------------------------------------
# simplex-grid oracles
# ---------------------------------------------------------------------------


def _xlog2x_table(g: int) -> np.ndarray:
    k = np.arange(g + 1, dtype=float)
    out = np.zeros(g + 1)
    out[1:] = (k[1:] / g) * np.log2(k[1:] / g)
    return out


def _grid_curves_d2(p, r_values, g):
    lp = np.log2(p)
    tab = _xlog2x_table(g)
    entropy = -(tab + tab[::-1])
    x = np.arange(g + 1, dtype=float) / g
    cross = -(x * lp[0] + (1.0 - x) * lp[1])
    div = cross - entropy
    nearest = int(np.argmin(div))
    direct = np.empty(len(r_values))
    converse = np.empty(len(r_values))
    for i, r in enumerate(r_values):
        feasible = div <= r
        if not feasible.any():
            # r below the grid's divergence resolution: report the point
            # closest to feasibility, matching the r -> 0 limit
            direct[i] = cross[nearest]
            converse[i] = entropy[nearest]
            continue
        direct[i] = cross[feasible].min()
        converse[i] = entropy[feasible].max()
    return direct, converse


def _grid_curves_d3(p, r_values, g):
    """Exact grid optima via one scan of the simplex rows.

    Along a row (first coordinate fixed) the divergence is a convex
    sequence, so its feasible set is an index interval found with two
    searchsorted calls; the direct objective is linear on the row (optimum
    at an interval endpoint) and the entropy is concave (optimum at the
    clipped unconstrained argmax). This reproduces the full-enumeration
    result exactly at a fraction of the cost.
    """
    lp = np.log2(p)
    tab = _xlog2x_table(g)
    r_arr = np.asarray(r_values, dtype=float)
    direct = np.full(r_arr.size, np.inf)
    converse = np.full(r_arr.size, -np.inf)
    nearest = (np.inf, np.nan, np.nan)  # (div, cross, entropy) closest to p
    slope = (lp[1] - lp[2]) / g
    for i in range(g + 1):
        m = g - i
        j = np.arange(m + 1)
        cross = -(i * lp[0] + m * lp[2]) / g - slope * j
        entropy = -(tab[i] + tab[: m + 1] + tab[: m + 1][::-1])
        div = cross - entropy
        j_min = int(np.argmin(div))
        if div[j_min] < nearest[0]:
            nearest = (div[j_min], cross[j_min], entropy[j_min])
        feasible = div[j_min] <= r_arr
        if not feasible.any():
            continue
        j_hi = j_min + np.searchsorted(div[j_min:], r_arr, side="right") - 1
        j_lo = j_min - (np.searchsorted(div[: j_min + 1][::-1], r_arr, side="right") - 1)
        lo = j_lo[feasible]
        hi = j_hi[feasible]
        direct[feasible] = np.minimum(
            direct[feasible], np.minimum(cross[lo], cross[hi])
        )
        j_peak = np.clip(int(np.argmax(entropy)), lo, hi)
        best = np.maximum(entropy[j_peak], np.maximum(entropy[lo], entropy[hi]))
        converse[feasible] = np.maximum(converse[feasible], best)
    never = ~np.isfinite(direct)
    if never.any():
        # below grid resolution: fall back to the point closest to p
        direct[never] = nearest[1]
        converse[never] = nearest[2]
    return direct, converse


def brute_force_curves(
    p: SchmidtSpectrum, r_values, grid_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Both grid-oracle curves for a batch of exponents in one grid pass.

    Returns (direct, converse) arrays aligned with r_values; accuracy is
    O(1/grid_steps) in the optimizer. Supports d <= 3 only. When r falls
    below the divergence of the grid point nearest to p (possible only for
    r comparable to 1/grid_steps**2), that nearest point stands in for the
    empty feasible set, matching the r -> 0 limit.
    """
    if p.dim > 3:
        raise DimensionTooLargeError(f"grid oracle supports d <= 3, got {p.dim}")
    if grid_steps < 1:
        raise ValueError("grid_steps must be >= 1")
    r_arr = [float(r) for r in np.atleast_1d(r_values)]
    for r in r_arr:
        _require_positive(r)
    if p.dim == 1:
        z = np.zeros(len(r_arr))
        return z, z.copy()
    if p.dim == 2:
        return _grid_curves_d2(p.probs, r_arr, grid_steps)
    return _grid_curves_d3(p.probs, r_arr, grid_steps)


def brute_force_direct(p: SchmidtSpectrum, r: float, grid_steps: int) -> float:
    """min over grid {q : D(q||p) <= r} of D(q||p) + H(q), evaluated literally."""
    return float(brute_force_curves(p, [r], grid_steps)[0][0])


def brute_force_converse(p: SchmidtSpectrum, r: float, grid_steps: int) -> float:
    """max over grid {q : D(q||p) <= r} of H(q), evaluated literally."""
    return float(brute_force_curves(p, [r], grid_steps)[1][0])


# ---------------------------------------------------------------------------
# composite-system (non-additivity) report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonAdditivityReport:
    """Direct yields of two states and their products at matched exponents.

    The verdicts record, at the stated tolerance, that splitting the
    exponent is subadditive, that the half-exponent identity
    E_{r/2}(rho) = E_r(rho x rho) / 2 holds, that a mixed product never
    beats the average of the squared ones, and that concentrating jointly
    is superadditive.
    """

    r: float
    e_rho: float
    e_sigma: float
    e_joint: float
    e_half_rho: float
    e_half_sigma: float
    e_rho_rho: float
    e_sigma_sigma: float
    subadditive_ok: bool
    half_identity_ok: bool
    average_ok: bool
    superadditive_ok: bool
    tolerance: float


def nonadditivity_report(
    rho: SchmidtSpectrum, sigma: SchmidtSpectrum, r: float, tolerance: float = 1e-9
) -> NonAdditivityReport:
    """Evaluate the product-state yield relations at exponent r."""
    _require_positive(r)
    e_rho = direct_yield(rho, r).yield_bits
    e_sigma = direct_yield(sigma, r).yield_bits
    e_joint = direct_yield(tensor(rho, sigma), r).yield_bits
    e_half_rho = direct_yield(rho, 0.5 * r).yield_bits
    e_half_sigma = direct_yield(sigma, 0.5 * r).yield_bits
    e_rho_rho = direct_yield(tensor(rho, rho), r).yield_bits
    e_sigma_sigma = direct_yield(tensor(sigma, sigma), r).yield_bits
    return NonAdditivityReport(
        r=r,
        e_rho=e_rho,
        e_sigma=e_sigma,
        e_joint=e_joint,
        e_half_rho=e_half_rho,
        e_half_sigma=e_half_sigma,
        e_rho_rho=e_rho_rho,
        e_sigma_sigma=e_sigma_sigma,
        subadditive_ok=e_joint <= e_half_rho + e_half_sigma + tolerance,
        half_identity_ok=abs(e_half_rho - 0.5 * e_rho_rho) <= tolerance,
        average_ok=e_joint <= 0.5 * (e_rho_rho + e_sigma_sigma) + tolerance,
        superadditive_ok=e_joint >= e_rho + e_sigma - tolerance,
        tolerance=tolerance,
    )
