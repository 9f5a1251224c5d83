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
E and h(s-) (0 < s < 1) for E*, with F(s) = r pinning the tilt. A whole
grid of exponents takes one batched solve (direct_curve, converse_curve) of
a few O(d) steps, which returns psi with every tilt, and each point equals
its single-point value bit for bit.
E saturates at -log2 p_1 once r >= -log2 p_1 and E* saturates at log2 d
once r >= D(u||p); an interior value that rounds past its plateau is clamped
on it, so neither curve leaves [-log2 p_1, log2 d].

Along the converse branch dE*/dr = s/(1-s), which is one at s = 1/2, so the
slope-one point is r' = F(1/2) in closed form. Past it the fidelity-converse
line is E*(r') + r - r' = r + 2 psi(1/2) = r + H_{1/2}(p), the Renyi-1/2
entropy; on a flat spectrum that is r + log2 d.

brute_force_curves evaluates both defining simplex optimizations exactly
over a grid (d <= 3), row by row with bisections run on every row at once.
It exists purely as an independent oracle for the parametric route and is
deliberately kept free of the tilted-family machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLargeError,
    RateOutOfRangeError,
)
from .spectra import (
    SchmidtSpectrum,
    _require_positive,
    _require_spectrum,
    shannon_entropy,
    solve_tilts,
    tensor,
    tilted_point,
)

REGIME_INTERIOR = "interior"
REGIME_SATURATED_LOW = "saturated-low"
REGIME_SATURATED_HIGH = "saturated-high"
REGIME_LINEAR = "linear"

#: default slack on nonadditivity_report's verdicts, in bits
NONADDITIVITY_TOL = 1e-9


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


def direct_yield(p: SchmidtSpectrum, r: float) -> RateCurvePoint:
    """E(r): decreasing from H(p) at r -> 0 to the -log2 p_1 plateau."""
    return direct_curve(p, [r])[0]


def converse_yield(p: SchmidtSpectrum, r: float) -> RateCurvePoint:
    """E*(r): increasing from H(p) at r -> 0 to the log2 d plateau at D(u||p)."""
    return converse_curve(p, [r])[0]


def direct_curve(p: SchmidtSpectrum, r_values) -> list[RateCurvePoint]:
    """direct_yield at each exponent of r_values: one tilt solve, clamped on the plateau."""
    _require_spectrum(p)
    floor = p.min_entropy
    return [
        RateCurvePoint(r, floor, REGIME_SATURATED_HIGH) if pt is None
        else RateCurvePoint(r, max((r + pt.psi) / (1.0 - pt.s), floor),
                            REGIME_INTERIOR, pt.s)
        for r, pt in zip(r_values, solve_tilts(p, r_values, "s_plus"))
    ]


def converse_curve(p: SchmidtSpectrum, r_values) -> list[RateCurvePoint]:
    """converse_yield at each exponent of r_values: one tilt solve, clamped on the plateau."""
    _require_spectrum(p)
    top = math.log2(p.dim)
    return [
        RateCurvePoint(r, top, REGIME_SATURATED_LOW) if pt is None
        else RateCurvePoint(r, min((pt.s * r + pt.psi) / (1.0 - pt.s), top),
                            REGIME_INTERIOR, pt.s)
        for r, pt in zip(r_values, solve_tilts(p, r_values, "s_minus"))
    ]


def fidelity_direct_yield(p: SchmidtSpectrum, r: float) -> RateCurvePoint:
    """Yield against the fidelity-defect exponent; identical to direct_yield."""
    return direct_yield(p, r)


@dataclass(frozen=True)
class RPrimeResult:
    """The slope-one point r' of the converse curve and the line past it.

    renyi_half is H_{1/2}(p) = 2 psi(1/2), the Renyi-1/2 entropy. On a
    uniform spectrum the curve is flat and no slope-one point exists; value
    is 0 by convention and degenerate is set.
    """

    value: float
    renyi_half: float
    degenerate: bool = False

    def line(self, r: float) -> RateCurvePoint:
        """The fidelity-converse yield past r', the line r + H_{1/2}(p)."""
        return RateCurvePoint(r, r + self.renyi_half, REGIME_LINEAR)


def r_prime(p: SchmidtSpectrum) -> RPrimeResult:
    """The slope-one point of the converse curve, r' = F(1/2).

    dE*/dr = s/(1-s) along the tilted family, so the slope passes through
    one exactly at the tilt s = 1/2. F(1/2) and psi(1/2) are one kernel pass.
    """
    half = tilted_point(p, 0.5)
    return RPrimeResult(0.0 if p.is_uniform else half.f_value, 2.0 * half.psi, p.is_uniform)


def fidelity_converse_yield(p: SchmidtSpectrum, r: float) -> RateCurvePoint:
    """E*_F(r): follows E*(r) up to r', then the line r + H_{1/2}(p).

    Uniform spectra are on the line r + log2 d from the start, which for a
    product state (d = 1) is the bare line E*_F(r) = r.
    """
    _require_positive(r)
    rp = r_prime(p)
    return converse_yield(p, r) if r <= rp.value else rp.line(r)


def inverse_direct(p: SchmidtSpectrum, rate: float) -> float:
    """The exponent r with E(r) = rate, for -log2 p_1 <= rate < H(p).

    Solves D(h(s)||p) + H(h(s)) = rate for s > 1 (the combination equals
    -psi'(s), strictly decreasing) and returns F(s). At the lower endpoint
    the optimizer escapes to infinity; the limit is the divergence of the
    flat distribution on the m_1 tied maximal coefficients, -log2(m_1 p_1).
    Near-flat tops raise SolverError (root past the bracket cap). An
    exponent that rounds below zero next to H(p) is clamped at 0.
    """
    _require_spectrum(p)
    floor = p.min_entropy
    entropy = shannon_entropy(p)
    if not (floor <= rate < entropy):
        raise RateOutOfRangeError(f"rate {rate} outside [{floor}, {entropy})")
    if rate == floor:
        return -math.log2(p.mults[0] * p.probs[0])
    return max(solve_tilts(p, [rate], "direct_rate")[0].f_value, 0.0)


def inverse_converse(p: SchmidtSpectrum, rate: float, tilt=None) -> float:
    """The exponent r with E*(r) = rate, for H(p) < rate < log2 d.

    Solves H(h(s)) = rate on 0 < s < 1 and returns F(s); round-trips with
    converse_yield on the interior; clamped at 0 like inverse_direct. tilt,
    the converse_rate point of solve_tilts at this rate, skips the solve.
    """
    entropy = shannon_entropy(p)
    top = math.log2(p.dim)
    if not (entropy < rate < top):
        raise RateOutOfRangeError(f"rate {rate} outside ({entropy}, {top})")
    if tilt is None:
        tilt = solve_tilts(p, [rate], "converse_rate")[0]
    return max(tilt.f_value, 0.0)


# ---------------------------------------------------------------------------
# simplex-grid oracles
# ---------------------------------------------------------------------------


def _last_true(holds, lo, hi):
    """Per lane, the last index in [lo, hi) at which holds is true, for a
    test true at lo and true on a prefix: one bisection over every lane."""
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        ok = holds(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return lo


def _grid_curves(p, r_values, g):
    """Exact grid optima of both curves for d = 2 or 3; see brute_force_curves."""
    # d = 2 is the row i = 0 of a d = 3 grid whose first symbol has log2 p = 0
    lp = np.log2(np.concatenate((np.ones(3 - p.size), p)))
    rows = np.arange(g + 1 if p.size == 3 else 1)
    frac = np.arange(g + 1) / g
    tab = frac * np.log2(frac, out=np.zeros_like(frac), where=frac > 0)

    def at(i, j):
        """(cross, entropy) at the grid point with counts (i, j, g - i - j)."""
        x, y = i / g, j / g
        cross = -(x * lp[0] + y * lp[1] + (1.0 - x - y) * lp[2])
        return cross, -(tab[i] + tab[j] + tab[g - i - j])

    def div(i, j):
        return np.subtract(*at(i, j))

    m = g - rows
    # each row's first argmin: the last j whose backward difference is negative
    j_min = _last_true(
        lambda j: (j == 0) | (div(rows, j) < div(rows, np.maximum(j - 1, 0))),
        np.zeros_like(m), m + 1,
    )
    div_min = div(rows, j_min)
    peak = m // 2
    peak = np.where(at(rows, m - peak)[1] > at(rows, peak)[1], m - peak, peak)
    direct, converse = np.empty(len(r_values)), np.empty(len(r_values))
    for k, r in enumerate(r_values):
        feasible = div_min <= r
        if not feasible.any():
            # r below the grid's divergence resolution: report the point
            # closest to feasibility, matching the r -> 0 limit
            nearest = np.argmin(div_min)
            direct[k], converse[k] = at(rows[nearest], j_min[nearest])
            continue
        i, j = rows[feasible], j_min[feasible]
        hi = _last_true(lambda t: div(i, t) <= r, j, m[feasible] + 1)
        lo = j - _last_true(lambda t: div(i, j - t) <= r, np.zeros_like(j), j + 1)
        cross, entropy = at(i, np.stack((lo, hi, np.clip(peak[feasible], lo, hi))))
        direct[k], converse[k] = cross[:2].min(), entropy.max()
    return direct, converse


def brute_force_curves(
    p: SchmidtSpectrum, r_values, grid_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Both oracle curves, exact over the grid q = counts / grid_steps.

    Returns (direct, converse) arrays aligned with r_values; accuracy is
    O(1/grid_steps) in the optimizer. Supports d <= 3 only; d = 1 gives
    zeros. Row i fixes the first count and j = 0..m the second, m =
    grid_steps - i; d = 2 is the one row i = 0. Along a row D(q||p) is
    convex, D(q||p) + H(q) linear and H(q) concave, so {D(q||p) <= r} is an
    interval about the divergence's argmin, E sits at one of its ends and
    E* at an end or at the peak m // 2 (or m - m // 2) clipped into it.
    Bisections on every row at once find the argmin, then both ends per
    exponent. When r falls below the divergence of the grid point nearest
    to p (possible only for r comparable to 1/grid_steps**2), that point
    stands in for the empty feasible set, matching the r -> 0 limit.
    """
    _require_spectrum(p)
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
    return _grid_curves(p.probs, r_arr, grid_steps)


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
    rho: SchmidtSpectrum, sigma: SchmidtSpectrum, r: float,
    tolerance: float = NONADDITIVITY_TOL,
) -> NonAdditivityReport:
    """Evaluate the product-state yield relations at exponent r."""
    _require_positive(r)
    e_half_rho, e_rho = (pt.yield_bits for pt in direct_curve(rho, [0.5 * r, r]))
    e_half_sigma, e_sigma = (pt.yield_bits for pt in direct_curve(sigma, [0.5 * r, r]))
    e_joint = direct_yield(tensor(rho, sigma), r).yield_bits
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
