"""Validated Schmidt spectra and the entropy functionals defined on them.

A bipartite pure state enters every computation here only through its
squared Schmidt coefficients: a strictly positive probability vector sorted
in decreasing order. On top of that vector this module provides

    shannon_entropy     H(p) = -sum p_i log2 p_i
    relative_entropy    D(q||p) = sum q_i log2(q_i / p_i)
    psi                 psi(s) = log2 sum_i p_i**s
    tilted              h_i(s) = p_i**s / sum_j p_j**s
    big_f               F(s) = -psi(s) - (1 - s) psi'(s) = D(h(s)||p)

and the two inverse maps of F: the solution s > 1 of F(s) = r (exists for
0 < r < -log2 p_1) and the solution 0 < s < 1 (exists for 0 < r < D(u||p)
with u uniform). Outside those ranges the solvers return the SATURATED
sentinel rather than failing, because the downstream yield curves are still
well defined constants there.

Everything is in bits (base-2 logs) and computed in log space, so the
p_i**s products stay finite for arbitrarily large tilts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptySpectrumError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonPositiveExponentError,
    NotNormalizedError,
)
from .numerics import LN2, bisect_for_value, logsumexp2

#: input probabilities may miss normalization by this much before we refuse
SUM_TOL = 1e-9

#: two spectrum entries closer than this are treated as tied
TIE_TOL = 1e-12


class Saturated:
    """Sentinel returned by the tilt solvers when the exponent saturates."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "SATURATED"


SATURATED = Saturated()


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Squared Schmidt coefficients: positive, descending, summing to one.

    Instances are immutable value objects; build them through new_spectrum,
    which strips zeros, sorts, and normalizes.
    """

    probs: np.ndarray

    def __post_init__(self):
        self.probs.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.probs.size)

    @cached_property
    def log2(self) -> np.ndarray:
        arr = np.log2(self.probs)
        arr.setflags(write=False)
        return arr

    @property
    def min_entropy(self) -> float:
        """-log2 p_1, written 0.0 - x so that d = 1 gives 0.0 and not -0.0."""
        return 0.0 - float(self.log2[0])

    @property
    def is_uniform(self) -> bool:
        """True when every coefficient is (numerically) equal."""
        return bool(self.probs[0] - self.probs[-1] <= TIE_TOL)

    def __repr__(self) -> str:
        return f"SchmidtSpectrum({np.array2string(self.probs, separator=', ')})"


def new_spectrum(values, renormalize: bool = False) -> SchmidtSpectrum:
    """Validate raw squared coefficients into a SchmidtSpectrum.

    Zeros are stripped, entries sorted descending, and the result is divided
    by its sum so the normalization invariant holds exactly. Without the
    `renormalize` flag the input sum must already be within SUM_TOL of one.
    NaN and infinite entries are refused before anything else is checked.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError(f"non-finite probability in {arr!r}")
    if arr.size == 0 or not np.any(arr > 0.0):
        raise EmptySpectrumError("spectrum needs at least one positive entry")
    if np.any(arr < 0.0):
        raise NegativeEntryError(f"negative probability in {arr!r}")
    total = float(arr.sum())
    if not renormalize and abs(total - 1.0) > SUM_TOL:
        raise NotNormalizedError(
            f"probabilities sum to {total!r}; pass renormalize=True to rescale"
        )
    arr = arr[arr > 0.0]
    arr = np.sort(arr)[::-1] / arr.sum()
    # subnormal entries can underflow to zero in the division; one more
    # pass removes them (the second renormalization cannot create zeros)
    if arr[-1] == 0.0:
        arr = arr[arr > 0.0]
        arr = arr / arr.sum()
    return SchmidtSpectrum(arr)


def tensor(p: SchmidtSpectrum, q: SchmidtSpectrum) -> SchmidtSpectrum:
    """Spectrum of a product state: all pairwise products, re-sorted."""
    return new_spectrum(np.outer(p.probs, q.probs).ravel(), renormalize=True)


def _as_prob_vector(q) -> np.ndarray:
    if isinstance(q, SchmidtSpectrum):
        return q.probs
    dist = getattr(q, "distribution", None)
    if callable(dist):
        return np.asarray(dist(), dtype=float)
    return np.asarray(q, dtype=float)


def shannon_entropy(p: SchmidtSpectrum) -> float:
    """H(p) in bits; zero for a product state, log2 d for a flat spectrum."""
    return 0.0 - float(p.probs @ p.log2)


def relative_entropy(q, p: SchmidtSpectrum) -> float:
    """D(q||p) in bits with 0 log 0 = 0; +inf where q puts mass off p's support.

    q may be a SchmidtSpectrum, a type composition, or a plain probability
    vector over the same (sorted) index set as p.
    """
    qv = _as_prob_vector(q)
    if qv.size != p.dim:
        raise DimensionMismatchError(f"q has {qv.size} entries, p has {p.dim}")
    mask = qv > 0.0
    if np.any(p.probs[mask] == 0.0):
        return float(np.inf)
    qm = qv[mask]
    return float(qm @ (np.log2(qm) - p.log2[mask]))


def psi(p: SchmidtSpectrum, s: float) -> float:
    """psi(s) = log2 sum_i p_i**s, as a log-sum-exp over s * log2 p_i."""
    return logsumexp2(s * p.log2)


def _tilt(p: SchmidtSpectrum, s: float) -> tuple[float, np.ndarray, float]:
    """(psi(s), h(s), psi'(s)) from one log-sum-exp; the functions below read it."""
    scaled = s * p.log2
    value = logsumexp2(scaled)
    h = np.exp2(scaled - value)
    return value, h, float(h @ p.log2)


def tilted(p: SchmidtSpectrum, s: float) -> SchmidtSpectrum:
    """Tilted family member h(s); h(1) = p and h(0) is uniform on the support."""
    return new_spectrum(_tilt(p, s)[1], renormalize=True)


def psi_derivatives(p: SchmidtSpectrum, s: float) -> tuple[float, float]:
    """(psi'(s), psi''(s)) with psi' in bits.

    psi'(s) = sum h_i(s) log2 p_i and psi''(s) = ln2 * Var_h(log2 p); the
    variance is clipped at zero to absorb roundoff on flat spectra.
    """
    _, h, prime = _tilt(p, s)
    second = LN2 * float(h @ (p.log2**2) - prime**2)
    return prime, max(second, 0.0)


def big_f(p: SchmidtSpectrum, s: float) -> float:
    """F(s) = -psi(s) - (1-s) psi'(s); equals D(h(s)||p).

    F(1) = 0; F decreases to 0 on [0,1] from D(u||p) and increases toward
    -log2 p_1 for s > 1.
    """
    value, _, prime = _tilt(p, s)
    return -value - (1.0 - s) * prime


def divergence_from_uniform(p: SchmidtSpectrum) -> float:
    """D(u||p) for u uniform over p's support; the converse saturation point."""
    return 0.0 - float(np.log2(p.dim) + p.log2.mean())


@dataclass(frozen=True, eq=False)
class TiltedFamilyPoint:
    """Everything the tilted family knows at one value of s."""

    s: float
    h: SchmidtSpectrum
    psi: float
    psi_prime: float
    psi_double_prime: float
    f_value: float


def tilted_point(p: SchmidtSpectrum, s: float) -> TiltedFamilyPoint:
    """Evaluate the tilted distribution and all functionals at one tilt."""
    value, h, prime = _tilt(p, s)
    return TiltedFamilyPoint(
        s=s,
        h=new_spectrum(h, renormalize=True),
        psi=value,
        psi_prime=prime,
        psi_double_prime=psi_derivatives(p, s)[1],
        f_value=-value - (1.0 - s) * prime,
    )


def tilted_entropy(p: SchmidtSpectrum, s: float) -> float:
    """H(h(s)) = psi(s) - s psi'(s), monotone decreasing in s."""
    value, _, prime = _tilt(p, s)
    return value - s * prime


def solve_s_plus(p: SchmidtSpectrum, r: float):
    """The unique s > 1 with F(s) = r, or SATURATED when r >= -log2 p_1.

    Uniform spectra have F identically zero, so every positive r saturates.
    The bracket doubles from s = 2 until F exceeds r (cap numerics.BRACKET_CAP).
    """
    if r <= 0.0:
        raise NonPositiveExponentError(f"exponent must be positive, got {r!r}")
    if p.is_uniform or r >= p.min_entropy:
        return SATURATED
    return bisect_for_value(lambda s: big_f(p, s), r, 1.0, increasing=True)


def solve_s_minus(p: SchmidtSpectrum, r: float):
    """The unique 0 < s < 1 with F(s) = r, or SATURATED when r >= D(u||p)."""
    if r <= 0.0:
        raise NonPositiveExponentError(f"exponent must be positive, got {r!r}")
    if p.is_uniform or r >= divergence_from_uniform(p):
        return SATURATED
    return bisect_for_value(lambda s: big_f(p, s), r, 0.0, 1.0, increasing=False)
