"""Validated Schmidt spectra and the entropy functionals defined on them.

A bipartite pure state enters every computation here only through its
squared Schmidt coefficients: a strictly positive probability vector sorted
in decreasing order. new_spectrum decides its ties once (SNAP_TOL) and
builds it with its groups: runs of equal entries, stored by their first
indices, with multiplicities m. On top of it are

    shannon_entropy     H(p) = -sum p_i log2 p_i
    relative_entropy    D(q||p) = sum q_i log2(q_i / p_i)
    tilted              h_i(s) = p_i**s / sum_j p_j**s
    tilted_point        psi(s) = log2 sum_i p_i**s, psi', psi'', H(h(s)) and
                        F(s) = -psi(s) - (1 - s) psi'(s) = D(h(s)||p)

and the two inverse maps of F: the solution s > 1 of F(s) = r (exists for
0 < r < -log2(m_1 p_1)) and the solution 0 < s < 1 (exists for 0 < r < D(u||p)
with u uniform), found for a whole array of r at once by solve_tilts as the
TiltedFamilyPoint (s, psi, psi', psi'', F, H(h(s))) of the kernel pass that
solved it. From -log2 p_1 and D(u||p) on it returns None, because the
downstream yield curves are still well defined constants there.

Everything is in bits. The tilted family is taken on s >= 0 (other tilts
raise TiltOutOfRangeError) in its shifted form over D = log2(p / p_1) <= 0
per group: the weights 2**(s D) lie in (0, 1] and Z = sum m 2**(s D) in
[1, d] at any tilt, and nothing cancels against s log2 p_1, so F and psi''
keep ten digits even 6e-7 from flat at s = 5e5, where Var_h(log2 p) keeps none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptySpectrumError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonPositiveExponentError,
    NotASpectrumError,
    NotNormalizedError,
    SolverError,
    TiltOutOfRangeError,
)
from .numerics import LN2

#: input probabilities may miss normalization by this much before we refuse
SUM_TOL = 1e-9

#: p_i >= p_{i+1} tie if p_i - p_{i+1} <= SNAP_TOL p_i / p_1: absolute at the top
#: (within 1e-12 of flat is one group), relative below (small logs stay apart)
SNAP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Squared Schmidt coefficients: positive, descending, summing to one.

    Instances are immutable value objects; build them through new_spectrum,
    which strips zeros, sorts, normalizes and snaps near-ties, and builds
    each spectrum with its groups: starts holds each group's first index,
    which counts the entries above it.
    """

    probs: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        self.probs.setflags(write=False)
        self.starts.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.probs.size)

    @cached_property
    def log2(self) -> np.ndarray:
        return _frozen(np.log2(self.probs))

    @cached_property
    def mults(self) -> np.ndarray:
        """Each group's multiplicity m, a whole number held as float64."""
        s, d = self.starts, self.dim
        return _frozen(np.ones(d) if s.size == d else np.concatenate((s[1:], [d])) - s * 1.0)

    @cached_property
    def powers(self) -> np.ndarray:
        """Per group [D, m, m D, m D**2], D = log2(p / p_1): 2**(s D) times the rest."""
        m, shift = self.mults, self.log2[self.starts] - self.log2[0]
        return _frozen(np.array([shift, m, m * shift, m * shift * shift]))

    @cached_property
    def curvatures(self) -> tuple[float, float]:
        """psi''(1) and psi''(0), the F solvers' starting slopes: one kernel pass."""
        return tuple(v[2] for v in _family(self, [1.0, 0.0])[0])

    @cached_property
    def min_entropy(self) -> float:
        """-log2 p_1, written 0.0 - x so that d = 1 gives 0.0 and not -0.0."""
        return 0.0 - float(self.log2[0])

    @property
    def is_uniform(self) -> bool:
        """True when every coefficient is equal: one group."""
        return self.starts.size == 1

    def __repr__(self) -> str:
        return f"SchmidtSpectrum({np.array2string(self.probs, separator=', ')})"


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _require_spectrum(*spectra) -> None:
    """Refuse a spectrum argument that is not a SchmidtSpectrum (a plain list, say)."""
    for p in spectra:
        if not isinstance(p, SchmidtSpectrum):
            raise NotASpectrumError(f"expected a SchmidtSpectrum, got {type(p).__name__}; "
                                    "build one with new_spectrum(values)")


def _as_prob_vector(q) -> np.ndarray:
    """q's entries; a plain vector must be finite and non-negative (zeros allowed)."""
    if isinstance(q, SchmidtSpectrum):
        return q.probs
    arr = np.asarray(q, dtype=float)
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError(f"non-finite probability in {arr!r}")
    if (arr < 0.0).any():
        raise NegativeEntryError(f"negative probability in {arr!r}")
    return arr


def new_spectrum(values, renormalize: bool = False) -> SchmidtSpectrum:
    """Validate raw squared coefficients into a SchmidtSpectrum.

    Zeros are stripped, entries sorted descending, and the result is divided
    by its sum so the normalization invariant holds exactly. Without the
    `renormalize` flag the input sum must already be within SUM_TOL of one.
    NaN, infinite and negative entries are refused first. A run of entries
    tied by SNAP_TOL takes its mean (exact ties keep their bits) and is one
    of the groups the spectrum is built with.
    """
    arr = _as_prob_vector(values).ravel()
    if arr.size == 0 or not (arr > 0.0).any():
        raise EmptySpectrumError("spectrum needs at least one positive entry")
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
    gaps = arr[:-1] - arr[1:]
    edges = np.empty(arr.size, dtype=bool)  # group starts: gaps over SNAP_TOL p_i / p_1
    edges[0] = True
    np.greater(gaps, SNAP_TOL / arr[0] * arr[:-1], out=edges[1:])
    starts = edges.nonzero()[0]
    if np.count_nonzero(gaps) >= starts.size:  # a run holds unequal entries
        sizes = np.concatenate((starts[1:], [arr.size])) - starts
        heads = arr[starts].repeat(sizes)
        arr = heads + (np.add.reduceat(arr - heads, starts) / sizes).repeat(sizes)
    return SchmidtSpectrum(arr, starts)


def tensor(p: SchmidtSpectrum, q: SchmidtSpectrum) -> SchmidtSpectrum:
    """Spectrum of a product state: all pairwise products, re-sorted."""
    _require_spectrum(p, q)
    return new_spectrum(np.outer(p.probs, q.probs).ravel(), renormalize=True)


def shannon_entropy(p: SchmidtSpectrum) -> float:
    """H(p) in bits; zero for a product state, log2 d for a flat spectrum."""
    _require_spectrum(p)
    return 0.0 - float(p.probs @ p.log2)


def relative_entropy(q, p: SchmidtSpectrum) -> float:
    """D(q||p) in bits with 0 log 0 = 0; +inf where q puts mass off p's support.

    q may be a SchmidtSpectrum or a plain probability vector (finite and
    non-negative, else it raises) over the same (sorted) index set as p.
    """
    _require_spectrum(p)
    qv = _as_prob_vector(q)
    if qv.size != p.dim:
        raise DimensionMismatchError(f"q has {qv.size} entries, p has {p.dim}")
    mask = qv > 0.0
    qm = qv[mask]
    return float(qm @ (np.log2(qm) - p.log2[mask]))


def _family(p: SchmidtSpectrum, tilts) -> tuple[list[tuple], np.ndarray]:
    """(psi, psi', psi'', F, H(h)) at every tilt s >= 0, and the (S, 1, g) weights 2**(s D).

    The one kernel of the tilted family: one (S, 3, g) pass over the groups
    gives Z, Z E_h[D] and Z E_h[D**2] from p.powers, each row summed on its
    own so that no tilt's bits depend on the others passed with it. With
    e = E_h[D] and top = -log2 p_1: psi = log2 Z - s top, psi' = e - top,
    psi'' = ln2 Var_h(D) (clipped at zero against roundoff),
    F = top - log2 Z + (s - 1) e and H(h) = log2 Z - s e.
    """
    powers = p.powers
    weights = np.exp2(np.multiply.outer(tilts, powers[:1]))
    rows = np.add.reduce(weights * powers[1:], 2).tolist()
    top, values = p.min_entropy, []
    for s, (z, zd, zdd) in zip(tilts, rows):
        log_z, mean = math.log2(z), zd / z
        second = max(LN2 * (zdd / z - mean * mean), 0.0)
        values.append((log_z - s * top, mean - top, second,
                       top - log_z + (s - 1.0) * mean, log_z - s * mean))
    return values, weights


def _at(p: SchmidtSpectrum, s: float) -> tuple[tuple, np.ndarray]:
    """_family at one tilt, refusing a negative or non-finite one."""
    _require_spectrum(p)
    if not 0.0 <= s < math.inf:
        raise TiltOutOfRangeError(f"tilt must be finite and >= 0, got {s!r}")
    values, weights = _family(p, [float(s)])
    return values[0], weights[0, 0]


def tilted(p: SchmidtSpectrum, s: float) -> SchmidtSpectrum:
    """Tilted family member h(s); h(1) = p and h(0) is uniform on the support."""
    return new_spectrum(np.repeat(_at(p, s)[1], p.mults.astype(int)), renormalize=True)


def divergence_from_uniform(p: SchmidtSpectrum) -> float:
    """D(u||p) for u uniform over p's support; the converse saturation point."""
    _require_spectrum(p)
    return 0.0 - float(np.log2(p.dim) + p.log2.mean())


class TiltedFamilyPoint(NamedTuple):
    """The tilted family at tilt s, in bits: psi, psi' = E_h[log2 p], psi'' =
    ln2 Var_h(log2 p), F(s) = D(h(s)||p) and H(h(s)); tilted(p, s) gives h(s)."""

    s: float
    psi: float
    psi_prime: float
    psi_double_prime: float
    f_value: float
    entropy: float


def tilted_point(p: SchmidtSpectrum, s: float) -> TiltedFamilyPoint:
    """The tilted family's functionals at one tilt, from one kernel pass."""
    return TiltedFamilyPoint(s, *_at(p, s)[0])


#: a tilt is solved at |residual| <= F_TOL; MAX_ITER steps or BRACKET_CAP fail
F_TOL, MAX_ITER, BRACKET_CAP = 1e-12, 200, 1e6
_OPEN = math.nextafter(BRACKET_CAP, math.inf)  # the open end of the s > 1 brackets


def _require_positive(r: float) -> None:
    if not 0.0 < r < math.inf:
        raise NonPositiveExponentError(f"exponent must be finite and > 0, got {r!r}")


def solve_tilts(p: SchmidtSpectrum, targets, equation: str) -> list:
    """The family point solving one tilted-family equation, for every target at once.

    s_plus and s_minus solve F(s) = r on s > 1 and 0 < s < 1 (r finite and
    positive; None at or past the branch's saturation point, and for any r
    on a uniform spectrum), and direct_rate and converse_rate solve
    -psi'(s) = rate on s > 1 and H(h(s)) = rate on 0 < s < 1. A solved
    target gets the TiltedFamilyPoint of the kernel row that solved it, which
    equals tilted_point at its tilt bit for bit. Each step reads every
    unsolved tilt from one call of the tilted-family kernel (_family, the
    shifted form). Each target keeps its bracket as in rtsafe: a Newton step
    leaving it, or over half the step before last, gives way to the midpoint,
    and one that stalls within roundoff of the root gives way to a step past
    it, one ulp and doubling while the stall lasts.
    An s > 1 bracket is open until the target is passed; a target not passed
    at BRACKET_CAP raises SolverError. A target is done when its residual on
    the scale of F is at most F_TOL (|F - r|, and (s - 1) |-psi' - rate| on
    direct_rate, since dF = (s - 1) d(-psi') there), or when its bracket is
    two adjacent floats.
    """
    _require_spectrum(p)
    above_one, increasing = equation in ("s_plus", "direct_rate"), equation == "s_plus"
    lo, hi = (1.0, _OPEN) if above_one else (0.0, 1.0)
    want = [float(v) for v in targets]
    n = len(want)
    points, lanes = [None] * n, list(range(n))
    top = p.min_entropy
    x = [2.0 if above_one else 0.5] * n
    if equation in ("s_plus", "s_minus"):
        for r in want:
            _require_positive(r)
        end = top if above_one else divergence_from_uniform(p)
        lanes = [] if p.is_uniform else [i for i in lanes if want[i] < end]
        if not lanes:
            return points
        # start from F ~ psi''(1) (s-1)**2 / 2 and, on s_minus, F ~ D(u||p) - psi''(0) s
        curve, tangent = p.curvatures
        for i in lanes:
            reach = math.sqrt(2.0 * want[i] / curve) if curve > 0.0 else math.inf
            guess = max(1.0 - reach, (end - want[i]) / tangent)
            x[i] = min(1.0 + reach, BRACKET_CAP) if above_one else (
                guess if 0.0 < guess < 1.0 else 0.5)
    low, high, step, before = [lo] * n, [hi] * n, [hi - lo] * n, [hi - lo] * n
    stalls = [0] * n
    for _ in range(MAX_ITER):
        if not lanes:
            return points
        running, rows = [], _family(p, [x[i] for i in lanes])[0]
        for i, row in zip(lanes, rows):
            xi, (_, prime, second, f, entropy) = x[i], row
            if equation == "direct_rate":
                value, slope, scale = -prime, -second, xi - 1.0
            elif equation == "converse_rate":
                value, slope, scale = entropy, -xi * second, 1.0
            else:
                value, slope, scale = f, (xi - 1.0) * second, 1.0
            gi = value - want[i]
            # for s > 1 the value nears top like 2**(s D_2): Newton on log|top - value|
            try:
                ni = (math.log((top - value) / (top - want[i])) * (top - value)
                      if above_one else -gi) / slope
            except (ValueError, ZeroDivisionError):
                ni = math.nan
            if gi >= 0.0 if increasing else gi <= 0.0:
                high[i] = xi
            elif xi >= BRACKET_CAP:
                raise SolverError(f"bracket expansion exceeded cap {BRACKET_CAP:g} "
                                  f"while chasing target {want[i]:g}")
            else:
                low[i] = xi
            a, b, proposal = low[i], high[i], xi + ni
            mid = 0.5 * (a + b)
            if scale * abs(gi) <= F_TOL or not a < mid < b:
                points[i] = TiltedFamilyPoint(xi, *row)
                continue
            if a < proposal < b and (b == _OPEN or abs(ni) <= 0.5 * before[i]):
                x[i] = proposal
            elif b == _OPEN:
                x[i] = min(BRACKET_CAP, math.inf if proposal >= _OPEN else 2.0 * xi)
            elif abs(ni) <= (nudge := math.ulp(xi) * 2.0 ** stalls[i]):
                # Newton stalls at the root within roundoff: step past it, to
                # the stale end's side, not halfway to that end
                far = xi + nudge if xi == a else xi - nudge
                stalls[i] += 1
                x[i] = far if a < far < b else mid
            else:
                x[i] = mid
            before[i], step[i] = step[i], abs(x[i] - xi)
            running.append(i)
        lanes = running
    raise SolverError(f"{len(lanes)} tilts unsolved after {MAX_ITER} steps")
