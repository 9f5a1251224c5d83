"""Yield curves: parametric route, inverses, grid oracles, non-additivity."""

import math

import numpy as np
import pytest

from concentrate import (
    DimensionTooLargeError,
    NonPositiveExponentError,
    RateOutOfRangeError,
    SolverError,
    big_f,
    brute_force_converse,
    brute_force_curves,
    brute_force_direct,
    converse_yield,
    direct_yield,
    divergence_from_uniform,
    fidelity_converse_yield,
    fidelity_direct_yield,
    inverse_converse,
    inverse_direct,
    new_spectrum,
    nonadditivity_report,
    r_prime,
    shannon_entropy,
)
from conftest import gentle_spectrum, random_spectrum

P34 = new_spectrum([0.75, 0.25])
FLAT = new_spectrum([0.5, 0.5])


# --- direct curve -----------------------------------------------------------


def test_direct_yield_flat_spectrum_constant():
    for r in (0.01, 0.3, 2.0):
        assert direct_yield(FLAT, r).yield_bits == pytest.approx(1.0, abs=1e-12)


def test_direct_yield_saturates_at_top_coefficient():
    point = direct_yield(P34, 1.0)
    assert point.yield_bits == -float(P34.log2[0])
    assert point.regime == "saturated-high"
    assert point.s_star is None


def test_direct_yield_interior_point_carries_tilt():
    point = direct_yield(P34, 0.05)
    assert point.regime == "interior"
    assert big_f(P34, point.s_star) == pytest.approx(0.05, abs=1e-10)


def test_direct_yield_rejects_nonpositive_r():
    with pytest.raises(NonPositiveExponentError):
        direct_yield(P34, 0.0)


def test_direct_yield_endpoints():
    # the r -> 0 gap closes like sqrt(2 r psi''(1)); assert at that scale
    from concentrate import psi_derivatives

    curvature = psi_derivatives(P34, 1.0)[1]
    for r in (1e-7, 1e-9):
        gap = shannon_entropy(P34) - direct_yield(P34, r).yield_bits
        assert 0.0 <= gap <= 1.05 * math.sqrt(2.0 * r * curvature) + 1e-12
    assert direct_yield(P34, 0.41503749927884381).yield_bits == -float(P34.log2[0])


def test_direct_yield_strictly_decreasing():
    top = -float(P34.log2[0])
    grid = np.linspace(0.001, 0.999 * top, 100)
    vals = [direct_yield(P34, r).yield_bits for r in grid]
    assert all(b < a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v >= top - 1e-12 for v in vals)


# --- converse curve ---------------------------------------------------------


def test_converse_yield_saturates_at_uniform_divergence():
    c = divergence_from_uniform(P34)
    point = converse_yield(P34, c)
    assert point.yield_bits == math.log2(2)
    assert point.regime == "saturated-low"
    assert converse_yield(FLAT, 0.2).yield_bits == 1.0


def test_converse_yield_endpoints():
    from concentrate import psi_derivatives

    curvature = psi_derivatives(P34, 1.0)[1]
    for r in (1e-7, 1e-9):
        gap = converse_yield(P34, r).yield_bits - shannon_entropy(P34)
        assert 0.0 <= gap <= 1.05 * math.sqrt(2.0 * r * curvature) + 1e-12


def test_converse_yield_strictly_increasing():
    c = divergence_from_uniform(P34)
    grid = np.linspace(0.001, 0.999 * c, 100)
    vals = [converse_yield(P34, r).yield_bits for r in grid]
    assert all(b > a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v >= shannon_entropy(P34) - 1e-12 for v in vals)


def test_fidelity_direct_equals_direct():
    for r in (0.05, 0.2, 0.5, 1.0):
        assert fidelity_direct_yield(P34, r) == direct_yield(P34, r)


# --- slope-one point and the fidelity-converse curve ------------------------


def test_r_prime_matches_half_tilt_closed_form():
    rp = r_prime(P34)
    assert not rp.degenerate
    assert rp.value == big_f(P34, 0.5)
    # slope really is one there (central differences)
    h = 1e-6
    slope = (
        converse_yield(P34, rp.value + h).yield_bits
        - converse_yield(P34, rp.value - h).yield_bits
    ) / (2 * h)
    assert slope == pytest.approx(1.0, abs=1e-6)


def test_r_prime_flat_spectrum_flagged():
    rp = r_prime(FLAT)
    assert rp.degenerate and rp.value == 0.0


def test_fidelity_converse_tracks_then_departs():
    rng = np.random.default_rng(83)
    spectra = [P34] + [random_spectrum(rng, int(rng.integers(2, 9))) for _ in range(12)]
    for p in spectra:
        rp = r_prime(p)
        for r in np.linspace(0.2 * rp.value, rp.value, 7):
            assert fidelity_converse_yield(p, float(r)).yield_bits == converse_yield(
                p, float(r)
            ).yield_bits
        # the line r - r' + E*(r') through the curve, and the Renyi-1/2
        # entropy 2 log2 sum sqrt(p_i) summed directly
        anchor = converse_yield(p, rp.value).yield_bits
        renyi_half = 2.0 * math.log2(sum(math.sqrt(x) for x in p.probs))
        for r in (rp.value * 1.5, rp.value + 0.3, 2.0):
            point = fidelity_converse_yield(p, r)
            assert point.regime == "linear"
            assert point.yield_bits == pytest.approx(r + renyi_half, abs=1e-12)
            assert point.yield_bits == pytest.approx(r - rp.value + anchor, abs=1e-12)
            assert point.yield_bits >= converse_yield(p, r).yield_bits - 1e-12


def test_fidelity_converse_separable_state_is_the_line():
    sep = new_spectrum([1.0])
    for r in (0.1, 0.7, 3.0):
        assert fidelity_converse_yield(sep, r).yield_bits == pytest.approx(
            r, abs=1e-12
        )


# --- inverses ---------------------------------------------------------------


def test_inverse_direct_range_and_endpoints():
    entropy = shannon_entropy(P34)
    top = -float(P34.log2[0])
    with pytest.raises(RateOutOfRangeError):
        inverse_direct(P34, entropy)
    with pytest.raises(RateOutOfRangeError):
        inverse_direct(P34, top - 1e-9)
    assert inverse_direct(P34, top) == pytest.approx(top, abs=1e-12)
    assert inverse_direct(P34, entropy - 1e-9) == pytest.approx(0.0, abs=1e-4)


def test_inverse_direct_round_trip():
    rng = np.random.default_rng(61)
    for _ in range(20):
        p = random_spectrum(rng, int(rng.integers(2, 5)))
        if p.is_uniform:
            continue
        top = -float(p.log2[0])
        r = float(rng.uniform(0.05, 0.9) * top)
        rate = direct_yield(p, r).yield_bits
        assert inverse_direct(p, rate) == pytest.approx(r, abs=1e-8)


def test_inverse_direct_near_flat_top_raises_instead_of_going_negative():
    # the s > 1 root lies past the bracket cap; the solve must fail loudly
    # rather than bisect to the bracket edge and return F < 0
    p = new_spectrum([0.500000001, 0.499999999])
    floor = -float(p.log2[0])
    entropy = shannon_entropy(p)
    for frac in (0.25, 0.5, 0.75):
        with pytest.raises(SolverError):
            inverse_direct(p, floor + frac * (entropy - floor))


def test_inverse_converse_range_and_endpoints():
    entropy = shannon_entropy(P34)
    with pytest.raises(RateOutOfRangeError):
        inverse_converse(P34, entropy)
    with pytest.raises(RateOutOfRangeError):
        inverse_converse(P34, 1.0)
    assert inverse_converse(P34, entropy + 1e-9) == pytest.approx(0.0, abs=1e-4)
    c = divergence_from_uniform(P34)
    assert inverse_converse(P34, 1.0 - 1e-10) == pytest.approx(c, abs=1e-4)


def test_inverse_converse_round_trip():
    rng = np.random.default_rng(67)
    for _ in range(20):
        p = random_spectrum(rng, int(rng.integers(2, 5)))
        if p.is_uniform:
            continue
        c = divergence_from_uniform(p)
        r = float(rng.uniform(0.05, 0.9) * c)
        rate = converse_yield(p, r).yield_bits
        assert inverse_converse(p, rate) == pytest.approx(r, abs=1e-8)


# --- grid oracles -----------------------------------------------------------


def literal_grid_optimum(p, r, g):
    """Dumb full enumeration of the simplex grid, for cross-validation."""
    lp = p.log2
    best_direct, best_converse = np.inf, -np.inf
    if p.dim == 2:
        combos = ((i, g - i) for i in range(g + 1))
    else:
        combos = ((i, j, g - i - j) for i in range(g + 1) for j in range(g - i + 1))
    for counts in combos:
        q = np.asarray(counts, dtype=float) / g
        mask = q > 0
        h = float(-(q[mask] @ np.log2(q[mask])))
        cross = float(-(q @ lp))
        if cross - h <= r:
            best_direct = min(best_direct, cross)
            best_converse = max(best_converse, h)
    return best_direct, best_converse


def test_grid_oracle_matches_literal_enumeration():
    rng = np.random.default_rng(71)
    for d, g in ((2, 500), (3, 120)):
        for _ in range(4):
            p = random_spectrum(rng, d)
            top = max(-float(p.log2[0]), divergence_from_uniform(p))
            for r in (0.07 * top, 0.5 * top, 1.2 * top):
                want_d, want_c = literal_grid_optimum(p, r, g)
                got_d = brute_force_direct(p, r, g)
                got_c = brute_force_converse(p, r, g)
                assert got_d == pytest.approx(want_d, abs=1e-13)
                assert got_c == pytest.approx(want_c, abs=1e-13)


def test_grid_oracle_limits():
    p = new_spectrum([0.7, 0.3])
    top = -float(p.log2[0])
    # with the point mass feasible the direct optimum is the plateau value
    assert brute_force_direct(p, top + 0.1, 4000) == pytest.approx(top, abs=1e-9)
    c = divergence_from_uniform(p)
    assert brute_force_converse(p, c + 0.1, 4000) == pytest.approx(1.0, abs=1e-9)
    # vanishing radius pins q to p itself
    tiny = 1e-6
    h = shannon_entropy(p)
    assert brute_force_direct(p, tiny, 4000) == pytest.approx(h, abs=1e-3)
    assert brute_force_converse(p, tiny, 4000) == pytest.approx(h, abs=1e-3)


def test_grid_oracle_agrees_with_parametric_route():
    rng = np.random.default_rng(73)
    for d in (2, 3):
        for _ in range(3):
            p = gentle_spectrum(rng, d)
            top = max(-float(p.log2[0]), divergence_from_uniform(p))
            grid = np.linspace(0.05 * top, 1.15 * top, 10)
            got_d, got_c = brute_force_curves(p, grid, 10_000)
            for i, r in enumerate(grid):
                assert got_d[i] == pytest.approx(
                    direct_yield(p, float(r)).yield_bits, abs=2e-4
                )
                assert got_c[i] == pytest.approx(
                    converse_yield(p, float(r)).yield_bits, abs=2e-4
                )


def test_grid_oracle_rejects_large_dimension():
    with pytest.raises(DimensionTooLargeError):
        brute_force_direct(new_spectrum([0.4, 0.3, 0.2, 0.1]), 0.1, 100)


# --- non-additivity ---------------------------------------------------------


def test_half_exponent_identity():
    rep = nonadditivity_report(P34, P34, 0.2)
    assert rep.e_half_rho == pytest.approx(0.5 * rep.e_rho_rho, abs=1e-9)
    assert rep.half_identity_ok


def test_flat_states_additive():
    rep = nonadditivity_report(FLAT, FLAT, 0.3)
    assert rep.e_joint == pytest.approx(rep.e_rho + rep.e_sigma, abs=1e-12)
    assert rep.subadditive_ok and rep.superadditive_ok and rep.average_ok


def test_strict_superadditivity_below_double_threshold():
    r = 0.2
    assert r < -2 * math.log2(0.75)
    rep = nonadditivity_report(P34, P34, r)
    assert rep.e_joint > 2 * rep.e_rho + 1e-6
    assert rep.superadditive_ok


def test_relations_hold_for_random_pairs():
    rng = np.random.default_rng(79)
    for _ in range(25):
        rho = random_spectrum(rng, int(rng.integers(2, 4)))
        sigma = random_spectrum(rng, int(rng.integers(2, 4)))
        r = float(rng.uniform(0.02, 1.2))
        rep = nonadditivity_report(rho, sigma, r)
        assert rep.subadditive_ok
        assert rep.half_identity_ok
        assert rep.average_ok
        assert rep.superadditive_ok
