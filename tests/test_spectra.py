"""Spectrum construction, entropy functionals, and the tilt solvers.

Frozen expected values were computed with the mpmath oracles defined at the
top of this file (50 decimal digits); each frozen literal is re-checked
against its oracle so a drifting constant cannot go unnoticed.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concentrate import (
    SATURATED,
    DimensionMismatchError,
    EmptySpectrumError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonPositiveExponentError,
    NotNormalizedError,
    SolverError,
    big_f,
    divergence_from_uniform,
    new_spectrum,
    psi,
    psi_derivatives,
    relative_entropy,
    shannon_entropy,
    solve_s_minus,
    solve_s_plus,
    tensor,
    tilted,
    tilted_entropy,
    tilted_point,
)
from concentrate import spectra
from concentrate.numerics import BRACKET_CAP, bisect_for_value
from conftest import random_spectrum

mp.mp.dps = 50


def mp_entropy(probs):
    return float(-sum(mp.mpf(p) * mp.log(mp.mpf(p), 2) for p in probs if p > 0))


def mp_divergence(q, p):
    return float(
        sum(mp.mpf(a) * mp.log(mp.mpf(a) / mp.mpf(b), 2) for a, b in zip(q, p) if a > 0)
    )


def mp_psi(probs, s):
    return float(mp.log(sum(mp.mpf(p) ** s for p in probs), 2))


# --- construction -----------------------------------------------------------


def test_construction_sorts_descending():
    p = new_spectrum([0.25, 0.75])
    assert np.allclose(p.probs, [0.75, 0.25])
    assert p.dim == 2


def test_construction_product_state():
    p = new_spectrum([1.0])
    assert p.dim == 1 and p.probs[0] == 1.0


def test_construction_strips_zeros():
    p = new_spectrum([0.5, 0.0, 0.5])
    assert p.dim == 2
    assert np.allclose(p.probs, [0.5, 0.5])


def test_construction_rejects_bad_input():
    with pytest.raises(EmptySpectrumError):
        new_spectrum([0.0, 0.0])
    with pytest.raises(NegativeEntryError):
        new_spectrum([1.1, -0.1])
    with pytest.raises(NotNormalizedError):
        new_spectrum([0.5, 0.4])
    p = new_spectrum([0.5, 0.4], renormalize=True)
    assert abs(p.probs.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_construction_rejects_non_finite_entries(bad, renormalize):
    # NaN used to slip past the sum test and be dropped as a zero; inf
    # became NaN under renormalization and left an empty array
    with pytest.raises(NonFiniteEntryError):
        new_spectrum([0.6, bad], renormalize=renormalize)
    with pytest.raises(NonFiniteEntryError):
        new_spectrum([bad], renormalize=renormalize)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=12).filter(
        lambda v: sum(v) > 1e-6
    )
)
def test_construction_invariants_hold(values):
    p = new_spectrum(values, renormalize=True)
    assert np.all(p.probs > 0)
    assert abs(p.probs.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(p.probs) <= 0)


# --- entropies --------------------------------------------------------------


def test_entropy_examples():
    assert shannon_entropy(new_spectrum([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
    assert shannon_entropy(new_spectrum([1.0])) == 0.0
    frozen = 0.8112781244591328  # mp_entropy([0.75, 0.25])
    assert mp_entropy([0.75, 0.25]) == pytest.approx(frozen, abs=1e-15)
    assert shannon_entropy(new_spectrum([0.75, 0.25])) == pytest.approx(
        frozen, abs=1e-12
    )


def test_relative_entropy_examples():
    p = new_spectrum([0.75, 0.25])
    assert relative_entropy(p, p) == 0.0
    frozen = 0.2075187496394219  # mp_divergence([0.5, 0.5], [0.75, 0.25])
    assert mp_divergence([0.5, 0.5], [0.75, 0.25]) == pytest.approx(frozen, abs=1e-15)
    assert relative_entropy([0.5, 0.5], p) == pytest.approx(frozen, abs=1e-12)
    # point mass on the top coefficient: divergence is -log2 p_1
    assert relative_entropy([1.0, 0.0], p) == pytest.approx(
        -math.log2(0.75), abs=1e-12
    )
    with pytest.raises(DimensionMismatchError):
        relative_entropy([0.5, 0.25, 0.25], p)


def test_divergence_from_uniform_matches_relative_entropy():
    p = new_spectrum([0.6, 0.3, 0.1])
    u = np.full(3, 1.0 / 3.0)
    assert divergence_from_uniform(p) == pytest.approx(
        relative_entropy(u, p), abs=1e-12
    )


# --- psi and the tilted family ---------------------------------------------


def test_psi_examples():
    flat = new_spectrum([0.5, 0.5])
    for s in (0.0, 0.7, 1.0, 3.5):
        assert psi(flat, s) == pytest.approx(1.0 - s, abs=1e-12)
    p = new_spectrum([0.75, 0.25])
    assert psi(p, 1.0) == pytest.approx(0.0, abs=1e-12)
    frozen = -0.6780719051126377  # mp_psi([0.75, 0.25], 2)
    assert mp_psi([0.75, 0.25], 2) == pytest.approx(frozen, abs=1e-15)
    assert psi(p, 2.0) == pytest.approx(frozen, abs=1e-12)


def test_psi_handles_extreme_tilts_in_log_space():
    p = new_spectrum([0.75, 0.25])
    s = 5000.0
    assert psi(p, s) == pytest.approx(s * math.log2(0.75), abs=1e-6)


def test_psi_derivatives_examples():
    flat = new_spectrum([0.5, 0.5])
    for s in (0.0, 1.0, 2.0):
        prime, second = psi_derivatives(flat, s)
        assert prime == pytest.approx(-1.0, abs=1e-12)
        assert second == pytest.approx(0.0, abs=1e-12)
    p = new_spectrum([0.75, 0.25])
    prime, second = psi_derivatives(p, 1.0)
    assert prime == pytest.approx(-shannon_entropy(p), abs=1e-12)
    assert second > 0.0


def test_tilted_examples():
    p = new_spectrum([0.75, 0.25])
    assert np.allclose(tilted(p, 1.0).probs, p.probs, atol=1e-15)
    assert np.allclose(tilted(p, 0.0).probs, [0.5, 0.5], atol=1e-15)
    assert np.allclose(tilted(p, 2.0).probs, [0.9, 0.1], atol=1e-14)


def test_big_f_examples():
    p = new_spectrum([0.75, 0.25])
    assert big_f(p, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert big_f(p, 0.0) == pytest.approx(0.2075187496394219, abs=1e-12)
    assert big_f(p, 2.0) == pytest.approx(
        relative_entropy(tilted(p, 2.0), p), abs=1e-12
    )


def test_tensor_examples():
    single = new_spectrum([1.0])
    p = new_spectrum([0.75, 0.25])
    assert np.allclose(tensor(single, p).probs, p.probs)
    flat = new_spectrum([0.5, 0.5])
    assert np.allclose(tensor(flat, flat).probs, [0.25] * 4)
    assert np.allclose(
        tensor(p, p).probs, [0.5625, 0.1875, 0.1875, 0.0625], atol=1e-15
    )


# --- solvers ----------------------------------------------------------------


def test_solve_s_plus_examples():
    p = new_spectrum([0.75, 0.25])
    assert solve_s_plus(p, -float(p.log2[0])) is SATURATED  # boundary included
    assert solve_s_plus(p, 0.4151) is SATURATED
    assert solve_s_plus(p, 5.0) is SATURATED
    assert solve_s_plus(new_spectrum([0.5, 0.5]), 0.1) is SATURATED
    s = solve_s_plus(p, 0.1)
    assert s > 1.0
    assert big_f(p, s) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(NonPositiveExponentError):
        solve_s_plus(p, 0.0)


def test_solve_s_minus_examples():
    p = new_spectrum([0.75, 0.25])
    assert solve_s_minus(p, divergence_from_uniform(p)) is SATURATED
    assert solve_s_minus(p, 0.207519) is SATURATED
    assert solve_s_minus(new_spectrum([0.5, 0.5]), 0.01) is SATURATED
    s = solve_s_minus(p, 0.05)
    assert 0.0 < s < 1.0
    assert big_f(p, s) == pytest.approx(0.05, abs=1e-12)


def test_bisection_stops_on_collapsed_bracket():
    # near -log2 p_1 at d = 1024 the roundoff of F exceeds f_tol = 1e-12, so
    # only the bracket shrinking to two adjacent floats ends the search
    rng = np.random.default_rng(0)
    p = new_spectrum(rng.dirichlet(np.ones(1024)), renormalize=True)
    r = 0.99 * -float(p.log2[0])
    hi = 2.0
    while big_f(p, hi) <= r:
        hi *= 2.0
    evals = []

    def counted(s):
        evals.append(s)
        return big_f(p, s)

    s = bisect_for_value(counted, r, 1.0, hi, increasing=True)
    # reference: the plain loop of 200 halvings
    a, b = 1.0, hi
    for halvings in range(1, 201):
        ref = 0.5 * (a + b)
        val = big_f(p, ref)
        if abs(val - r) <= 1e-12:
            break
        a, b = (ref, b) if val < r else (a, ref)
    assert halvings == 200
    assert len(evals) < 100
    assert s == ref
    assert solve_s_plus(p, r) == s


def test_solver_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = random_spectrum(rng, int(rng.integers(2, 7)))
        top = -float(p.log2[0])
        c = divergence_from_uniform(p)
        r = float(rng.uniform(0.05, 0.95) * top)
        s = solve_s_plus(p, r)
        if s is not SATURATED:
            assert big_f(p, s) == pytest.approx(r, abs=1e-10)
        r = float(rng.uniform(0.05, 0.95) * c)
        s = solve_s_minus(p, r)
        if s is not SATURATED:
            assert big_f(p, s) == pytest.approx(r, abs=1e-10)


# --- functional identities --------------------------------------------------


def test_psi_is_convex_in_s():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = random_spectrum(rng, int(rng.integers(2, 8)))
        a, b = np.sort(rng.uniform(0.0, 6.0, size=2))
        mid = 0.5 * (a + b)
        assert psi(p, mid) <= 0.5 * (psi(p, a) + psi(p, b)) + 1e-12


def test_big_f_monotone_on_both_branches():
    p = new_spectrum([0.6, 0.3, 0.1])
    su = np.linspace(1.01, 8.0, 40)
    vals = [big_f(p, s) for s in su]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    sd = np.linspace(0.0, 0.99, 40)
    vals = [big_f(p, s) for s in sd]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_big_f_equals_divergence_of_tilt():
    rng = np.random.default_rng(17)
    for _ in range(25):
        p = random_spectrum(rng, int(rng.integers(2, 7)))
        s = float(rng.uniform(0.0, 5.0))
        h = tilted(p, s)
        if h.dim == p.dim:
            assert big_f(p, s) == pytest.approx(relative_entropy(h, p), abs=1e-10)


def test_tilted_point_bundles_consistent_values():
    p = new_spectrum([0.6, 0.25, 0.15])
    point = tilted_point(p, 2.3)
    assert point.s == 2.3
    assert point.psi == pytest.approx(psi(p, 2.3), abs=1e-15)
    assert point.f_value == pytest.approx(big_f(p, 2.3), abs=1e-12)
    assert np.allclose(point.h.probs, tilted(p, 2.3).probs)
    assert point.psi_double_prime > 0.0
    flat = new_spectrum([0.5, 0.5])
    assert tilted_point(flat, 3.0).psi_double_prime == pytest.approx(0.0, abs=1e-12)


def test_tilted_entropy_identity():
    rng = np.random.default_rng(23)
    for _ in range(25):
        p = random_spectrum(rng, int(rng.integers(2, 7)))
        s = float(rng.uniform(0.0, 4.0))
        if abs(s - 1.0) < 1e-3:
            continue
        expected = (s * big_f(p, s) + psi(p, s)) / (1.0 - s)
        assert tilted_entropy(p, s) == pytest.approx(expected, abs=1e-10)
        assert tilted_entropy(p, s) == pytest.approx(
            shannon_entropy(tilted(p, s)), abs=1e-10
        )


def test_open_bracket_matches_explicit_bracket():
    # without hi the upper end doubles from 2 * lo until fn passes target;
    # the bisection then runs on exactly the bracket a caller would pass
    p = new_spectrum([0.6, 0.25, 0.15])
    for r in (0.01, 0.3, 0.7):
        hi = 2.0
        while big_f(p, hi) <= r:
            hi *= 2.0
        up = bisect_for_value(lambda s: big_f(p, s), r, 1.0, increasing=True)
        assert up == bisect_for_value(lambda s: big_f(p, s), r, 1.0, hi, increasing=True)
    for rate in (0.75, 1.0, 1.3):
        hi = 2.0
        while -psi_derivatives(p, hi)[0] >= rate:
            hi *= 2.0
        down = bisect_for_value(lambda s: -psi_derivatives(p, s)[0], rate, 1.0, increasing=False)
        assert down == bisect_for_value(
            lambda s: -psi_derivatives(p, s)[0], rate, 1.0, hi, increasing=False
        )


@pytest.mark.parametrize("increasing", [True, False])
def test_open_bracket_raises_past_cap(increasing):
    sign = 1.0 if increasing else -1.0
    tried = []

    def fn(x):
        tried.append(x)
        return sign * math.log(x)

    target = sign * math.log(2.0 * BRACKET_CAP)
    with pytest.raises(SolverError, match="exceeded cap"):
        bisect_for_value(fn, target, 1.0, increasing=increasing)
    assert max(tried) <= BRACKET_CAP < 2.0 * max(tried)
    # a root just inside the cap is still found
    x = bisect_for_value(fn, sign * math.log(0.5 * BRACKET_CAP), 1.0, increasing=increasing)
    assert x == pytest.approx(0.5 * BRACKET_CAP, rel=1e-9)


@pytest.mark.parametrize("d", [1, 2, 16, 1024])
def test_tilted_family_reads_one_kernel(d):
    rng = np.random.default_rng(d)
    p = new_spectrum(rng.dirichlet(np.ones(d)), renormalize=True)
    for s in (0.0, 0.3, 0.5, 1.0, 1.7, 6.0, 250.0):
        prime, second = psi_derivatives(p, s)
        assert big_f(p, s) == -psi(p, s) - (1.0 - s) * prime
        assert tilted_entropy(p, s) == psi(p, s) - s * prime
        point = tilted_point(p, s)
        assert (point.psi, point.psi_prime, point.psi_double_prime) == (psi(p, s), prime, second)
        assert point.f_value == big_f(p, s)
        assert np.array_equal(point.h.probs, tilted(p, s).probs)


def test_one_log_sum_exp_per_tilted_evaluation(monkeypatch):
    calls = []
    original = spectra.logsumexp2

    def counting(values):
        calls.append(1)
        return original(values)

    monkeypatch.setattr(spectra, "logsumexp2", counting)
    p = new_spectrum([0.5, 0.3, 0.15, 0.05])
    for fn in (big_f, psi_derivatives, tilted_entropy, tilted):
        calls.clear()
        fn(p, 2.5)
        assert len(calls) == 1, fn.__name__
