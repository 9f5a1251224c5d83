"""Spectrum construction, entropy functionals, and the tilt solvers.

Frozen expected values were computed with the tilted-family oracle of
reference.py (50 decimal digits); each frozen literal is re-checked against
it so a drifting constant cannot go unnoticed.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concentrate import (
    DimensionMismatchError,
    EmptySpectrumError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonPositiveExponentError,
    NotASpectrumError,
    NotNormalizedError,
    SolverError,
    TiltedFamilyPoint,
    TiltOutOfRangeError,
    divergence_from_uniform,
    new_spectrum,
    relative_entropy,
    shannon_entropy,
    solve_tilts,
    tensor,
    tilted,
    tilted_point,
)
import concentrate
from concentrate import rates, spectra
from concentrate.spectra import BRACKET_CAP, SNAP_TOL
from conftest import random_spectrum
from reference import f_root, family

#: fields of reference.family, in TiltedFamilyPoint's order after s
PSI, PSI_PRIME, F, H = 0, 1, 3, 4


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


_GOOD = new_spectrum([0.5, 0.3, 0.2])
#: a valid value of every other parameter of the functions that read a spectrum
#: (rate 1.2 is in E's range, 1.5 in E*'s); each is tried with _GOOD first
_OTHER_ARGS = {"target_size": 3, "r": 0.1, "r_values": [0.1], "grid_steps": 4, "n": 4,
               "log2_size": 1.0, "rate": 1.2, "n_list": [4], "targets": [0.1],
               "equation": "s_plus", "s": 1.0, "q": _GOOD,
               "plan": concentrate.solve_plan(_GOOD, 2)}
#: (function, parameter) for each spectrum parameter of every public function
SPECTRUM_PARAMETERS = [
    (name, param) for name in concentrate.__all__
    if inspect.isfunction(fn := getattr(concentrate, name))
    for param, spec in inspect.signature(fn).parameters.items()
    if spec.annotation == "SchmidtSpectrum"
]


@pytest.mark.parametrize("name, param", SPECTRUM_PARAMETERS,
                         ids=[f"{n}-{p}" for n, p in SPECTRUM_PARAMETERS])
def test_a_plain_list_is_not_a_spectrum(name, param):
    # a list where a SchmidtSpectrum belongs used to end in AttributeError
    fn = getattr(concentrate, name)
    params = inspect.signature(fn).parameters
    args = {k: _GOOD if v.annotation == "SchmidtSpectrum" else _OTHER_ARGS[k]
            for k, v in params.items() if v.default is inspect.Parameter.empty}
    if name == "inverse_converse":
        args["rate"] = 1.5
    fn(**args)
    args[param] = [0.5, 0.3, 0.2]
    with pytest.raises(NotASpectrumError, match="new_spectrum"):
        fn(**args)


def test_spectrum_parameters_walk_every_public_reader():
    names = {name for name, _ in SPECTRUM_PARAMETERS}
    assert len(names) == 28 and len(SPECTRUM_PARAMETERS) == 30


# --- groups and the tie rule -------------------------------------------------


def test_groups_of_a_tied_spectrum():
    p = new_spectrum([0.1, 0.3, 0.3, 0.3])
    assert p.probs.tolist() == [0.3, 0.3, 0.3, 0.1]
    assert p.starts.tolist() == [0, 3] and p.mults.tolist() == [3.0, 1.0]
    assert not p.is_uniform and new_spectrum([0.25] * 4).mults.tolist() == [4.0]


def test_tie_free_and_exactly_tied_spectra_keep_their_bits():
    rng = np.random.default_rng(3)
    for raw in [rng.uniform(0.05, 1.0, size=d) for d in (2, 7, 64, 2048)] + [
            np.array([0.1] * 10), np.array([0.3, 0.3, 0.2, 0.1, 0.1]), np.array([1.0])]:
        want = np.sort(raw)[::-1] / raw.sum()
        p = new_spectrum(raw, renormalize=True)
        assert np.array_equal(p.probs, want)
        assert p.mults.sum() == p.dim


def test_near_ties_snap_to_the_run_mean():
    # top gaps up to SNAP_TOL are absolute; below the top they scale by p_i / p_1
    p = new_spectrum([0.4, 0.4 - 0.5 * SNAP_TOL, 0.2 + 0.5 * SNAP_TOL])
    assert p.mults.tolist() == [2.0, 1.0]
    assert p.probs[0] == p.probs[1] == pytest.approx(0.4, abs=SNAP_TOL)
    assert abs(p.probs.sum() - 1.0) <= 1e-15
    apart = new_spectrum([0.4, 0.4 - 2.0 * SNAP_TOL, 0.2 + 2.0 * SNAP_TOL])
    assert apart.mults.tolist() == [1.0, 1.0, 1.0]
    # an absolute 1e-12 rule would merge every small entry here; the relative
    # rule ties gaps of 1e-13 of the entry and keeps gaps of 1e-11 apart
    small = [1.0 - 4e-6, 2e-6, 2e-6 * (1 - 1e-13), 2e-6 * (1 + 1e-13)]
    assert new_spectrum(small, renormalize=True).mults.tolist() == [1.0, 3.0]
    small = [1.0 - 4e-6, 2e-6, 2e-6 * (1 - 1e-11), 2e-6 * (1 + 1e-11)]
    assert new_spectrum(small, renormalize=True).mults.tolist() == [1.0] * 4


@pytest.mark.parametrize("values", [
    [0.5 + 4e-13, 0.5 - 4e-13], [0.5 + 4.9e-13, 0.5 - 4.9e-13],
    [1 / 3 + 4e-13, 1 / 3, 1 / 3 - 4e-13], [0.25 + 4.9e-13, 0.25, 0.25, 0.25 - 4.9e-13],
])
def test_spectrum_within_1e12_of_flat_is_one_group(values):
    # p_1 - p_d <= 1e-12 (relative gaps up to 3.9e-12) is one group, so both
    # branches saturate; a near-flat top that is not one group would chase its
    # tilt past the bracket cap
    raw = np.sort(values)[::-1] / math.fsum(values)
    assert raw[0] - raw[-1] <= 1e-12
    p = new_spectrum(values)
    assert p.is_uniform and p.mults.tolist() == [float(len(values))]
    top = math.log2(len(values))
    for r in (1e-6, 0.5, 3.0):
        assert solve_tilts(p, [r], "s_plus") == [None]
        assert solve_tilts(p, [r], "s_minus") == [None]
        assert rates.direct_yield(p, r).yield_bits == p.min_entropy
        assert rates.converse_yield(p, r).yield_bits == top


# --- entropies --------------------------------------------------------------


def test_entropy_examples():
    assert shannon_entropy(new_spectrum([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
    assert shannon_entropy(new_spectrum([1.0])) == 0.0
    frozen = 0.8112781244591328  # H(h(1)) = H(p) of [0.75, 0.25]
    assert family([0.75, 0.25], 1)[H] == pytest.approx(frozen, abs=1e-15)
    assert shannon_entropy(new_spectrum([0.75, 0.25])) == pytest.approx(
        frozen, abs=1e-12
    )


def test_relative_entropy_examples():
    p = new_spectrum([0.75, 0.25])
    assert relative_entropy(p, p) == 0.0
    frozen = 0.2075187496394219  # F(0) = D(u||p) of [0.75, 0.25], u = [0.5, 0.5]
    assert family([0.75, 0.25], 0)[F] == pytest.approx(frozen, abs=1e-15)
    assert relative_entropy([0.5, 0.5], p) == pytest.approx(frozen, abs=1e-12)
    # point mass on the top coefficient: divergence is -log2 p_1
    assert relative_entropy([1.0, 0.0], p) == pytest.approx(
        -math.log2(0.75), abs=1e-12
    )
    with pytest.raises(DimensionMismatchError):
        relative_entropy([0.5, 0.25, 0.25], p)


@pytest.mark.parametrize("fn", [relative_entropy], ids=["relative_entropy"])
@pytest.mark.parametrize("q, error", [
    ([math.nan, 1.0], NonFiniteEntryError),
    ([0.5, math.inf], NonFiniteEntryError),
    ([-0.5, 1.5], NegativeEntryError),
])
def test_plain_q_with_bad_entry_is_typed_error(fn, q, error):
    # a plain q is checked as a spectrum is; zeros stay allowed
    p = new_spectrum([0.75, 0.25])
    with pytest.raises(error):
        fn(q, p)
    assert math.isfinite(fn([0.0, 1.0], p))


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
        assert tilted_point(flat, s).psi == pytest.approx(1.0 - s, abs=1e-12)
    p = new_spectrum([0.75, 0.25])
    assert tilted_point(p, 1.0).psi == pytest.approx(0.0, abs=1e-12)
    frozen = -0.6780719051126377  # psi(2) of [0.75, 0.25]
    assert family([0.75, 0.25], 2)[PSI] == pytest.approx(frozen, abs=1e-15)
    assert tilted_point(p, 2.0).psi == pytest.approx(frozen, abs=1e-12)


def test_psi_handles_extreme_tilts_in_log_space():
    p = new_spectrum([0.75, 0.25])
    s = 5000.0
    assert tilted_point(p, s).psi == pytest.approx(s * math.log2(0.75), abs=1e-6)


def test_psi_derivatives_examples():
    flat = new_spectrum([0.5, 0.5])
    for s in (0.0, 1.0, 2.0):
        point = tilted_point(flat, s)
        assert point.psi_prime == pytest.approx(-1.0, abs=1e-12)
        assert point.psi_double_prime == pytest.approx(0.0, abs=1e-12)
    p = new_spectrum([0.75, 0.25])
    point = tilted_point(p, 1.0)
    assert point.psi_prime == pytest.approx(-shannon_entropy(p), abs=1e-12)
    assert point.psi_double_prime > 0.0


def test_tilted_examples():
    p = new_spectrum([0.75, 0.25])
    assert np.allclose(tilted(p, 1.0).probs, p.probs, atol=1e-15)
    assert np.allclose(tilted(p, 0.0).probs, [0.5, 0.5], atol=1e-15)
    assert np.allclose(tilted(p, 2.0).probs, [0.9, 0.1], atol=1e-14)


def test_big_f_examples():
    p = new_spectrum([0.75, 0.25])
    assert tilted_point(p, 1.0).f_value == pytest.approx(0.0, abs=1e-12)
    assert tilted_point(p, 0.0).f_value == pytest.approx(0.2075187496394219, abs=1e-12)
    assert tilted_point(p, 2.0).f_value == pytest.approx(
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
    # the boundary -log2 p_1 is included
    assert solve_tilts(p, [-float(p.log2[0]), 0.4151, 5.0], "s_plus") == [None] * 3
    assert solve_tilts(new_spectrum([0.5, 0.5]), [0.1], "s_plus")[0] is None
    point = solve_tilts(p, [0.1], "s_plus")[0]
    assert point.s > 1.0
    assert tilted_point(p, point.s).f_value == pytest.approx(0.1, abs=1e-12)
    assert point.f_value == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(NonPositiveExponentError):
        solve_tilts(p, [0.0], "s_plus")


def test_solve_s_minus_examples():
    p = new_spectrum([0.75, 0.25])
    assert solve_tilts(p, [divergence_from_uniform(p), 0.207519], "s_minus") == [None] * 2
    assert solve_tilts(new_spectrum([0.5, 0.5]), [0.01], "s_minus")[0] is None
    point = solve_tilts(p, [0.05], "s_minus")[0]
    assert 0.0 < point.s < 1.0
    assert tilted_point(p, point.s).f_value == pytest.approx(0.05, abs=1e-12)
    assert point.f_value == pytest.approx(0.05, abs=1e-12)


def _shifted(p, s):
    """(F, -psi') at the tilts s on the shifted form, D = log2(p / p_1)."""
    s = np.asarray(s, dtype=float)
    shift = p.log2 - p.log2[0]
    w = np.exp2(s[:, None] * shift)
    z = w.sum(axis=1)
    mean = (w * shift).sum(axis=1) / z
    return p.min_entropy - np.log2(z) + (s - 1.0) * mean, p.min_entropy - mean


def test_bisection_stops_on_collapsed_bracket(monkeypatch):
    # with a negative F_TOL no residual is small enough, so near -log2 p_1
    # at d = 1024 only the bracket shrinking to two adjacent floats ends the
    # search. Newton reaches the root from above in 9 steps; the stale end
    # at s = 233 is then not halved down to it (63 kernel rows in all):
    # steps of one ulp, doubling, cross the root instead
    rng = np.random.default_rng(0)
    p = new_spectrum(rng.dirichlet(np.ones(1024)), renormalize=True)
    r = 0.99 * p.min_entropy
    rows = []
    kernel = spectra._family

    def counting(p, tilts):
        rows.extend(tilts)
        return kernel(p, tilts)

    monkeypatch.setattr(spectra, "_family", counting)
    monkeypatch.setattr(spectra, "F_TOL", -1.0)
    monkeypatch.setattr(spectra, "MAX_ITER", 100)
    s = solve_tilts(p, [r], "s_plus")[0].s
    monkeypatch.undo()
    assert 10 < len(rows) <= 24, len(rows)
    # s is one end of a bracket of adjacent floats that holds the root
    values = _shifted(p, [np.nextafter(s, 0.0), s, np.nextafter(s, np.inf)])[0]
    assert values[0] < r <= values[1] or values[1] < r <= values[2]
    assert s == pytest.approx(solve_tilts(p, [r], "s_plus")[0].s, rel=1e-13)


def test_solver_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = random_spectrum(rng, int(rng.integers(2, 7)))
        top = -float(p.log2[0])
        c = divergence_from_uniform(p)
        for equation, edge in (("s_plus", top), ("s_minus", c)):
            r = float(rng.uniform(0.05, 0.95) * edge)
            point = solve_tilts(p, [r], equation)[0]
            if point is not None:
                assert tilted_point(p, point.s).f_value == pytest.approx(r, abs=1e-10)


# --- functional identities --------------------------------------------------


def test_psi_is_convex_in_s():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = random_spectrum(rng, int(rng.integers(2, 8)))
        a, b = np.sort(rng.uniform(0.0, 6.0, size=2))
        mid = 0.5 * (a + b)
        psi = [tilted_point(p, s).psi for s in (a, b, mid)]
        assert psi[2] <= 0.5 * (psi[0] + psi[1]) + 1e-12


def test_big_f_monotone_on_both_branches():
    p = new_spectrum([0.6, 0.3, 0.1])
    su = np.linspace(1.01, 8.0, 40)
    vals = [tilted_point(p, s).f_value for s in su]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    sd = np.linspace(0.0, 0.99, 40)
    vals = [tilted_point(p, s).f_value for s in sd]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_big_f_equals_divergence_of_tilt():
    rng = np.random.default_rng(17)
    for _ in range(25):
        p = random_spectrum(rng, int(rng.integers(2, 7)))
        s = float(rng.uniform(0.0, 5.0))
        h = tilted(p, s)
        if h.dim == p.dim:
            f = tilted_point(p, s).f_value
            assert f == pytest.approx(relative_entropy(h, p), abs=1e-10)


def test_tilted_point_bundles_consistent_values():
    p = new_spectrum([0.6, 0.25, 0.15])
    point = tilted_point(p, 2.3)
    assert point.s == 2.3
    assert point.psi == pytest.approx(family(p.probs, 2.3)[PSI], abs=1e-15)
    assert point.f_value == pytest.approx(relative_entropy(tilted(p, 2.3), p), abs=1e-12)
    assert point.entropy == pytest.approx(shannon_entropy(tilted(p, 2.3)), abs=1e-12)
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
        point = tilted_point(p, s)
        expected = (s * point.f_value + point.psi) / (1.0 - s)
        assert point.entropy == pytest.approx(expected, abs=1e-10)
        assert point.entropy == pytest.approx(shannon_entropy(tilted(p, s)), abs=1e-10)


def _bisect(fn, target, lo, hi):
    """Plain bisection of an increasing fn on [lo, hi] to adjacent floats."""
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fn(mid) < target else (lo, mid)
    return lo


def test_open_bracket_matches_explicit_bracket():
    # without an upper end the search steps up from s > 1 until the
    # objective passes its target; it must land on the root a plain
    # bisection finds in the bracket a caller would pass
    p = new_spectrum([0.6, 0.25, 0.15])
    for equation, targets, column, sign in (
        ("s_plus", (0.01, 0.3, 0.7), 0, 1.0),
        ("direct_rate", (0.75, 1.0, 1.3), 1, -1.0),
    ):
        def fn(s):
            return sign * _shifted(p, [s])[column][0]

        for t in targets:
            hi = 2.0
            while fn(hi) <= sign * t:
                hi *= 2.0
            s = solve_tilts(p, [t], equation)[0].s
            assert 1.0 < s < hi
            assert s == pytest.approx(_bisect(fn, sign * t, 1.0, hi), rel=1e-11)
            assert abs(fn(s) - sign * t) <= 1e-12


@pytest.mark.parametrize("increasing", [True, False])
def test_open_bracket_raises_past_cap(increasing):
    # a two-entry spectrum 6e-7 from flat has its roots near the cap: s_plus
    # (F increasing) and direct_rate (-psi' decreasing) find a root just
    # inside BRACKET_CAP and raise for one just past it
    p = new_spectrum([0.5000003, 0.4999997])
    equation, column = ("s_plus", 0) if increasing else ("direct_rate", 1)

    def target(s):
        return float(_shifted(p, [s])[column][0])

    # -psi' spans only 9e-7 bits here, so its 1e-12 residual pins s to ~1e-6
    rel = 1e-9 if increasing else 1e-5
    with pytest.raises(SolverError, match="exceeded cap"):
        solve_tilts(p, [target(1.01 * BRACKET_CAP)], equation)
    for root in (0.5 * BRACKET_CAP, 0.99 * BRACKET_CAP):
        s = solve_tilts(p, [target(root)], equation)[0].s
        assert s == pytest.approx(root, rel=rel)
        assert abs(target(s) - target(root)) <= 1e-12
    # one stuck lane fails the whole call
    with pytest.raises(SolverError, match="exceeded cap"):
        solve_tilts(p, [target(10.0), target(2.0 * BRACKET_CAP)], equation)


def test_engine_raises_when_iterations_run_out(monkeypatch):
    # a lane still unsolved after MAX_ITER steps is an error, not a value
    monkeypatch.setattr(spectra, "MAX_ITER", 3)
    with pytest.raises(SolverError, match="after 3 steps"):
        solve_tilts(new_spectrum([0.6, 0.25, 0.15]), [0.3], "s_plus")


ENGINE_DIMS = (2, 3, 16, 1024, 2048)
ENGINE_EQUATIONS = ("s_plus", "s_minus", "direct_rate", "converse_rate")


def _engine_spectrum(d, seed):
    # entries within a factor of 20, the top one at least 2% above the next
    raw = np.sort(np.random.default_rng(seed).uniform(0.05, 1.0, size=d))[::-1]
    raw[0] = max(raw[0], 1.02 * raw[1])
    return new_spectrum(raw, renormalize=True)


def _engine_targets(p, equation, fractions):
    """Targets at the given fractions of the equation's range."""
    lo, hi = {
        "s_plus": (0.0, p.min_entropy),
        "s_minus": (0.0, divergence_from_uniform(p)),
        "direct_rate": (shannon_entropy(p), p.min_entropy),
        "converse_rate": (shannon_entropy(p), math.log2(p.dim)),
    }[equation]
    return [lo + f * (hi - lo) for f in fractions]


def _bits(point):
    """A solved point's fields as hex strings, so that == compares bits."""
    assert isinstance(point, TiltedFamilyPoint)
    return tuple(float.hex(v) for v in point)


@settings(max_examples=25, deadline=None)
@given(
    d=st.sampled_from(ENGINE_DIMS),
    seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(1e-7, 0.999), min_size=1, max_size=12),
)
def test_engine_lanes_equal_one_lane_calls(d, seed, fractions):
    p = _engine_spectrum(d, seed)
    for equation in ENGINE_EQUATIONS:
        targets = _engine_targets(p, equation, fractions)
        points = solve_tilts(p, targets, equation)
        batch = [_bits(pt) for pt in points]
        assert batch == [_bits(solve_tilts(p, [t], equation)[0]) for t in targets]
        # each point is the kernel row at its tilt, as tilted_point reads it
        assert batch == [_bits(tilted_point(p, pt.s)) for pt in points]


@settings(max_examples=25, deadline=None)
@given(
    d=st.sampled_from(ENGINE_DIMS),
    seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(1e-7, 0.999), min_size=1, max_size=12),
)
def test_engine_residual_on_shifted_form(d, seed, fractions):
    p = _engine_spectrum(d, seed)
    for equation in ("s_plus", "s_minus"):
        targets = _engine_targets(p, equation, fractions)
        s = np.array([pt.s for pt in solve_tilts(p, targets, equation)])
        assert np.all((s > 1.0) if equation == "s_plus" else ((0.0 < s) & (s < 1.0)))
        assert np.max(np.abs(_shifted(p, s)[0] - np.array(targets))) <= 1e-12


def test_engine_tilt_matches_mpmath_root_at_large_d():
    rng = np.random.default_rng(0)
    p = new_spectrum(rng.dirichlet(np.ones(1024)), renormalize=True)
    r = 0.99 * p.min_entropy
    s = solve_tilts(p, [r], "s_plus")[0].s
    root = f_root(p.probs, r, s, dps=40)
    assert abs(s - root) / root <= 1e-11


TIED_SPECTRA = (
    ([0.4, 0.4, 0.2], 0.5),
    ([0.3, 0.3, 0.3, 0.1], 1.0),
    ([0.4, 0.3999999999999, 0.2000000000001], 0.5),
)


@pytest.mark.parametrize("values, r", TIED_SPECTRA)
def test_engine_raises_on_tied_maxima(values, r):
    # with m tied maxima F stays below -log2(m p_1) < r: no root below the cap
    p = new_spectrum(values)
    assert r < p.min_entropy
    with pytest.raises(SolverError):
        solve_tilts(p, [r], "s_plus")
    with pytest.raises(SolverError):
        solve_tilts(p, [0.01, r], "s_plus")


def test_engine_raises_on_near_flat_top():
    # p_1 - p_2 = 2e-9: the roots lie far past the cap, so no value comes back
    p = new_spectrum([0.500000001, 0.499999999])
    for frac in (0.5, 0.9, 0.999):
        with pytest.raises(SolverError):
            solve_tilts(p, [frac * p.min_entropy], "s_plus")


def _counting_kernel(monkeypatch):
    """Record the tilts of every tilted-family kernel pass."""
    calls = []
    original = spectra._family

    def counting(p, tilts):
        calls.append([float(s) for s in tilts])
        return original(p, tilts)

    monkeypatch.setattr(spectra, "_family", counting)
    return calls


#: every one-point read of the family: tilted, tilted_point, and psi, F and
#: H(h) by the names of the per-tilt functions they replace
ONE_POINT = {
    "psi": lambda p, s: tilted_point(p, s).psi,
    "big_f": lambda p, s: tilted_point(p, s).f_value,
    "tilted_entropy": lambda p, s: tilted_point(p, s).entropy,
    "tilted": tilted,
    "tilted_point": tilted_point,
}


@pytest.mark.parametrize("d", [1, 2, 16, 1024])
def test_tilted_family_reads_one_kernel(d, monkeypatch):
    # every one-point read is one kernel pass at its tilt, and the record's
    # fields hold the family's identities
    rng = np.random.default_rng(d)
    p = new_spectrum(rng.dirichlet(np.ones(d)), renormalize=True)
    calls = _counting_kernel(monkeypatch)
    for s in (0.0, 0.3, 0.5, 1.0, 1.7, 6.0, 250.0):
        for name, fn in ONE_POINT.items():
            calls.clear()
            fn(p, s)
            assert calls == [[s]], name
        point = tilted_point(p, s)
        prime = point.psi_prime
        assert point.s == s
        tol = 1e-14 * (1.0 + s)
        assert point.f_value == pytest.approx(-point.psi - (1.0 - s) * prime, abs=tol)
        assert point.entropy == pytest.approx(point.psi - s * prime, abs=tol)
        assert point.entropy == pytest.approx(shannon_entropy(tilted(p, s)), abs=1e-12)


def test_starting_curvatures_are_one_kernel_pass_per_spectrum(monkeypatch):
    # psi''(1) and psi''(0) are kept on the spectrum, as powers is: an s_plus
    # and an s_minus solve share one [1, 0] pass, with its bits
    p = new_spectrum([0.5, 0.3, 0.15, 0.05])
    want = tuple(row[2] for row in spectra._family(p, [1.0, 0.0])[0])
    calls = _counting_kernel(monkeypatch)
    solve_tilts(p, [0.4], "s_plus")
    solve_tilts(p, [0.4], "s_minus")
    assert calls.count([1.0, 0.0]) == 1
    assert p.curvatures == want


def test_one_kernel_pass_per_engine_step_and_curve(monkeypatch):
    p = new_spectrum([0.5, 0.3, 0.15, 0.05])
    calls = _counting_kernel(monkeypatch)
    # a one-lane F solve: the two starting curvatures, then one pass per
    # step, the last at the tilt it returns
    s = solve_tilts(p, [0.4], "s_plus")[0].s
    assert calls[0] == [1.0, 0.0]
    assert all(len(c) == 1 for c in calls[1:]) and calls[-1] == [s]
    assert 2 <= len(calls) <= 1 + spectra.MAX_ITER
    # a batch: the spectrum keeps its starting curvatures, so each pass is a
    # step, and passes exactly the tilts still unsolved
    calls.clear()
    r = [0.01, 0.2, 0.6, 1.2, 5.0]  # the last two at or past -log2 p_1 = 1
    points = solve_tilts(p, r, "s_plus")
    sizes = [len(c) for c in calls]
    assert sizes[0] == 3 and sizes == sorted(sizes, reverse=True)
    assert {pt.s for pt in points[:3]} <= {t for c in calls for t in c}
    assert points[3:] == [None, None]
    # the rate equations have no starting curvature
    calls.clear()
    s = solve_tilts(p, [1.0], "direct_rate")[0].s
    assert all(len(c) == 1 for c in calls) and calls[-1] == [s]
    # a curve reads psi from its solve's points: no pass beyond the solve's
    for curve, equation in (
        (rates.direct_curve, "s_plus"),
        (rates.converse_curve, "s_minus"),
    ):
        calls.clear()
        solved = solve_tilts(p, r, equation)
        solve_passes = list(calls)
        calls.clear()
        points = curve(p, r)
        assert calls == solve_passes
        assert [pt.s_star for pt in points] == [
            None if t is None else t.s for t in solved
        ]
    # r' and the line past it: one pass at s = 1/2
    calls.clear()
    rates.r_prime(p)
    assert calls == [[0.5]]
    calls.clear()
    rates.fidelity_converse_yield(p, 3.0)
    assert calls == [[0.5]]


@pytest.mark.parametrize("fn", ONE_POINT)
@pytest.mark.parametrize("s", [-1e-300, -0.5, -math.inf, math.inf, math.nan])
def test_tilt_outside_family_is_typed_error(fn, s):
    # the family is taken on s >= 0, where the shifted weights stay in (0, 1]
    with pytest.raises(TiltOutOfRangeError, match="finite and >= 0"):
        ONE_POINT[fn](new_spectrum([0.6, 0.3, 0.1]), s)


NEAR_FLAT = [0.5000003, 0.4999997]


@pytest.mark.parametrize("spectrum, tilts, rel", [
    ("near-flat", (1e3, 1e5, 5e5), 1e-9),
    ("dirichlet-2048", (0.5, 3.0, 40.0), 1e-13),
])
def test_tilted_family_matches_mpmath(spectrum, tilts, rel):
    # on a near-flat top E_h[(log2 p)**2] - E_h[log2 p]**2 cancels (off by a
    # factor 6 at s = 1e5); over D = log2(p / p_1) the variance does not
    if spectrum == "near-flat":
        p = new_spectrum(NEAR_FLAT)
    else:
        raw = np.random.default_rng(0).dirichlet(np.ones(2048))
        p = new_spectrum(raw, renormalize=True)
    for s in tilts:
        want = family(p.probs, s)
        got = tilted_point(p, s)[1:]
        for name, a, b in zip(("psi", "psi'", "psi''", "F", "H"), got, want):
            assert abs(a - b) <= rel * abs(b), (name, s)


@pytest.mark.parametrize("tilt, rel", [(1e3, 1e-6), (1e5, 1e-9), (5e5, 1e-9)])
def test_inverse_direct_near_flat_top_matches_mpmath(tilt, rel):
    # the rate lanes stop on the scale of F, (s - 1) |-psi' - rate| <= F_TOL;
    # at tilt 1e3 the rounding of the rate to a float sets the limit
    p = new_spectrum(NEAR_FLAT)
    want = family(p.probs, tilt, dps=40)
    assert abs(rates.inverse_direct(p, -want[PSI_PRIME]) - want[F]) <= rel * want[F]
