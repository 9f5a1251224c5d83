"""Single-copy concentration: optimal probability and the threshold plan."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concentrate import (
    SizeOutOfRangeError,
    deterministic_yield,
    new_spectrum,
    optimal_probability,
    post_measurement_spectrum,
    solve_plan,
)
from conftest import random_spectrum


def test_optimal_probability_examples():
    p = new_spectrum([0.5, 0.3, 0.2])
    # minimization lands on the smallest tail term: 3 * 0.2 / 1
    assert optimal_probability(p, 3) == pytest.approx(0.6, abs=1e-15)
    assert optimal_probability(p, 2) == pytest.approx(1.0, abs=1e-15)
    flat = new_spectrum([0.25] * 4)
    assert optimal_probability(flat, 4) == pytest.approx(1.0, abs=1e-12)


def test_optimal_probability_range_check():
    p = new_spectrum([0.5, 0.5])
    with pytest.raises(SizeOutOfRangeError):
        optimal_probability(p, 0)
    with pytest.raises(SizeOutOfRangeError):
        optimal_probability(p, 3)


def test_solve_plan_examples():
    p = new_spectrum([0.5, 0.3, 0.2])
    plan = solve_plan(p, 3)
    assert plan.threshold == pytest.approx(0.2, abs=1e-15)
    assert plan.cut_index == 3
    assert plan.success_prob == pytest.approx(0.6, abs=1e-15)
    # implicit-size equation holds at the solved threshold
    assert np.minimum(1.0, p.probs / plan.threshold).sum() == pytest.approx(
        3.0, abs=1e-12
    )
    flat = new_spectrum([0.5, 0.5])
    plan = solve_plan(flat, 2)
    assert plan.threshold == pytest.approx(0.5, abs=1e-15)
    assert plan.success_prob == pytest.approx(1.0, abs=1e-15)


def test_solve_plan_deterministic_branch_keeps_identity():
    p = new_spectrum([0.5, 0.3, 0.2])
    plan = solve_plan(p, 1)
    assert plan.success_prob == 1.0
    assert plan.threshold * plan.target_size == pytest.approx(1.0, abs=1e-12)
    assert np.all(plan.measurement_coeffs == 1.0)
    # every deterministic size gives P = 1 exactly, also where the float sum
    # of the entries, and t * L with it, is 1 - 2 ulp
    rng = np.random.default_rng(29)
    for _ in range(100):
        q = new_spectrum(rng.uniform(0.5, 1.5, size=int(rng.integers(4, 60))), renormalize=True)
        for size in range(1, deterministic_yield(q) + 1):
            plan = solve_plan(q, size)
            assert (plan.success_prob, plan.failure_prob) == (1.0, 0.0), (q.probs, size)


def test_failure_prob_is_the_damped_mass_without_cancellation():
    # near-flat spectra put P within about 1e-7 of one, where 1 - P keeps
    # only half its digits; the damped mass sum_{i < cut} (p_i - t) keeps all
    rng = np.random.default_rng(17)
    for _ in range(200):
        d = int(rng.integers(3, 12))
        p = new_spectrum(1.0 + rng.uniform(-1e-7, 1e-7, size=d), renormalize=True)
        plan = solve_plan(p, d)
        t = Fraction(plan.threshold)
        exact = sum(Fraction(x) - t for x in p.probs[: plan.cut_index - 1].tolist())
        assert exact > 0 and abs(Fraction(plan.failure_prob) - exact) <= 1e-15 * exact
        assert plan.failure_prob == pytest.approx(1.0 - plan.success_prob, rel=1e-6)
    # nothing damped: no failure at all
    assert solve_plan(new_spectrum([0.5, 0.3, 0.2]), 2).failure_prob == 0.0


def test_measurement_coeffs_follow_threshold():
    p = new_spectrum([0.5, 0.3, 0.2])
    plan = solve_plan(p, 3)
    expected = np.minimum(1.0, np.sqrt(plan.threshold / p.probs))
    assert np.allclose(plan.measurement_coeffs, expected, atol=1e-15)
    assert np.all(plan.measurement_coeffs <= 1.0)
    # a coefficient exactly at the threshold passes through undamped
    assert plan.measurement_coeffs[-1] == 1.0


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=10_000),
)
def test_plan_matches_direct_minimization(d, seed):
    rng = np.random.default_rng(seed)
    p = random_spectrum(rng, d)
    for size in range(1, d + 1):
        plan = solve_plan(p, size)
        direct = optimal_probability(p, size)
        assert abs(direct - plan.success_prob) <= 1e-12
        assert abs(plan.success_prob - plan.threshold * size) <= 1e-12
        assert 0.0 < plan.success_prob <= 1.0
        assert 1 <= plan.cut_index <= size


def test_minimizing_index_matches_cut_index():
    rng = np.random.default_rng(99)
    for _ in range(50):
        d = int(rng.integers(2, 10))
        p = random_spectrum(rng, d)
        size = int(rng.integers(1, d + 1))
        plan = solve_plan(p, size)
        suffix = np.cumsum(p.probs[::-1])[::-1]
        l = np.arange(1, size + 1)
        terms = size * suffix[:size] / (size - l + 1)
        # the threshold's cut index is always one of the minimizers
        assert terms[plan.cut_index - 1] <= terms.min() + 1e-12


def test_success_prob_non_increasing_in_size():
    rng = np.random.default_rng(3)
    for _ in range(30):
        d = int(rng.integers(2, 12))
        p = random_spectrum(rng, d)
        probs = [optimal_probability(p, size) for size in range(1, d + 1)]
        assert all(b <= a + 1e-15 for a, b in zip(probs, probs[1:]))


def test_post_measurement_spectrum_examples():
    p = new_spectrum([0.5, 0.3, 0.2])
    plan = solve_plan(p, 3)
    out = post_measurement_spectrum(plan, p)
    assert np.allclose(out.probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    flat = new_spectrum([0.25] * 4)
    out = post_measurement_spectrum(solve_plan(flat, 4), flat)
    assert np.allclose(out.probs, flat.probs, atol=1e-12)


def test_post_measurement_top_entry_is_one_over_size():
    rng = np.random.default_rng(8)
    for _ in range(30):
        d = int(rng.integers(2, 10))
        p = random_spectrum(rng, d)
        size = int(rng.integers(1, d + 1))
        plan = solve_plan(p, size)
        out = post_measurement_spectrum(plan, p)
        if plan.cut_index >= 2:
            # truncation happened: the ceiling is pinned at exactly 1/L
            assert out.probs[0] == pytest.approx(1.0 / size, rel=1e-12)
        else:
            # identity measurement: the state already fit under 1/L
            assert out.probs[0] <= 1.0 / size + 1e-12
        assert deterministic_yield(out) >= size
        # damped entries all sit at the common ceiling
        top = out.probs[: plan.cut_index - 1]
        assert np.all(top == top[0]) if top.size else True


def test_tie_heavy_spectra_keep_identities():
    structured = [
        [0.25] * 4,
        [0.5, 0.25, 0.25],
        [0.4, 0.2, 0.2, 0.2],
        [1 / 6] * 6,
        [0.5, 0.125, 0.125, 0.125, 0.125],
        [0.3, 0.3, 0.3, 0.1],
        [0.35, 0.35, 0.15, 0.15],
        [0.5, 0.5 - 1e-13, 1e-13],
        [2**-k for k in range(1, 11)] + [2**-10],
    ]
    for raw in structured:
        p = new_spectrum(raw, renormalize=True)
        for size in range(1, p.dim + 1):
            plan = solve_plan(p, size)
            direct = optimal_probability(p, size)
            assert abs(direct - plan.success_prob) <= 1e-12
            assert abs(plan.success_prob - plan.threshold * size) <= 1e-12
            out = post_measurement_spectrum(plan, p)
            assert deterministic_yield(out) >= size


def _assert_plan_follows_its_cut(p, plan):
    cut = plan.cut_index
    assert np.all(plan.measurement_coeffs[cut - 1 :] == 1.0), (p.probs, plan)
    assert np.all(p.probs[: cut - 1] > plan.threshold), (p.probs, plan)
    assert np.all(plan.measurement_coeffs[: cut - 1] < 1.0), (p.probs, plan)


def _near_edge_spectra(rng):
    """1/p_1 = L (1 - eps) for eps off the allowance 2**TIE_BITS - 1 = 6.93e-13,
    over 2L entries of random sizes below p_1."""
    for size in range(2, 301):
        for eps in (1e-15, 1e-14, 1e-13, 3e-13, 5e-13, 1e-12, 2e-12):
            top = 1.0 / (size * (1.0 - eps))
            rest = rng.uniform(0.5, 1.0, size=2 * size)
            yield new_spectrum(np.append(top, rest * (1.0 - top) / rest.sum()))


def test_deterministic_yield_is_the_plans_last_certain_size():
    # deterministic_yield, solve_plan's cut and P, and the plan's coefficients
    # decide the k = 0 edge by one allowance
    rng = np.random.default_rng(23)
    randoms = (random_spectrum(rng, int(rng.integers(1, 40))) for _ in range(500))
    for p in (*_near_edge_spectra(rng), *randoms):
        size = deterministic_yield(p)
        assert 1 <= size <= p.dim, p.probs
        plan = solve_plan(p, size)
        assert plan.cut_index == 1, (p.probs, size)
        assert (plan.success_prob, plan.failure_prob) == (1.0, 0.0), (p.probs, size)
        _assert_plan_follows_its_cut(p, plan)
        if size < p.dim:
            plan = solve_plan(p, size + 1)
            assert plan.cut_index > 1, (p.probs, size)
            _assert_plan_follows_its_cut(p, plan)


def test_deterministic_yield_examples():
    assert deterministic_yield(new_spectrum([0.5, 0.5])) == 2
    assert deterministic_yield(new_spectrum([0.75, 0.25])) == 1
    assert deterministic_yield(new_spectrum([0.4, 0.35, 0.25])) == 2
    # float images of 1/d must not round the floor down
    for d in (3, 5, 7, 11):
        assert deterministic_yield(new_spectrum([1.0 / d] * d, renormalize=True)) == d
