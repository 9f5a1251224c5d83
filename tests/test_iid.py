"""Exact n-copy quantities against a literal product-state oracle.

For small n the full product spectrum (all d**n coefficient products) fits
in memory, so the single-copy machinery applied to it is an independent
route to every n-copy success probability; the grouped log-space path must
reproduce it exactly.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.special import gammaln

from concentrate import (
    RateOutOfRangeError,
    SizeOutOfRangeError,
    SolverError,
    exact_success_prob,
    exponent_sweep,
    grouped_spectrum,
    new_spectrum,
    optimal_probability,
)
from concentrate import iid
from concentrate.iid import FIRST_CHUNK, _merge_groups, _solve_grouped_threshold
from concentrate.numerics import LN2, log2_sub, logsumexp2
from conftest import random_spectrum


def full_product_spectrum(p, n):
    """Every coefficient of the n-copy state, materialized."""
    values = [
        math.prod(combo) for combo in itertools.product(p.probs.tolist(), repeat=n)
    ]
    return new_spectrum(values, renormalize=True)


def test_grouped_flat_spectrum_merges_to_one_group():
    spec = grouped_spectrum(new_spectrum([0.5, 0.5]), 3)
    assert spec.group_count == 1
    assert spec.log_probs[0] == pytest.approx(-3.0, abs=1e-12)
    assert spec.log_mults[0] == pytest.approx(3.0, abs=1e-12)  # 8 sequences


def test_grouped_spectrum_example_n2():
    spec = grouped_spectrum(new_spectrum([0.75, 0.25]), 2)
    assert spec.group_count == 3
    assert np.allclose(
        spec.log_probs,
        [math.log2(0.5625), math.log2(0.1875), math.log2(0.0625)],
        atol=1e-12,
    )
    assert np.allclose(spec.log_mults, [0.0, 1.0, 0.0], atol=1e-12)


def test_grouped_spectrum_normalized():
    rng = np.random.default_rng(31)
    for _ in range(15):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 25))
        spec = grouped_spectrum(random_spectrum(rng, d), n)
        assert spec.normalization_defect() == pytest.approx(0.0, abs=1e-9)
        assert np.all(np.diff(spec.log_probs) < 0)


def _lexicographic_types(n, d):
    """Every composition of n into d parts, lexicographically descending."""
    heads = itertools.product(range(n, -1, -1), repeat=d - 1)
    rows = [head + (n - sum(head),) for head in heads if sum(head) <= n]
    return np.array(rows, dtype=np.int64)


def _sorted_lattice_groups(p, n):
    """The grouped spectrum built the direct way: each type's log probability
    and whole-row log multinomial, one argsort, then the merge."""
    counts = _lexicographic_types(n, p.dim)
    table = gammaln(np.arange(n + 2))
    log_probs = counts @ p.log2
    log_mults = (table[n + 1] - table[counts + 1].sum(axis=-1)) / LN2
    order = np.argsort(log_probs)[::-1]
    return _merge_groups(log_probs[order], log_mults[order])


PINNED_SPECTRA = {
    3: ([0.5, 0.25, 0.25], [0.4, 0.4, 0.2]),
    4: ([0.5, 0.25, 0.125, 0.125], [0.3, 0.3, 0.2, 0.2]),
    5: ([0.25, 0.25, 0.25, 0.125, 0.125], [0.3, 0.3, 0.2, 0.1, 0.1]),
}


@pytest.mark.parametrize(
    "d, n_list", [(3, (1, 2, 7, 23, 40)), (4, (1, 5, 12, 20)), (5, (1, 6, 14))]
)
def test_grouped_spectrum_equals_sorted_lattice_construction(d, n_list):
    # random, dyadic (types merge) and tied spectra, bit for bit
    rng = np.random.default_rng(100 + d)
    dyadic, tied = PINNED_SPECTRA[d]
    spectra = [random_spectrum(rng, d), new_spectrum(dyadic), new_spectrum(tied)]
    for p in spectra:
        for n in n_list:
            spec = grouped_spectrum(p, n)
            log_probs, log_mults = _sorted_lattice_groups(p, n)
            assert np.array_equal(spec.log_probs, log_probs), (p.probs, n)
            assert np.array_equal(spec.log_mults, log_mults), (p.probs, n)
    assert grouped_spectrum(spectra[1], n_list[-1]).group_count < len(
        _lexicographic_types(n_list[-1], d)
    )


def test_exact_success_prob_example():
    p = new_spectrum([0.75, 0.25])
    log_p, log_fail = exact_success_prob(p, 2, 1.0)
    assert 2.0**log_p == pytest.approx(0.875, abs=1e-12)
    assert 2.0**log_fail == pytest.approx(0.125, abs=1e-12)


def test_trivial_size_one():
    p = new_spectrum([0.6, 0.4])
    log_p, log_fail = exact_success_prob(p, 5, 0.0)
    assert log_p == 0.0
    assert log_fail == -np.inf


def test_size_out_of_range():
    p = new_spectrum([0.6, 0.4])
    with pytest.raises(SizeOutOfRangeError):
        exact_success_prob(p, 3, -0.5)
    with pytest.raises(SizeOutOfRangeError):
        exact_success_prob(p, 3, 3.5)


def test_size_checked_before_the_lattice_is_built(monkeypatch):
    # n = 400, d = 4 has 10.8M types; an out-of-range size must not build them
    calls = []
    build = iid.type_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(iid, "type_matrix", counting)
    p = new_spectrum([0.4, 0.3, 0.2, 0.1])
    with pytest.raises(SizeOutOfRangeError):
        exact_success_prob(p, 400, 1e9)
    with pytest.raises(SizeOutOfRangeError):
        exact_success_prob(p, 400, -1.0)
    assert calls == []
    exact_success_prob(p, 3, 1.0)
    assert calls == [(3, 4, iid.DEFAULT_TYPE_GUARD)]


def test_single_copy_agrees_with_plan_solver():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(2, 10))
        p = random_spectrum(rng, d)
        for size in range(1, d + 1):
            log_p, _ = exact_success_prob(p, 1, math.log2(size))
            assert 2.0**log_p == pytest.approx(
                optimal_probability(p, size), abs=1e-12
            )


def test_multicopy_agrees_with_materialized_product():
    rng = np.random.default_rng(19)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5 if d == 3 else 7))
        p = random_spectrum(rng, d)
        product = full_product_spectrum(p, n)
        for _ in range(4):
            size = int(rng.integers(1, d**n + 1))
            log_p, _ = exact_success_prob(p, n, math.log2(size))
            assert 2.0**log_p == pytest.approx(
                optimal_probability(product, size), abs=1e-11
            )


def test_success_prob_non_increasing_in_size():
    p = new_spectrum([0.55, 0.3, 0.15])
    n = 4
    sizes = np.unique(np.geomspace(1, 3**n, 12).astype(int))
    probs = [exact_success_prob(p, n, math.log2(int(s)))[0] for s in sizes]
    assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))


def test_threshold_size_identity():
    rng = np.random.default_rng(37)
    for _ in range(15):
        p = random_spectrum(rng, int(rng.integers(2, 4)))
        n = int(rng.integers(2, 12))
        spec = grouped_spectrum(p, n)
        bits = float(rng.uniform(0.0, spec.total_log_dim))
        log_t, _, log_p, _ = _solve_grouped_threshold(spec, bits)
        assert log_p == pytest.approx(log_t + bits, abs=1e-10)


def _reference_threshold(spec, log2_size):
    """The k-by-k threshold scan, one group count at a time."""
    lp = spec.log_probs
    lm = spec.log_mults
    log_above = np.logaddexp2.accumulate(lm)
    log_tail = np.logaddexp2.accumulate((lm + lp)[::-1])[::-1]
    for k in range(lp.size):
        log_a = -np.inf if k == 0 else log_above[k - 1]
        if log_a >= log2_size:
            break
        log_t = log_tail[k] - log2_sub(log2_size, log_a)
        upper_ok = k == 0 or lp[k - 1] > log_t
        lower_ok = log_t >= lp[k] - 1e-12
        if upper_ok and lower_ok:
            if k == 0:
                return log_t, k, 0.0, -np.inf
            excess = lm[:k] + lp[:k]
            excess += np.log1p(-np.exp2(log_t - lp[:k])) / LN2
            return log_t, k, min(log_t + log2_size, 0.0), logsumexp2(excess)
    raise SolverError("reference scan found no threshold")


def _scan_outcome(scan, spec, log2_size):
    try:
        return scan(spec, log2_size)
    except SolverError:
        return SolverError


def _edge_sizes(spec, rng):
    """Sizes 0 and d**n, random sizes, sizes that put the threshold exactly
    on a group value, and sizes just above a count of groups."""
    top = spec.total_log_dim
    log_above = np.logaddexp2.accumulate(spec.log_mults)
    log_tail = np.logaddexp2.accumulate(
        (spec.log_mults + spec.log_probs)[::-1]
    )[::-1]
    sizes = [0.0, top, *rng.uniform(0.0, top, size=3).tolist()]
    for j in rng.integers(0, spec.group_count, size=3).tolist():
        # t = value of group j: L = (count above j) + (mass from j) / t
        above = -np.inf if j == 0 else log_above[j - 1]
        sizes.append(float(np.logaddexp2(above, log_tail[j] - spec.log_probs[j])))
        sizes.append(float(log_above[j]) + float(rng.choice([1e-12, 1e-9, 1e-6, 1e-3])))
    return [min(max(b, 0.0), top) for b in sizes]


def test_vectorized_scan_matches_reference_loop():
    rng = np.random.default_rng(83)
    # dyadic spectra, whose product coefficients tie and merge into groups
    dyadic = ([0.5, 0.25, 0.25], [0.5, 0.5], [0.25, 0.25, 0.25, 0.125, 0.125])
    spectra = [new_spectrum(q) for q in dyadic]
    for _ in range(300):
        spectra.append(random_spectrum(rng, int(rng.integers(2, 5))))
    checked = 0
    for p in spectra:
        n = int(rng.integers(1, {2: 300, 3: 40}.get(p.dim, 14)))
        spec = grouped_spectrum(p, n)
        for bits in _edge_sizes(spec, rng):
            # at size d**n the count above can round up to the size before
            # the last group; then both scans raise SolverError
            got = _scan_outcome(_solve_grouped_threshold, spec, bits)
            want = _scan_outcome(_reference_threshold, spec, bits)
            assert got == want, (p.probs, n, bits)
            if want is not SolverError:
                assert [type(a) for a in got] == [type(b) for b in want]
                checked += 1
    assert checked >= 300 * 10


def _whole_log_above(spec):
    return np.concatenate(([-np.inf], np.logaddexp2.accumulate(spec.log_mults)[:-1]))


def _scan_prefix(spec, bits):
    """How many k the scan examines: those whose count above is below the size."""
    whole = _whole_log_above(spec).tolist()
    return next((k for k, v in enumerate(whole) if v >= bits), len(whole))


def _assert_scan_matches_reference(spec, bits):
    got = _scan_outcome(_solve_grouped_threshold, spec, bits)
    want = _scan_outcome(_reference_threshold, spec, bits)
    assert got == want, bits
    return got


def test_scan_prefix_stopping_at_first_groups():
    rng = np.random.default_rng(89)
    for p, n in [(new_spectrum([0.75, 0.25]), 30), (random_spectrum(rng, 3), 25),
                 (new_spectrum([0.5, 0.25, 0.25]), 12)]:
        spec = grouped_spectrum(p, n)
        first = float(spec.log_mults[0])
        # sizes up to the count of the top group examine k = 0 alone; just
        # past it, k = 0 and 1
        just_past = float(np.nextafter(first, np.inf))
        for bits, prefix in [(0.0, 1), (first, 1), (just_past, 2)]:
            assert _scan_prefix(spec, bits) == prefix
            assert _assert_scan_matches_reference(spec, bits)[1] == 0


def test_scan_prefix_crossing_chunk_boundaries():
    # a binomial lattice, whose count above grows strictly up to n / 2
    spec = grouped_spectrum(new_spectrum([0.75, 0.25]), 16_000)
    whole = _whole_log_above(spec)
    log_tail = np.logaddexp2.accumulate((spec.log_mults + spec.log_probs)[::-1])[::-1]
    # chunks end at k = FIRST_CHUNK, 3 FIRST_CHUNK, 7 FIRST_CHUNK
    for edge in (FIRST_CHUNK, 3 * FIRST_CHUNK, 7 * FIRST_CHUNK):
        for k in (edge - 1, edge, edge + 1):
            # the scan stops just before, at or just after the chunk's end
            value = float(whole[k])
            for bits, prefix in [(float(np.nextafter(value, -np.inf)), k), (value, k),
                                 (float(np.nextafter(value, np.inf)), k + 1)]:
                assert _scan_prefix(spec, bits) == prefix
                _assert_scan_matches_reference(spec, bits)
            # the threshold at the value of group k, so the scan ends at k or
            # k + 1, read from counts on either side of the chunk's end
            bits = float(np.logaddexp2(whole[k], log_tail[k] - spec.log_probs[k]))
            assert _assert_scan_matches_reference(spec, bits)[1] in (k, k + 1)


def test_scan_prefix_covering_every_group():
    # converse sizes near n log2 d: every group is below the size
    rng = np.random.default_rng(101)
    cases = [(new_spectrum([0.6, 0.4]), 40), (new_spectrum([0.75, 0.25]), 30),
             (new_spectrum([0.5, 0.3, 0.2]), 12), (random_spectrum(rng, 4), 9),
             (random_spectrum(rng, 3), 90)]
    for p, n in cases:
        spec = grouped_spectrum(p, n)
        top = spec.total_log_dim
        last = float(_whole_log_above(spec)[-1])
        for bits in (float(np.nextafter(last, np.inf)), (last + top) / 2, top):
            assert _scan_prefix(spec, bits) == spec.group_count
            _assert_scan_matches_reference(spec, bits)
    # at d**n the count above rounds up to the size before the last group;
    # both scans raise, as the k-by-k loop always has
    for p, n in cases[:3]:
        spec = grouped_spectrum(p, n)
        with pytest.raises(SolverError):
            _solve_grouped_threshold(spec, spec.total_log_dim)
        with pytest.raises(SolverError):
            _reference_threshold(spec, spec.total_log_dim)


def test_failure_prob_accurate_when_success_is_close_to_one():
    # deep in the high-probability regime the excess-mass route keeps
    # precision that 1 - exp would destroy
    p = new_spectrum([0.75, 0.25])
    _, log_fail = exact_success_prob(p, 400, 400 * 0.45)
    assert -400.0 < log_fail < -5.0


def test_exponent_sweep_direct_regime():
    p = new_spectrum([0.75, 0.25])
    samples = exponent_sweep(p, 0.6, [50, 100], "direct")
    assert [s.n for s in samples] == [50, 100]
    for s in samples:
        assert s.failure_exponent is not None and s.failure_exponent > 0
        assert s.rate >= 0.6  # ceil rounding keeps the realized rate at least R
        assert s.rate <= 0.6 + 1.0 / s.n


def test_exponent_sweep_converse_regime():
    p = new_spectrum([0.75, 0.25])
    samples = exponent_sweep(p, 0.95, [50, 100], "converse")
    for s in samples:
        assert s.success_exponent is not None and s.success_exponent > 0


def test_general_dimension_agrees_with_materialized_product():
    rng = np.random.default_rng(53)
    p = random_spectrum(rng, 4)
    n = 3
    product = full_product_spectrum(p, n)
    for size in (1, 2, 7, 31, 64):
        log_p, _ = exact_success_prob(p, n, math.log2(size))
        assert 2.0**log_p == pytest.approx(
            optimal_probability(product, size), abs=1e-11
        )


def test_fast_path_reaches_large_copy_counts():
    p = new_spectrum([0.75, 0.25])
    log_p, log_fail = exact_success_prob(p, 5000, 0.6 * 5000)
    assert log_p == pytest.approx(0.0, abs=1e-6)
    assert -3000 < log_fail < -100


def test_exponent_sweep_three_symbols_converges_from_above():
    p = new_spectrum([0.5, 0.3, 0.2])
    from concentrate import inverse_direct

    predicted = inverse_direct(p, 1.35)
    exps = [
        exponent_sweep(p, 1.35, [n], "direct")[0].failure_exponent
        for n in (50, 100, 200)
    ]
    assert all(b < a for a, b in zip(exps, exps[1:]))
    allowance = 3 * math.log2(201) / 200
    assert abs(exps[-1] - predicted) <= allowance + 1e-9


def test_exponent_sweep_rejects_boundary_rates():
    p = new_spectrum([0.75, 0.25])
    entropy = -float(p.probs @ p.log2)
    with pytest.raises(RateOutOfRangeError):
        exponent_sweep(p, entropy, [10], "direct")
    with pytest.raises(RateOutOfRangeError):
        exponent_sweep(p, 0.2, [10], "direct")
    with pytest.raises(RateOutOfRangeError):
        exponent_sweep(p, 1.5, [10], "converse")
    with pytest.raises(ValueError):
        exponent_sweep(p, 0.6, [10], "sideways")


def test_ties_in_product_spectrum_merge_correctly():
    # dyadic coefficients make distinct types share sequence probabilities;
    # the merged groups must still reproduce the materialized product
    p = new_spectrum([0.5, 0.25, 0.25])
    n = 3
    spec = grouped_spectrum(p, n)
    assert spec.group_count < len(
        {counts for counts in itertools.product(range(n + 1), repeat=3)}
    )
    product = full_product_spectrum(p, n)
    distinct = np.unique(np.round(np.log2(product.probs), 9))
    assert spec.group_count == distinct.size
    for size in (1, 2, 5, 13, 27):
        log_p, _ = exact_success_prob(p, n, math.log2(size))
        assert 2.0**log_p == pytest.approx(
            optimal_probability(product, size), abs=1e-12
        )


def test_extreme_sizes():
    p = new_spectrum([0.6, 0.3, 0.1])
    n = 4
    cap = n * math.log2(3)
    log_p, log_fail = exact_success_prob(p, n, cap)  # size d**n
    product = full_product_spectrum(p, n)
    assert 2.0**log_p == pytest.approx(optimal_probability(product, 3**n), abs=1e-11)
    assert log_fail < 0.0


def test_converse_success_respects_discrete_upper_bound():
    # success probability is capped by the count-above/mass-below split at
    # the solved threshold, up to the polynomial type-count factor
    from concentrate import enumerate_types
    from concentrate.iid import _solve_grouped_threshold

    p = new_spectrum([0.75, 0.25])
    rate = 0.95
    for n in (40, 90):
        sample = exponent_sweep(p, rate, [n], "converse")[0]
        spec = grouped_spectrum(p, n)
        log_t, _, _, _ = _solve_grouped_threshold(spec, sample.rate * n)
        threshold_rate = -log_t / n
        best_low, best_high = math.inf, math.inf
        for t in enumerate_types(n, 2):
            q = t.distribution()
            mask = q > 0
            h = float(-(q[mask] @ np.log2(q[mask])))
            div = float(q[mask] @ (np.log2(q[mask]) - p.log2[mask]))
            if div + h <= threshold_rate:
                best_low = min(best_low, threshold_rate - h)
            if div + h >= threshold_rate:
                best_high = min(best_high, div)
        allowance = (1 + 2 * math.log2(n + 1)) / n
        assert sample.success_exponent >= min(best_low, best_high) - allowance - 1e-9


def test_exponent_sequences_respect_discrete_lower_bound():
    # failure exponent >= min divergence over feasible types, minus the
    # polynomial allowance, checkable exactly at every n
    from concentrate import enumerate_types

    p = new_spectrum([0.75, 0.25])
    rate = 0.6
    for n in (40, 90):
        sample = exponent_sweep(p, rate, [n], "direct")[0]
        best = math.inf
        for t in enumerate_types(n, 2):
            q = t.distribution()
            mask = q > 0
            h = float(-(q[mask] @ np.log2(q[mask])))
            div = float(q[mask] @ (np.log2(q[mask]) - p.log2[mask]))
            if div + h <= sample.rate:
                best = min(best, div)
        allowance = 2 * math.log2(n + 1) / n
        assert sample.failure_exponent >= best - allowance - 1e-9
