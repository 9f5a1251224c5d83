"""Exact n-copy quantities against a literal product-state oracle.

For small n the full product spectrum (all d**n coefficient products) fits
in memory, so the single-copy machinery applied to it is an independent
route to every n-copy success probability; the grouped log-space path must
reproduce it exactly. Floats are dyadic, so the product's groups and the
threshold scan also run in exact integers (ExactProduct), which checks the
scan where floats cancel: at d**n, just below it and on group values.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concentrate import (
    RateOutOfRangeError,
    SizeOutOfRangeError,
    SolverError,
    count_types,
    exact_success_prob,
    exponent_sweep,
    grouped_spectrum,
    new_spectrum,
    optimal_probability,
    shannon_entropy,
    solve_plan,
    verify_recovery_bound,
)
from concentrate import finite, iid
from concentrate.finite import BLOCK, TIE_BITS, _breakpoint_search
from concentrate.iid import _solve_grouped_threshold
from concentrate.numerics import LN2, log2_sub, logsumexp2
from concentrate.spectra import SNAP_TOL
from conftest import random_spectrum
from reference import (
    DPS,
    ExactProduct,
    Lattice,
    compositions,
    full_product_spectrum,
    log2_sum,
    log_sequence_prob,
    log_type_class_size,
)


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


@pytest.mark.parametrize("probs, n", [([0.5, 0.3, 0.2], 100), ([0.41, 0.29, 0.19, 0.11], 30)])
def test_logsumexp2_of_lattice_masses_against_40_digits(probs, n):
    # the whole mass and tails past the first 2% and 20% of the groups
    spec = grouped_spectrum(new_spectrum(probs), n)
    mass = spec.log_probs + spec.log_mults
    assert mass.size > 5000
    for frac in (0.0, 0.02, 0.2):
        tail = mass[int(frac * mass.size):]
        assert abs(logsumexp2(tail) - log2_sum(tail, dps=40)) <= 2e-15, frac


def test_logsumexp2_edge_cases():
    inf = math.inf
    assert logsumexp2([]) == -inf
    assert logsumexp2([-inf, -inf]) == -inf
    assert logsumexp2([0.0, inf, -3.0]) == inf
    assert math.isnan(logsumexp2([0.0, math.nan]))
    assert math.isnan(logsumexp2([inf, math.nan]))
    for v in (0.0, -3.7, 1e300, -1e300, 5e-324, -inf):
        assert logsumexp2([v]) == v
        assert type(logsumexp2([v])) is float
    assert logsumexp2([-1.0, -1.0]) == 0.0
    assert logsumexp2([3.0, -inf]) == 3.0


def test_log2_sub_is_minus_inf_unless_a_exceeds_b():
    assert log2_sub(1.0, 1.0) == -math.inf
    assert log2_sub(1.0, 2.0) == -math.inf


def _sorted_lattice_groups(p, n):
    """The grouped spectrum built the direct way: the counts route on every
    composition, then one argsort."""
    counts = compositions(n, p.dim)
    log_probs, log_mults = log_sequence_prob(counts, p.log2), log_type_class_size(counts)
    order = np.argsort(log_probs)[::-1]
    return log_probs[order], log_mults[order]


#: a geometric spectrum, tie-free with types that share a value, then a
#: dyadic and a plain spectrum with ties
PINNED_SPECTRA = {
    3: ([4 / 7, 2 / 7, 1 / 7], [0.5, 0.25, 0.25], [0.4, 0.4, 0.2]),
    4: ([8 / 15, 4 / 15, 2 / 15, 1 / 15], [0.5, 0.25, 0.125, 0.125], [0.3, 0.3, 0.2, 0.2]),
    5: ([16 / 31, 8 / 31, 4 / 31, 2 / 31, 1 / 31], [0.25, 0.25, 0.25, 0.125, 0.125],
        [0.3, 0.3, 0.2, 0.1, 0.1]),
}


@pytest.mark.parametrize(
    "d, n_list", [(3, (1, 2, 7, 23, 40)), (4, (1, 5, 12, 20)), (5, (1, 6, 14))]
)
def test_grouped_spectrum_equals_sorted_lattice_construction(d, n_list):
    # random and geometric (types share values) spectra bit for bit, one
    # entry per type; a tied spectrum's lattice runs over its distinct
    # values, so its groups are checked against the exact integer groups
    rng = np.random.default_rng(100 + d)
    geometric, *tied = PINNED_SPECTRA[d]
    spectra = [random_spectrum(rng, d), new_spectrum(geometric, renormalize=True)]
    for p in spectra:
        for n in n_list:
            spec = grouped_spectrum(p, n)
            log_probs, log_mults = _sorted_lattice_groups(p, n)
            assert np.array_equal(spec.log_probs, log_probs), (p.probs, n)
            assert np.array_equal(spec.log_mults, log_mults), (p.probs, n)
            assert spec.group_count == len(compositions(n, d))
    # the geometric lattice has types within TIE_BITS of each other
    assert np.any(-np.diff(grouped_spectrum(spectra[1], n_list[-1]).log_probs) <= TIE_BITS)
    for p in map(new_spectrum, tied):
        for n in n_list:
            _assert_groups_exact(grouped_spectrum(p, n), ExactProduct(p, n))


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
    build = iid.lattice_logs

    def counting(n, log_q, *args):
        calls.append((n, len(log_q), *args[:1], *args[2:3]))
        return build(n, log_q, *args)

    monkeypatch.setattr(iid, "lattice_logs", counting)
    p = new_spectrum([0.4, 0.3, 0.2, 0.1])
    with pytest.raises(SizeOutOfRangeError):
        exact_success_prob(p, 400, 1e9)
    with pytest.raises(SizeOutOfRangeError):
        exact_success_prob(p, 400, -1.0)
    assert calls == []
    # a direct size builds only the types above 1/(2L) = 1/4 (none here)
    # and answers from them
    _every_lattice_tries_the_band(monkeypatch)
    exact_success_prob(p, 3, 1.0)
    assert calls == [(3, 4, iid.DEFAULT_TYPE_GUARD, -2.0)]


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


def _blocked_prefix_and_tail(spec, log2_size):
    """A_k and T_k for each k with A_k below the size, in the search's order.
    Groups come in blocks of BLOCK, each with a shifted sum of its counts and
    one of its masses; the blocks before a block chain into the count at its
    start, the blocks after it into the mass past its end. In a block the
    count chains on from its start, and the mass chains back from the groups
    past the last count below the size, which take one shifted sum."""
    lm, lp = spec.log_mults, spec.log_probs
    mass = lm + lp
    starts = range(0, lm.size, BLOCK)
    above_start, tail_past = [-np.inf], [-np.inf]
    if len(starts) > 1:
        counts = [logsumexp2(lm[s : s + BLOCK]) for s in starts]
        masses = [logsumexp2(mass[s : s + BLOCK]) for s in starts]
        above_start = np.logaddexp2.accumulate([-np.inf, *counts[:-1]])
        tail_past = [*np.logaddexp2.accumulate(masses[::-1])[::-1][1:], -np.inf]
    log_above, log_tail = [], []
    for b, s in enumerate(starts):
        above = np.logaddexp2.accumulate(np.append(above_start[b], lm[s : s + BLOCK - 1]))
        admitted = int(np.count_nonzero(above < log2_size))
        seed = logsumexp2(mass[s + admitted : s + BLOCK])
        if tail_past[b] > -np.inf:
            seed = np.logaddexp2(seed, tail_past[b])
        tail = np.logaddexp2.accumulate(np.append(seed, mass[s : s + admitted][::-1]))[:0:-1]
        log_above.append(above[:admitted])
        log_tail.append(tail)
        if admitted < above.size:
            break
    return np.concatenate(log_above), np.concatenate(log_tail)


def _reference_threshold(spec, log2_size):
    """The k-by-k threshold scan, one group count at a time, on A_k and T_k
    summed in the search's order."""
    lp = spec.log_probs
    lm = spec.log_mults
    log_above, log_tail = _blocked_prefix_and_tail(spec, log2_size)
    for k, log_a in enumerate(log_above):
        log_t = log_tail[k] - log2_sub(log2_size, log_a)
        upper_ok = k == 0 or lp[k - 1] > log_t
        lower_ok = log_t >= lp[k] - 1e-12
        if upper_ok and lower_ok:
            if k == 0:
                return log_t, k, 0.0, -np.inf
            log_success = min(log_t + log2_size, 0.0)
            if log_success < -1.0:
                return log_t, k, log_success, math.log1p(-(2.0**log_success)) / LN2
            excess = lm[:k] + lp[:k]
            excess += np.log1p(-np.exp2(log_t - lp[:k])) / LN2
            log_failure = min(logsumexp2(excess), 0.0)
            if log_failure < -1.0:
                log_success = math.log1p(-(2.0**log_failure)) / LN2
            return log_t, k, log_success, log_failure
    raise SolverError("reference scan found no threshold")


def _assert_matches_exact(spec, exact, bits):
    _, _, log_p, log_f = _solve_grouped_threshold(spec, bits)
    want_p, want_f = exact.log_success(bits, spec.total_log_dim)
    assert abs(log_p - want_p) <= 1e-10, (bits, log_p, want_p)
    assert log_f == want_f or abs(log_f - want_f) <= 1e-10, (bits, log_f, want_f)


def _assert_groups_exact(spec, exact, pool_bits=0.0):
    """Summed over the entries (types) nearest each of the exact product's
    distinct values, the entries give those values and their counts, within
    1e-10 bits. Exact values within pool_bits of the one before are pooled
    first: a float spectrum whose ratios are not powers of two puts types
    that share a value in theory a roundoff apart."""
    log_values = np.array([math.log2(v) - exact.shift for v in exact.values])
    keep = np.flatnonzero(np.append(True, -np.diff(log_values) > pool_bits))
    log_values = log_values[keep]
    log_counts = np.logaddexp2.reduceat(np.log2(exact.counts), keep)
    lp = spec.log_probs
    hi = np.minimum(np.searchsorted(-log_values, -lp), log_values.size - 1)
    lo = np.maximum(hi - 1, 0)
    nearest = np.where(np.abs(log_values[lo] - lp) < np.abs(log_values[hi] - lp), lo, hi)
    # the entries are non-increasing, so each exact value's entries are a run
    runs = np.flatnonzero(np.append(True, np.diff(nearest) != 0))
    assert np.array_equal(nearest[runs], np.arange(log_values.size))
    assert np.max(np.abs(lp - log_values[nearest])) <= 1e-10
    assert np.max(np.abs(np.logaddexp2.reduceat(spec.log_mults, runs) - log_counts)) <= 1e-10


def _group_sizes(spec, groups):
    """Sizes that put the threshold exactly on the value of each group j:
    L = (count above j) + (mass from j) / (value of j)."""
    log_above = np.concatenate(([-np.inf], np.logaddexp2.accumulate(spec.log_mults)))
    log_tail = np.logaddexp2.accumulate((spec.log_mults + spec.log_probs)[::-1])[::-1]
    sizes = np.logaddexp2(log_above[:-1], log_tail - spec.log_probs)
    return [float(sizes[j]) for j in groups]


def _edge_sizes(spec, rng):
    """Sizes 0 and d**n, random sizes, sizes that put the threshold exactly
    on a group value, and sizes just above a count of groups. Returns the
    sizes 0 and random sizes more than a bit below d**n, where the scan
    reads the count above directly, then the rest."""
    top = spec.total_log_dim
    log_above = np.logaddexp2.accumulate(spec.log_mults)
    sizes = [0.0, top, *rng.uniform(0.0, top, size=3).tolist()]
    for j in rng.integers(0, spec.group_count, size=3).tolist():
        sizes.extend(_group_sizes(spec, [j]))
        sizes.append(float(log_above[j]) + float(rng.choice([1e-12, 1e-9, 1e-6, 1e-3])))
    sizes = [min(max(b, 0.0), top) for b in sizes]
    direct = [sizes[0]] + [b for b in sizes[2:5] if b <= top - 1.0]
    return direct, [sizes[1]] + [b for b in sizes[2:5] if b > top - 1.0] + sizes[5:]


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
        direct, rest = _edge_sizes(spec, rng)
        for bits in direct:
            got = _solve_grouped_threshold(spec, bits)
            want = _reference_threshold(spec, bits)
            assert got == want, (p.probs, n, bits)
            assert [type(a) for a in got] == [type(b) for b in want]
            checked += 1
        # at d**n, within a bit of it, on group values and just above a
        # count the k-by-k loop loses bits or raises: check these exactly
        exact = ExactProduct(p, n)
        for bits in rest:
            _assert_matches_exact(spec, exact, bits)
    assert checked >= 300 * 3


def _whole_log_above(spec):
    return np.concatenate(([-np.inf], np.logaddexp2.accumulate(spec.log_mults)[:-1]))


def _scan_prefix(spec, bits):
    """How many k the scan examines: those whose count above is below the size."""
    whole = _whole_log_above(spec).tolist()
    return next((k for k, v in enumerate(whole) if v >= bits), len(whole))


def _assert_scan_matches_reference(spec, bits):
    got = _solve_grouped_threshold(spec, bits)
    assert got == _reference_threshold(spec, bits), bits
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
    p, n = new_spectrum([0.75, 0.25]), 16_000
    spec = grouped_spectrum(p, n)
    # every size lies far below d**n, so no digits cancel: 50 are enough
    oracle = Lattice(p.probs.tolist(), n, dps=DPS)
    whole = _whole_log_above(spec)
    # blocks end at k = BLOCK, 3 BLOCK, 7 BLOCK
    for edge in (BLOCK, 3 * BLOCK, 7 * BLOCK):
        for k in (edge - 1, edge, edge + 1):
            # the scan stops just before, at or just after the block's end
            value = float(whole[k])
            for bits, prefix in [(float(np.nextafter(value, -np.inf)), k), (value, k),
                                 (float(np.nextafter(value, np.inf)), k + 1)]:
                assert _scan_prefix(spec, bits) == prefix
                _assert_scan_matches_reference(spec, bits)
            # the threshold at the value of group k, so the scan ends at k or
            # k + 1, read from counts on either side of the block's end
            bits = _group_sizes(spec, [k])[0]
            got = _solve_grouped_threshold(spec, bits)
            assert got[1] in (k, k + 1)
            # log2 P against the 50-digit lattice, to the 1e-9 bits that the
            # log-space sums hold at n in the thousands
            assert abs(got[2] - oracle.log2_probs(bits)[0]) <= 1e-9, (k, bits)
            assert got == _reference_threshold(spec, bits), bits


def test_scan_prefix_covering_every_group():
    # converse sizes near n log2 d, where every group is below the size
    rng = np.random.default_rng(101)
    cases = [(new_spectrum([0.6, 0.4]), 40), (new_spectrum([0.75, 0.25]), 30),
             (new_spectrum([0.5, 0.3, 0.2]), 12), (random_spectrum(rng, 4), 9),
             (random_spectrum(rng, 3), 90)]
    for p, n in cases:
        spec = grouped_spectrum(p, n)
        exact = ExactProduct(p, n)
        top = spec.total_log_dim
        last = float(_whole_log_above(spec)[-1])
        for bits in (float(np.nextafter(last, np.inf)), (last + top) / 2, top):
            assert _scan_prefix(spec, bits) == spec.group_count
            _assert_matches_exact(spec, exact, bits)
        # at d**n the threshold is the smallest coefficient: P = (d p_d)**n
        log_p = exact_success_prob(p, n, top)[0]
        assert log_p == pytest.approx(n * math.log2(p.dim * p.probs[-1]), abs=1e-10)


#: geometric spectra by dimension, with their n: tie-free, but types share a
#: value (within TIE_BITS)
GEOMETRIC_BY_DIM = {
    3: (([4 / 7, 2 / 7, 1 / 7], 20), ([9 / 13, 3 / 13, 1 / 13], 16)),
    4: (([8 / 15, 4 / 15, 2 / 15, 1 / 15], 10),),
    5: (([16 / 31, 8 / 31, 4 / 31, 2 / 31, 1 / 31], 6), ([0.5, 0.25, 0.125, 0.0625, 0.0625], 12)),
}


@pytest.mark.parametrize("d, n_max", [(2, 60), (3, 8), (4, 10), (5, 6)])
def test_scan_matches_exact_oracle(d, n_max):
    rng = np.random.default_rng(200 + d)
    spectra = [new_spectrum([0.6, 0.4]), new_spectrum([0.75, 0.25])] if d == 2 else [
        new_spectrum([0.5, 0.3, 0.2]), new_spectrum([0.5, 0.25, 0.25])]
    spectra += [random_spectrum(rng, d) for _ in range(8)]
    cases = [(p, None) for p in spectra]
    cases += [(new_spectrum(q, renormalize=True), n) for q, n in GEOMETRIC_BY_DIM.get(d, ())]
    for p, n in cases:
        n = int(rng.integers(1, n_max + 1)) if n is None else n
        spec = grouped_spectrum(p, n)
        exact = ExactProduct(p, n)
        _assert_groups_exact(spec, exact, pool_bits=1e-13)
        top = spec.total_log_dim
        below = [top - gap for gap in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 10.0)]
        # on-group sizes at types that share a value and at the type after
        # each, when there are any
        shared = np.flatnonzero(-np.diff(spec.log_probs) <= TIE_BITS)
        if shared.size:
            groups = rng.choice(shared, size=3).tolist()
            groups += [j + 1 for j in groups]
        else:
            groups = rng.integers(0, spec.group_count, size=3).tolist()
        log_above = np.logaddexp2.accumulate(spec.log_mults)
        counts = [float(log_above[j]) + rng.choice([1e-12, 1e-6, 1e-3]) for j in groups]
        sizes = below + _group_sizes(spec, groups) + counts
        sizes += rng.uniform(0.0, top, size=3).tolist() + [0.0]
        for bits in sizes:
            if bits >= 0.0:
                _assert_matches_exact(spec, exact, min(bits, top))


def test_closed_form_at_the_largest_size():
    # at d**n the threshold is the smallest product coefficient p_d**n
    rng = np.random.default_rng(211)
    for _ in range(30):
        p = random_spectrum(rng, 2)
        n = int(rng.integers(10, 121))
        log_p = exact_success_prob(p, n, float(n))[0]
        assert log_p == pytest.approx(n * math.log2(2 * p.probs[-1]), abs=1e-10)


def test_failure_prob_at_the_largest_size_stays_below_one():
    # at d**n, 1 - P = 1 - (d p_d)**n: its log2 is negative, however small P
    rng = np.random.default_rng(211)
    cases = [(new_spectrum([0.75, 0.25]), 60), (new_spectrum([0.9, 0.1]), 60)]
    cases += [(random_spectrum(rng, 2), int(rng.integers(10, 121))) for _ in range(30)]
    for p, n in cases:
        log_f = exact_success_prob(p, n, float(n))[1]
        want = math.log1p(-((2 * p.probs[-1]) ** n)) / LN2
        assert log_f < 0.0 and log_f == pytest.approx(want, rel=1e-9), (p.probs, n)
    # underflowing 1 - P stays a signed zero below one, never +0
    log_f = exact_success_prob(new_spectrum([0.75, 0.25]), 1600, 1600.0)[1]
    assert log_f == 0.0 and math.copysign(1.0, log_f) == -1.0
    # a converse rate whose size rounds up to d**n: both exponents positive
    for p in (new_spectrum([0.75, 0.25]), new_spectrum([0.9, 0.1])):
        sample = exponent_sweep(p, 0.995, [5])[0]
        assert sample.rate == 1.0
        assert sample.failure_exponent > 0.0 and sample.success_exponent > 0.0


@st.composite
def _spectra(draw):
    """Random, tied (equal entries) and dyadic (halvings of one) spectra,
    d from 1 to 4."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "tied", "dyadic"]))
    if kind == "random":
        return random_spectrum(np.random.default_rng(draw(st.integers(0, 10**6))), d)
    if kind == "tied":
        weights = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
        return new_spectrum(sorted(weights, reverse=True), renormalize=True)
    probs = [1.0]
    for _ in range(d - 1):
        probs.append(probs.pop(draw(st.integers(0, len(probs) - 1))) / 2.0)
        probs.append(probs[-1])
    return new_spectrum(sorted(probs, reverse=True))


@settings(max_examples=60, deadline=None)
@given(_spectra(), st.integers(1, 40), st.lists(st.floats(0.0, 1.0), max_size=8))
def test_scan_is_total_and_never_increases(p, n, fractions):
    n = min(n, {1: 40, 2: 40, 3: 12, 4: 6}[p.dim])
    spec = grouped_spectrum(p, n)
    top = spec.total_log_dim
    sizes = sorted({0.0, top, *(top * f for f in fractions)})
    previous = 0.0
    for bits in sizes:
        log_t, _, log_p, _ = _solve_grouped_threshold(spec, bits)
        assert log_p == pytest.approx(log_t + bits, abs=1e-10)
        assert log_p <= previous + 1e-10
        previous = log_p
    for size in range(1, p.dim + 1):
        plan = solve_plan(p, size)
        cut = plan.cut_index
        assert np.all(p.probs[: cut - 1] > plan.threshold)
        assert plan.threshold >= p.probs[cut - 1] * (1.0 - 1e-12)


@st.composite
def _tie_spectra(draw):
    """Tied, near-tied (one gap 10% below or above the tie tolerance) and
    tie-free spectra, d from 1 to 4."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["tied", "below", "above", "free"]))
    if kind == "tied":
        weights = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
        return new_spectrum(sorted(weights, reverse=True), renormalize=True)
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    raw = np.sort(rng.uniform(0.05, 1.0, size=d))[::-1]
    j = draw(st.integers(0, max(d - 2, 0)))
    if kind != "free" and d > 1:
        raw[j + 1] = raw[j]
    raw /= raw.sum()
    if kind != "free" and d > 1:
        # the gap as new_spectrum sees it, up to a relative 1e-12 of rescaling
        raw[j + 1] = raw[j] * (1.0 - (0.9 if kind == "below" else 1.1) * SNAP_TOL / raw[0])
    p = new_spectrum(raw, renormalize=True)
    # a gap just below the tolerance ties, one just above it does not
    assert p.mults.size == (d - 1 if kind == "below" and d > 1 else d)
    return p


@settings(max_examples=80, deadline=None)
@given(_tie_spectra(), st.integers(1, 40))
def test_groups_plans_and_kernel_agree_on_tied_and_near_tied_spectra(p, n):
    # the groups stored by new_spectrum are the runs of exactly equal entries
    probs = p.probs
    assert np.array_equal(p.starts, np.flatnonzero(np.append(True, probs[1:] != probs[:-1])))
    if p.dim >= 2:
        # the recovery scan reads one threshold per group; per entry it is the same
        tail = np.append(np.cumsum(probs[::-1])[::-1], 0.0)
        values = []
        for x in probs:
            count = int(np.count_nonzero(probs >= x))
            values.append((count + tail[count] / x) * math.sqrt(x))
        k = int(np.argmax(values))
        check = verify_recovery_bound(p, 2)
        assert (check.best_sqrt_pl, check.best_threshold_index) == (values[k], k + 1)
    n = min(n, {1: 40, 2: 40, 3: 12, 4: 6}[p.dim])
    _assert_groups_exact(grouped_spectrum(p, n), ExactProduct(p, n))
    for size in range(1, p.dim + 1):
        assert solve_plan(p, size).success_prob == pytest.approx(
            optimal_probability(p, size), abs=1e-12)
    # the kernel's grouped sums of [1, D, D**2] 2**(s D) against every entry
    shift = p.log2 - p.log2[0]
    for s in (0.0, 0.5, 1.0, 2.5, 40.0):
        weights = np.exp2(s * shift)
        expanded = [weights.sum(), (weights * shift).sum(), (weights * shift * shift).sum()]
        grouped = np.add.reduce(np.exp2(s * p.powers[0]) * p.powers[1:], 1)
        np.testing.assert_array_max_ulp(grouped, np.array(expanded), maxulp=4)


@pytest.mark.parametrize(
    "probs, n", [([0.5, 0.3, 0.2], 60), ([0.41, 0.29, 0.19, 0.11], 25), ([0.7, 0.3], 1600)]
)
def test_blocked_search_sums_against_40_digits(probs, n):
    # lattices of 3 or more blocks, at a direct and a converse size more than
    # a bit below the top: log2 T_k and log2 (L - A_k) at the returned k are
    # within 2e-15 bits per bit of their size of the 40-digit sums of the
    # same float counts and masses
    p = new_spectrum(probs)
    spec = grouped_spectrum(p, n)
    lm, lp, top = spec.log_mults, spec.log_probs, spec.total_log_dim
    assert spec.group_count > 2 * BLOCK
    entropy = shannon_entropy(p)
    for rate in ((p.min_entropy + entropy) / 2, (entropy + math.log2(p.dim)) / 2):
        bits = n * rate
        assert bits < top - 1.0
        k, log_tail, log_room = _breakpoint_search(lp, lm, bits, top)
        assert k > 1
        want_tail = log2_sum((lm + lp)[k:], dps=40)
        want_room = log2_sum([bits], less=lm[:k], dps=40)
        for got, want in ((log_tail, want_tail), (log_room, want_room)):
            error = abs(got - want)
            assert error <= 2e-15 * max(1.0, abs(want)), (rate, want, error)


class _ChainLengths:
    """numpy for finite, with logaddexp2.accumulate recording each input's length."""

    def __init__(self):
        self.lengths = []
        self.logaddexp2 = self

    def __getattr__(self, name):
        return getattr(np, name)

    def __call__(self, *args, **kwargs):
        return np.logaddexp2(*args, **kwargs)

    def accumulate(self, values, *args, **kwargs):
        self.lengths.append(np.size(values))
        return np.logaddexp2.accumulate(values, *args, **kwargs)


def test_breakpoint_search_chains_within_blocks(monkeypatch):
    # 20,825 groups (41 blocks): within a bit of the top, at it and below
    # it, no logaddexp2 chain runs over more than a block and its seed
    spec = grouped_spectrum(new_spectrum([0.297, 0.288, 0.212, 0.203]), 48)
    lp, lm, top = spec.log_probs, spec.log_mults, spec.total_log_dim
    assert 20_000 < spec.group_count < BLOCK * BLOCK
    sizes = [top - 1.5, top - 1.0 + 1e-9, top - 0.576, top - 0.01, top]
    want = [_breakpoint_search(lp, lm, bits, top) for bits in sizes]
    chains = _ChainLengths()
    monkeypatch.setattr(finite, "np", chains)
    for bits, expected in zip(sizes, want):
        chains.lengths.clear()
        assert _breakpoint_search(lp, lm, bits, top) == expected
        assert 0 < max(chains.lengths) <= BLOCK + 1, (top - bits, max(chains.lengths))


@pytest.mark.parametrize(
    "probs, n", [([0.297, 0.288, 0.212, 0.203], 37), ([0.36, 0.33, 0.31], 120)]
)
def test_near_top_against_50_digits(probs, n):
    # near-uniform lattices of more than BLOCK types, from the old branch
    # boundary (a bit below the top) to 0.01 bits below it, and at block
    # starts' breakpoints within a bit of the top: log2 P and log2 (1 - P)
    # within 1e-12 bits. Closer to the top than about 1e-3 bits the float
    # top, n log2 d, sets the error instead. The count chains round at
    # ulp(n log2 d) per step, which a small 1 - P magnifies: on
    # [0.35, 0.33, 0.32] at n = 120, a bit below the top, log2 (1 - P) is
    # 1.8e-12 bits off
    p = new_spectrum(probs)
    ref = Lattice(p.probs.tolist(), n)
    assert ref.count == count_types(n, len(probs)) > BLOCK
    top = n * math.log2(len(probs))
    sizes = [top - gap for gap in (1.0 + 1e-9, 1.0 - 1e-9, 0.7, 0.3, 0.01)]
    edges = [ref.log2_breakpoint(k) for k in range(BLOCK, ref.count, BLOCK)]
    sizes += [bits for bits in edges if top - 1.0 < bits < top - 1e-3]
    assert len(sizes) > 8
    for bits in sizes:
        for value, exact in zip(exact_success_prob(p, n, bits), ref.log2_probs(bits)):
            assert abs(value - exact) <= 1e-12, (top - bits, value, exact)


def test_grouped_spectrum_peaks_within_six_result_arrays():
    # no counts matrix: the lattice's last column holds its two results, its
    # offsets and counts and one column of terms; the sort, the order and two
    # sorted copies. d = 4, n = 200: 1.37M types, 10.5 MiB a result array
    p = new_spectrum([0.41, 0.29, 0.19, 0.11])
    grouped_spectrum(p, 5)
    tracemalloc.start()
    try:
        spec = grouped_spectrum(p, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = spec.log_probs.nbytes
    assert spec.group_count == count_types(200, 4) == 1_373_701
    assert peak <= 6 * result + 2**20, peak / result


def test_tied_lattice_runs_over_distinct_values(monkeypatch):
    # [0.3, 0.3, 0.3, 0.1] at n = 200: 201 types over two values, not 1.37M
    rows = []
    build = iid.lattice_logs

    def counting(*args):
        rows.append(build(*args))
        return rows[-1]

    monkeypatch.setattr(iid, "lattice_logs", counting)
    p = new_spectrum([0.3, 0.3, 0.3, 0.1])
    spec = grouped_spectrum(p, 200)
    assert [len(r[0]) for r in rows] == [201] and spec.group_count == 201
    assert spec.normalization_defect() == pytest.approx(0.0, abs=1e-12)
    exact = ExactProduct(p, 30)
    spec = grouped_spectrum(p, 30)
    for bits in (0.0, 10.0, 30.0, 45.0, spec.total_log_dim):
        _assert_matches_exact(spec, exact, bits)


def test_success_prob_near_one_by_log1p_of_the_failure_prob():
    # log2 P as log_t + log2 L cancels to ulp(log2 L); with 1 - P < 1/2 it
    # comes from log1p(-(1 - P)) instead: about -2.5e-33 here, not -2.3e-13
    p = new_spectrum([0.5, 0.3, 0.2])
    n, entropy = 600, -float(p.probs @ p.log2)
    log_p, log_f = exact_success_prob(p, n, n * 0.5 * (p.min_entropy + entropy))
    assert log_f == pytest.approx(-108.85, abs=0.01)
    assert log_p == math.log1p(-(2.0**log_f)) / LN2
    assert -3e-33 < log_p < -2e-33


def test_failure_prob_accurate_when_success_is_close_to_one():
    # deep in the high-probability regime the excess-mass route keeps
    # precision that 1 - exp would destroy
    p = new_spectrum([0.75, 0.25])
    _, log_fail = exact_success_prob(p, 400, 400 * 0.45)
    assert -400.0 < log_fail < -5.0


def test_exponent_sweep_direct_regime():
    p = new_spectrum([0.75, 0.25])
    samples = exponent_sweep(p, 0.6, [50, 100])
    assert [s.n for s in samples] == [50, 100]
    for s in samples:
        assert s.failure_exponent is not None and s.failure_exponent > 0
        assert s.rate >= 0.6  # ceil rounding keeps the realized rate at least R
        assert s.rate <= 0.6 + 1.0 / s.n


def test_exponent_sweep_converse_regime():
    p = new_spectrum([0.75, 0.25])
    samples = exponent_sweep(p, 0.95, [50, 100])
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
        exponent_sweep(p, 1.35, [n])[0].failure_exponent
        for n in (50, 100, 200)
    ]
    assert all(b < a for a, b in zip(exps, exps[1:]))
    allowance = 3 * math.log2(201) / 200
    assert abs(exps[-1] - predicted) <= allowance + 1e-9


def test_exponent_sweep_rejects_boundary_rates():
    p = new_spectrum([0.75, 0.25])
    entropy = -float(p.probs @ p.log2)
    with pytest.raises(RateOutOfRangeError):
        exponent_sweep(p, entropy, [10])
    with pytest.raises(RateOutOfRangeError):
        exponent_sweep(p, 0.2, [10])
    with pytest.raises(RateOutOfRangeError):
        exponent_sweep(p, 1.5, [10])


def test_ties_in_product_spectrum_merge_correctly():
    # tied entries make distinct types share sequence probabilities; the
    # lattice over the distinct values must still reproduce the product
    p = new_spectrum([0.5, 0.25, 0.25])
    n = 3
    spec = grouped_spectrum(p, n)
    assert spec.group_count < len(compositions(n, 3))
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
    from concentrate import type_matrix
    from concentrate.iid import _solve_grouped_threshold

    p = new_spectrum([0.75, 0.25])
    rate = 0.95
    for n in (40, 90):
        sample = exponent_sweep(p, rate, [n])[0]
        spec = grouped_spectrum(p, n)
        log_t, _, _, _ = _solve_grouped_threshold(spec, sample.rate * n)
        threshold_rate = -log_t / n
        best_low, best_high = math.inf, math.inf
        for counts in type_matrix(n, 2):
            q = counts / n
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
    from concentrate import type_matrix

    p = new_spectrum([0.75, 0.25])
    rate = 0.6
    for n in (40, 90):
        sample = exponent_sweep(p, rate, [n])[0]
        best = math.inf
        for counts in type_matrix(n, 2):
            q = counts / n
            mask = q > 0
            h = float(-(q[mask] @ np.log2(q[mask])))
            div = float(q[mask] @ (np.log2(q[mask]) - p.log2[mask]))
            if div + h <= sample.rate:
                best = min(best, div)
        allowance = 2 * math.log2(n + 1) / n
        assert sample.failure_exponent >= best - allowance - 1e-9


def _direct_sizes(p, n, fractions=(0.1, 0.3, 0.5, 0.7, 0.9)):
    """log2 of the integer sizes at rates these fractions of the way from
    -log2 p_1 to H(p), as exponent_sweep rounds them."""
    entropy = shannon_entropy(p)
    rates = [p.min_entropy + f * (entropy - p.min_entropy) for f in fractions]
    return [iid._log2_size_for_rate(n, r, n * math.log2(p.dim)) for r in rates]


def _counting_full_route(monkeypatch):
    """Record each whole-lattice build of exact_success_prob."""
    calls = []
    build = iid.grouped_spectrum

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(iid, "grouped_spectrum", counting)
    return calls


def _full_route(p, n, bits):
    """exact_success_prob's answer from the whole lattice."""
    spec = grouped_spectrum(p, n)
    return tuple(float(x) for x in _solve_grouped_threshold(spec, bits)[2:])


def _every_lattice_tries_the_band(monkeypatch):
    """Route every lattice over the band or the cut, not only those of more
    than one search block, where exact references are cheap."""
    monkeypatch.setattr(iid, "BLOCK", 0)


def test_small_lattices_take_the_whole_route(monkeypatch):
    # over three or more values, a lattice of BLOCK = 512 types (one search
    # block; n = 1 over 512 values) makes one lattice_logs call at a direct
    # and at a converse size, with no floor or ceiling; at 513 types the
    # first call is the cut's (a floor, no ceiling) or the band's (both).
    # Over two values the cut and the band are tried at any n
    calls = []
    build = iid.lattice_logs

    def counting(*args):
        calls.append(args[4:])
        return build(*args)

    monkeypatch.setattr(iid, "lattice_logs", counting)
    cases = [(new_spectrum(np.exp(-np.arange(d) / 40.0), renormalize=True), 1, d == BLOCK)
             for d in (BLOCK, BLOCK + 1)] + [(new_spectrum([0.7, 0.3]), 511, False)]
    for p, n, whole in cases:
        assert count_types(n, p.starts.size) == (BLOCK if n == 511 else p.dim)
        for sizes in (_direct_sizes, _converse_sizes):
            calls.clear()
            bits = sizes(p, n, (0.3,))[0]
            assert bits <= n * math.log2(p.dim) - 1.0
            exact_success_prob(p, n, bits)
            if whole:
                assert calls == [()], (p.dim, sizes, calls)
                continue
            floor, ceiling = calls[0]
            assert floor > -math.inf, (p.dim, sizes, calls)
            assert (ceiling < math.inf) == (sizes is _converse_sizes), (p.dim, sizes, calls)


def test_exact_success_prob_returns_floats_on_every_branch(monkeypatch):
    # k = 0; P < 1/2; P >= 1/2 from the types above 1/(2L) and from the
    # whole lattice (over half the mass above 1/(2L)); the count from the
    # top at d**n, P < 1/2
    _every_lattice_tries_the_band(monkeypatch)
    first, skewed = new_spectrum([0.6, 0.3, 0.1]), new_spectrum([0.9, 0.1])
    cases = [(first, 3, 0.0, lambda lp: lp == 0.0),
             (first, 20, 20 * math.log2(3) - 2.0, lambda lp: lp < -1.0),
             (first, 40, 40.0, lambda lp: lp >= -1.0),
             (skewed, 3, 1.0, lambda lp: lp >= -1.0),
             (first, 3, 3 * math.log2(3), lambda lp: lp < -1.0)]
    for p, n, bits, branch in cases:
        got = exact_success_prob(p, n, bits)
        assert [type(x) for x in got] == [float, float], (n, bits)
        assert branch(got[0]), (n, bits, got)
    sample = exponent_sweep(first, 1.5, [20])[0]
    assert type(sample.success_exponent) is float


@pytest.mark.parametrize("d, n_list", [(2, (60, 200)), (3, (30, 45)), (4, (16, 24))])
def test_direct_cut_matches_exact_product(d, n_list, monkeypatch):
    # direct sizes answered from the types above 1/(2L), against the exact
    # integer product, both log2 P and log2 (1 - P)
    rng = np.random.default_rng(500 + d)
    _every_lattice_tries_the_band(monkeypatch)
    full = _counting_full_route(monkeypatch)
    answered = 0
    for p in [random_spectrum(rng, d) for _ in range(3)]:
        for n in n_list:
            exact, top = ExactProduct(p, n), n * math.log2(d)
            for bits in _direct_sizes(p, n):
                full.clear()
                log_p, log_f = exact_success_prob(p, n, bits)
                answered += not full
                want_p, want_f = exact.log_success(bits, top)
                assert abs(log_p - want_p) <= 1e-10, (n, bits, log_p, want_p)
                assert log_f == want_f or abs(log_f - want_f) <= 1e-10, (n, bits, log_f, want_f)
    assert answered >= 25, answered


def test_direct_cut_matches_binomial_scan(monkeypatch):
    # d = 2 at n in the thousands, answered from the types above 1/(2L),
    # against the 50-digit lattice
    full = _counting_full_route(monkeypatch)
    for probs, n in (([0.75, 0.25], 1000), ([0.6, 0.4], 2500), ([0.9, 0.1], 4000)):
        p = new_spectrum(probs)
        oracle = Lattice(p.probs.tolist(), n, dps=DPS)  # far below d**n
        for bits in _direct_sizes(p, n, (0.2, 0.5, 0.8, 0.95)):
            log_p, log_f = exact_success_prob(p, n, bits)
            assert full == [], (n, bits)
            want_p, want_f = oracle.log2_probs(bits)
            assert abs(log_p - want_p) <= 1e-9, (n, bits)
            assert abs(log_f - want_f) <= 1e-9, (n, bits)


def test_direct_cut_falls_back_to_the_whole_lattice(monkeypatch):
    # P < 1/2 below the entropy at small n (the types above 1/(2L) hold
    # over half the mass), a larger kept mass, and a size within a bit of
    # d**n, which tries no cut: the whole lattice answers, exactly as
    # without the cut
    _every_lattice_tries_the_band(monkeypatch)
    floors = []
    build = iid.lattice_logs

    def counting(*args):
        floors.append(args[4] if len(args) > 4 else None)
        return build(*args)

    monkeypatch.setattr(iid, "lattice_logs", counting)
    cases = [([0.95, 0.05], 4, 1.0, [-2.0, None]), ([0.9, 0.1], 3, 1.0, [-2.0, None]),
             ([0.55, 0.45], 10, 9.5, [None])]
    for probs, n, bits, tried in cases:
        p = new_spectrum(probs)
        assert bits < n * shannon_entropy(p)
        floors.clear()
        got = exact_success_prob(p, n, bits)
        assert floors == tried, probs
        assert got == _full_route(p, n, bits), probs
    assert exact_success_prob(new_spectrum([0.95, 0.05]), 4, 1.0)[0] < -1.0


def test_direct_cut_builds_only_the_types_above_the_floor(monkeypatch):
    # the shares of the lattice above 1/(2L) at L = 2**(n R), as measured
    # when the cut was designed, in percent to the digits measured
    built = []
    build = iid.lattice_logs

    def counting(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(iid, "lattice_logs", counting)
    cases = [([0.6, 0.3, 0.1], 2000, ((0.8, 0.160, 3), (1.0, 2.70, 2), (1.25, 10.2, 1))),
             ([0.5, 0.25, 0.15, 0.1], 200, ((1.2, 0.248, 3), (1.5, 3.34, 2), (1.7, 8.89, 2)))]
    for probs, n, shares in cases:
        p = new_spectrum(probs)
        total = count_types(n, p.dim)
        for rate, share, digits in shares:
            built.clear()
            exact_success_prob(p, n, n * rate)
            assert len(built) == 1, (probs, rate)
            kept = 100 * built[0][0].size / total
            assert kept < share + 0.5 * 10.0**-digits, (probs, rate, kept)


def test_direct_cut_peaks_under_one_result_array():
    # d = 4, n = 200 at R = 1.7, 94% of the way to H(p), where 8.9% of the
    # types lie above 1/(2L): the whole lattice's 1.37M types would take
    # 10.5 MiB a result array
    p = new_spectrum([0.5, 0.25, 0.15, 0.1])
    exact_success_prob(p, 5, 5.0)
    tracemalloc.start()
    try:
        exact_success_prob(p, 200, 200 * 1.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * count_types(200, 4), peak


def _converse_sizes(p, n, fractions=(0.1, 0.3, 0.5, 0.7, 0.9)):
    """log2 of the integer sizes at rates these fractions of the way from
    H(p) to log2 d, as exponent_sweep rounds them."""
    entropy, top = shannon_entropy(p), math.log2(p.dim)
    rates = [entropy + f * (top - entropy) for f in fractions]
    return [iid._log2_size_for_rate(n, r, n * top) for r in rates]


@st.composite
def _band_cases(draw):
    """A spectrum over d = 2-5 -- random, with a tied pair (mults > 1) or
    with two values 1e-11 bits apart -- and an n that keeps the lattice
    below about 300k types."""
    d = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["random", "tied", "near"]))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    raw = np.sort(rng.dirichlet(np.ones(d)) + 0.02)[::-1]
    j = draw(st.integers(0, d - 2))
    if kind == "tied":
        raw[j + 1] = raw[j]
    elif kind == "near":
        raw[j + 1] = raw[j] * 2.0**-1e-11
    p = new_spectrum(raw, renormalize=True)
    assert p.starts.size == (d - 1 if kind == "tied" else d)
    return p, draw(st.integers(1, {2: 120, 3: 120, 4: 80, 5: 30}[d]))


@settings(max_examples=40, deadline=None)
@given(_band_cases(), st.lists(st.floats(0.02, 0.98), min_size=1, max_size=3))
def test_band_route_matches_the_whole_lattice(case, fractions):
    # converse and direct sizes: the band (or, below n H(p), the floor)
    # answers as the whole lattice does, within 1e-10 bits in log2 P and
    # log2 (1 - P), at every lattice size
    p, n = case
    with pytest.MonkeyPatch.context() as patch:
        _every_lattice_tries_the_band(patch)
        for bits in _converse_sizes(p, n, fractions) + _direct_sizes(p, n, fractions):
            got, want = exact_success_prob(p, n, bits), _full_route(p, n, bits)
            for x, y in zip(got, want):
                assert x == y or abs(x - y) <= 1e-10, (n, bits, got, want)


@pytest.mark.parametrize("d, n_list", [(2, (60, 200)), (3, (30, 45)), (4, (16, 24))])
def test_converse_band_matches_exact_product(d, n_list, monkeypatch):
    # converse sizes answered from the band, against the exact integer
    # product, both log2 P and log2 (1 - P); every size a bit or more below
    # d**n answers from the band
    rng = np.random.default_rng(800 + d)
    _every_lattice_tries_the_band(monkeypatch)
    full = _counting_full_route(monkeypatch)
    tried = answered = 0
    for p in [random_spectrum(rng, d) for _ in range(3)]:
        for n in n_list:
            exact, top = ExactProduct(p, n), n * math.log2(d)
            for bits in _converse_sizes(p, n):
                full.clear()
                log_p, log_f = exact_success_prob(p, n, bits)
                tried += bits <= top - 1.0
                answered += not full
                want_p, want_f = exact.log_success(bits, top)
                assert abs(log_p - want_p) <= 1e-10, (n, bits, log_p, want_p)
                assert log_f == want_f or abs(log_f - want_f) <= 1e-10, (n, bits, log_f, want_f)
    assert answered == tried >= 15, (answered, tried)


def test_converse_band_falls_back_to_the_whole_lattice(monkeypatch):
    # with no width the band is empty and t, a bit or more below the
    # ceiling, lies below it: the whole lattice answers, exactly as without
    # the band
    _every_lattice_tries_the_band(monkeypatch)
    full = _counting_full_route(monkeypatch)
    monkeypatch.setattr(iid, "_band_width", lambda n, tilt: 0.0)
    for probs, n in (([0.6, 0.3, 0.1], 40), ([0.5, 0.25, 0.15, 0.1], 20), ([0.7, 0.3], 300)):
        p = new_spectrum(probs)
        for bits in _converse_sizes(p, n):
            full.clear()
            assert exact_success_prob(p, n, bits) == _full_route(p, n, bits), (probs, bits)
            assert len(full) == 1, (probs, bits)


def test_converse_band_builds_only_the_types_near_the_threshold(monkeypatch):
    # the shares of the lattice inside the band at rates 20% and 80% of the
    # way from H(p) to log2 d (ROADMAP item 15's table), as measured when
    # the band was designed, in percent to the digits measured; every call
    # answers from the band
    built = []
    build = iid.lattice_logs

    def counting(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(iid, "lattice_logs", counting)
    full = _counting_full_route(monkeypatch)
    cases = [([0.6, 0.3, 0.1], 2000, ((1.353, 0.255, 3), (1.527, 0.722, 3))),
             ([0.5, 0.25, 0.15, 0.1], 400, ((1.794, 1.10, 2), (1.949, 3.34, 2)))]
    for probs, n, shares in cases:
        p = new_spectrum(probs)
        total = count_types(n, p.dim)
        for rate, share, digits in shares:
            built.clear()
            exact_success_prob(p, n, n * rate)
            assert len(built) == 1 and full == [], (probs, rate)
            kept = 100 * built[0][0].size / total
            assert kept < share + 0.5 * 10.0**-digits, (probs, rate, kept)


def test_converse_band_peaks_under_100_mib():
    # d = 4, n = 400 (10.8M types) at R = 1.949, 80% of the way from H(p)
    # to log2 d: the whole lattice peaked at 415 MiB traced
    p = new_spectrum([0.5, 0.25, 0.15, 0.1])
    exact_success_prob(p, 5, 5 * 1.949)
    tracemalloc.start()
    try:
        exact_success_prob(p, 400, 400 * 1.949)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20, peak / 2**20


def test_exponent_sweep_solves_one_tilt_per_converse_job(monkeypatch):
    # the ceiling's tilt is solved once, at the job's rate, for every n;
    # direct jobs solve none
    calls = []
    solve = iid.solve_tilts

    def counting(*args):
        calls.append(args[1:])
        return solve(*args)

    monkeypatch.setattr(iid, "solve_tilts", counting)
    p = new_spectrum([0.6, 0.3, 0.1])
    exponent_sweep(p, 1.45, [20, 40, 80])
    assert calls == [([1.45], "converse_rate")]
    calls.clear()
    exponent_sweep(p, 1.0, [20, 40, 80])
    assert calls == []
