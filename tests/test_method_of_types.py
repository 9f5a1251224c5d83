"""The type lattice and the class-size / class-probability sandwiches.

A type is a counts row; type_matrix lists them, and lattice_logs gives each
one's log2 sequence probability and class size in the same row order.
"""

import math
import tracemalloc

import numpy as np
import pytest

from concentrate import (
    TooManyTypesError,
    count_types,
    lattice_logs,
    new_spectrum,
    type_matrix,
)
from concentrate import method_of_types
from concentrate.numerics import LN2, logsumexp2
from conftest import random_spectrum
from reference import (
    Lattice,
    compositions,
    ln_factorial,
    ln_factorial_ulps,
    log_sequence_prob,
    log_type_class_size,
)


def _entropy_of(counts):
    q = np.asarray(counts) / sum(counts)
    q = q[q > 0]
    return float(-(q @ np.log2(q)))


def _divergence_of(counts, p):
    q = np.asarray(counts) / sum(counts)
    mask = q > 0
    return float(q[mask] @ (np.log2(q[mask]) - p.log2[mask]))


def test_enumeration_example_n3_d2():
    assert type_matrix(3, 2).tolist() == [[3, 0], [2, 1], [1, 2], [0, 3]]


def test_enumeration_count_n2_d3():
    rows = type_matrix(2, 3)
    assert len(rows) == 6 == count_types(2, 3)
    assert len({tuple(r) for r in rows.tolist()}) == 6


def test_enumeration_respects_polynomial_bound():
    for n in range(1, 61, 7):
        for d in (1, 2, 3, 4):
            assert count_types(n, d) <= (n + 1) ** d


def test_enumeration_guard():
    with pytest.raises(TooManyTypesError):
        type_matrix(100, 8, max_count=10_000)


def _type(counts, log_q=None):
    """lattice_logs' (log2 sequence probability, log2 class size) of one
    type, read at its row of type_matrix."""
    n, d = sum(counts), len(counts)
    row = type_matrix(n, d).tolist().index(list(counts))
    logs, sizes = lattice_logs(n, np.zeros(d) if log_q is None else log_q)
    return float(logs[row]), float(sizes[row])


def test_lattice_logs_equal_the_row_functions_on_type_matrix():
    # the builder adds the same floats in the same order as the counts
    # route on type_matrix's rows: equal, bit for bit
    rng = np.random.default_rng(97)
    top = {1: 60, 2: 60, 3: 40, 4: 20, 5: 12, 6: 8}
    for d in range(1, 7):
        for n in (1, 2, int(rng.integers(3, top[d]))):
            q = rng.dirichlet(np.ones(d))
            rows = type_matrix(n, d)
            log_probs, log_sizes = lattice_logs(n, np.log2(q))
            assert np.array_equal(log_probs, log_sequence_prob(rows, np.log2(q))), (d, n)
            assert np.array_equal(log_sizes, log_type_class_size(rows)), (d, n)
            # a column of m tied symbols counts m**c sequences for c of them
            mults = rng.integers(1, 4, size=d)
            tied = lattice_logs(n, np.log2(q), mults=mults)[1]
            want = log_type_class_size(rows) + rows @ np.log2(mults)
            assert np.max(np.abs(tied - want)) <= 1e-12, (d, n)


def _floor_cases(rng, d):
    """(log_q, mults) to build the lattice over: a random spectrum's values,
    a spectrum with a tied pair (its distinct values and multiplicities),
    and decreasing values two of which are 1e-11 bits apart."""
    p = random_spectrum(rng, d)
    cases = [(p.log2, None)]
    if d >= 2:
        tied = new_spectrum(np.append(p.probs[:-1], p.probs[-2]), renormalize=True)
        cases.append((tied.log2[tied.starts], tied.mults))
        near = np.sort(np.log2(rng.dirichlet(np.ones(d))))[::-1]
        near[1] = near[0] - 1e-11
        cases.append((near, None))
    return cases


@pytest.mark.parametrize("d, n", [(1, 40), (2, 300), (3, 60), (4, 24), (5, 14), (6, 10)])
def test_floor_build_is_the_full_build_filtered(d, n):
    # the entries above the floor, bit for bit in row order, with the floor
    # on a type's value, one float either side of it, and 1e-12 bits either
    # side; above every type and below every type
    rng = np.random.default_rng(400 + d)
    for log_q, mults in _floor_cases(rng, d):
        full = lattice_logs(n, log_q, mults=mults)
        values = rng.choice(full[0], size=4).tolist()
        floors = [0.0, float(np.min(full[0])) - 1.0]
        for v in values:
            floors += [v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf),
                       v + 1e-12, v - 1e-12]
        for floor in floors:
            above = full[0] > floor
            cut = lattice_logs(n, log_q, mults=mults, floor=floor)
            assert np.array_equal(cut[0], full[0][above]), (d, n, floor)
            assert np.array_equal(cut[1], full[1][above]), (d, n, floor)


@pytest.mark.parametrize("d, n", [(1, 40), (2, 300), (3, 80), (4, 24), (5, 14), (6, 10)])
def test_band_build_is_the_full_build_split(d, n):
    # the entries in (floor, ceiling], bit for bit in row order, and the
    # exact sums of the rest: the count and mass above the ceiling and the
    # mass at or below the floor equal logsumexp2 of the full build's
    # entries there. Bounds on type values, one float either side and 1e-12
    # bits either side; bands holding every type, none, or one end. Over
    # four or more values the chains' sums add the terms in another order
    # and rounding than the entries; at these n the entries' own rounding
    # stays below the tolerance (see the mpmath test for larger n)
    rng = np.random.default_rng(600 + d)
    for log_q, mults in _floor_cases(rng, d):
        full = lattice_logs(n, log_q, mults=mults)
        lowest, highest = float(np.min(full[0])), float(np.max(full[0]))
        bands = [(lowest - 1.0, highest), (lowest - 1.0, lowest - 0.5),
                 (highest + 0.5, highest + 1.0), (-math.inf, 0.5 * (lowest + highest))]
        for v, w in rng.choice(full[0], size=(4, 2)).tolist():
            for shift in (0.0, 1e-12, -1e-12):
                bands.append((min(v, w) + shift, max(v, w) - shift))
            bands.append((math.nextafter(min(v, w), -math.inf), math.nextafter(max(v, w), math.inf)))
        for floor, ceiling in bands:
            logs, sizes, sums = lattice_logs(n, log_q, mults=mults, floor=floor,
                                             ceiling=ceiling)
            inside = (full[0] > floor) & (full[0] <= ceiling)
            assert np.array_equal(logs, full[0][inside]), (d, n, floor, ceiling)
            assert np.array_equal(sizes, full[1][inside]), (d, n, floor, ceiling)
            above, below = full[0] > ceiling, full[0] <= floor
            masses = full[0] + full[1]
            wanted = (logsumexp2(full[1][above]), logsumexp2(masses[above]),
                      logsumexp2(masses[below]))
            for got, want in zip(sums, wanted):
                assert (got == want == -math.inf
                        or abs(got - want) <= 2e-15 * max(1.0, abs(want))), (
                    d, n, floor, ceiling, got, want)


@pytest.mark.parametrize("d, n", [(4, 40), (5, 20)])
def test_band_sums_against_50_digits(d, n):
    # at larger n each entry carries a rounding of a few ulp of its ~100-bit
    # terms, so the full build's sums drift from the exact ones as well: the
    # chains' sums are within 5e-14 bits of the mpmath lattice's sums (the
    # full build's sums were up to 3.1e-14 off on such draws)
    rng = np.random.default_rng(700 + d)
    p = random_spectrum(rng, d)
    full = lattice_logs(n, p.log2)
    exact = Lattice(p.probs.tolist(), n)
    for floor, ceiling in np.sort(rng.choice(full[0], size=(3, 2)), axis=1).tolist():
        _, _, sums = lattice_logs(n, p.log2, floor=floor, ceiling=ceiling)
        above, below = full[0] > ceiling, full[0] <= floor
        wanted = (*exact.log2_sums(above), exact.log2_sums(below)[1])
        for got, want in zip(sums, wanted):
            assert (got == want == -math.inf
                    or abs(got - want) <= 5e-14 * max(1.0, abs(want))), (d, got, want)


def test_chain_count_table_is_a_cache(monkeypatch):
    # band entries and sums over four and five values (random, and with the
    # last pair tied as multiplicities 2 and 1 or 1 and 2) are the same with
    # the process-wide chain count table cold, warm from a larger n, and
    # built in ascending and in descending n; the table holds one entry per
    # pair of last multiplicities, grown in place to the largest n
    rng = np.random.default_rng(910)
    cases = [(np.sort(np.log2(rng.dirichlet(np.ones(d))))[::-1], mults)
             for d, mults in ((4, None), (4, [1, 1, 2, 1]), (5, [2, 1, 1, 1, 2]))]
    ns = (9, 17, 30)
    bands = {(c, n): np.sort(rng.choice(lattice_logs(n, cases[c][0], mults=cases[c][1])[0],
                                        size=(3, 2)), axis=1).tolist()
             for c in range(len(cases)) for n in ns}

    def build(c, n):
        log_q, mults = cases[c]
        return [lattice_logs(n, log_q, mults=mults, floor=floor, ceiling=ceiling)
                for floor, ceiling in bands[c, n]]

    cold = {}
    for key in bands:
        monkeypatch.setattr(method_of_types, "_CHAIN_COUNTS", {})
        cold[key] = build(*key)
    for order in (ns, ns[::-1]):
        monkeypatch.setattr(method_of_types, "_CHAIN_COUNTS", {})
        for n in order:
            for c in range(len(cases)):
                for got, want in zip(build(c, n), cold[c, n]):
                    assert np.array_equal(got[0], want[0]), (order, c, n)
                    assert np.array_equal(got[1], want[1]), (order, c, n)
                    assert got[2] == want[2], (order, c, n)
        table = method_of_types._CHAIN_COUNTS
        assert sorted(table) == [(1, 1), (1, 2), (2, 1)], order
        entries = dict(table)
        for leaves, top, sums in entries.values():
            assert leaves.shape == (31, 31) and top.shape == (31, 1) and sums.shape == (31, 32)
        build(2, 9)
        assert all(table[key] is entry for key, entry in entries.items())


@pytest.mark.parametrize("build", [
    lambda n, d, **kw: lattice_logs(n, np.log2(np.full(d, 1.0 / d)), **kw),
    lambda n, d, **kw: lattice_logs(n, -np.arange(1.0, d + 1), floor=-2.0 * n, **kw),
    lambda n, d, **kw: lattice_logs(n, -np.arange(1.0, d + 1), floor=-2.0 * n,
                                    ceiling=-1.5 * n, **kw),
    lambda n, d, **kw: type_matrix(n, d, **kw),
], ids=["lattice_logs", "lattice_logs_floor", "lattice_logs_band", "type_matrix"])
def test_lattice_logs_guard_allocates_nothing(build):
    # 5e11 types: the guard raises before the ln c! table or any array is made
    build(3, 3)
    tracemalloc.start()
    try:
        with pytest.raises(TooManyTypesError):
            build(10**6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    with pytest.raises(TooManyTypesError):
        build(100, 8, max_count=10_000)


def test_type_matrix_matches_product_reference():
    for d in range(1, 6):
        for n in range(1, 13):
            got = type_matrix(n, d)
            want = compositions(n, d)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (n, d)


def test_type_matrix_lattice_invariants():
    n, d = 60, 4
    rows = type_matrix(n, d)
    assert rows.shape == (count_types(n, d), d)
    assert np.all(rows >= 0) and np.all(rows.sum(axis=1) == n)
    assert len({tuple(r) for r in rows.tolist()}) == rows.shape[0]
    # strictly descending in lexicographic order: the first differing
    # count of each consecutive pair drops
    diff = rows[:-1] - rows[1:]
    first = diff[np.arange(diff.shape[0]), np.argmax(diff != 0, axis=1)]
    assert np.all(first > 0)


def test_type_matrix_argument_errors_and_guard():
    # both builders refuse n < 1 and d < 1 in their shared walker
    log_q = np.log2([0.5, 0.25, 0.25])
    for call in (lambda: type_matrix(0, 3), lambda: type_matrix(3, 0),
                 lambda: lattice_logs(0, log_q), lambda: lattice_logs(3, [])):
        with pytest.raises(ValueError):
            call()
    # about 1.7e11 types: the guard must fire before anything is allocated
    with pytest.raises(TooManyTypesError):
        type_matrix(10_000, 4, max_count=10**6)


def test_log_type_class_size_rows_bit_equal_to_per_entry_ln_factorial():
    # lattice_logs' class sizes, ln c! from the table on both sides of
    # c = 170, against n! / prod c! one entry at a time
    for n, d in ((1, 4), (20, 4), (400, 2), (180, 3)):
        want = [
            (ln_factorial(sum(row)) - sum(ln_factorial(c) for c in row)) / LN2
            for row in type_matrix(n, d).tolist()
        ]
        assert np.array_equal(lattice_logs(n, np.zeros(d))[1], want), (n, d)
    # ln 2! is ln 2 rounded, as LN2 is, so log2 C(2, 1) is exactly one
    assert lattice_logs(2, np.zeros(2))[1].tolist() == [0.0, 1.0, 0.0]


def test_ln_factorial_table_against_mpmath():
    # at most 0.5 ulp (correctly rounded) up to 170, 2 ulp above
    rng = np.random.default_rng(73)
    large = [171, 172, 1000, 20_000, *rng.integers(171, 20_001, size=300).tolist()]
    table = method_of_types._ln_factorials(20_000)
    for c in [*range(171), *large]:
        ulps = ln_factorial_ulps(float(table[c]), c, dps=40)
        assert ulps <= (0.5 if c <= 170 else 2.0), (c, ulps)


def test_ln_factorial_table_grown_in_pieces_equals_one_build(monkeypatch):
    monkeypatch.setattr(method_of_types, "_LN_FACTORIAL", np.zeros(1))
    for n in (0, 5, 170, 171, 900, 900, 3000):
        table = method_of_types._ln_factorials(n)
    assert method_of_types._ln_factorials(10) is table  # nothing recomputed
    monkeypatch.setattr(method_of_types, "_LN_FACTORIAL", np.zeros(1))
    assert np.array_equal(method_of_types._ln_factorials(3000), table)
    assert table.size == 3001


def test_log_type_class_size_examples():
    assert _type((7, 0, 0))[1] == pytest.approx(0.0, abs=1e-12)
    assert _type((3, 1))[1] == pytest.approx(2.0, abs=1e-12)
    assert _type((2, 2))[1] == pytest.approx(math.log2(6), abs=1e-12)


def test_log_sequence_prob_examples():
    flat = new_spectrum([0.5, 0.5])
    for counts in ((4, 0), (2, 2), (0, 4)):
        assert _type(counts, flat.log2)[0] == pytest.approx(-4.0, abs=1e-12)
    p = new_spectrum([0.75, 0.25])
    assert _type((2, 0), p.log2)[0] == pytest.approx(2 * math.log2(0.75), abs=1e-12)


def test_log_sequence_prob_matches_entropy_form():
    rng = np.random.default_rng(41)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 30))
        q = random_spectrum(rng, d)
        counts = rng.multinomial(n, q.probs)
        expected = -n * (_entropy_of(counts) + _divergence_of(counts, q))
        assert _type(counts.tolist(), q.log2)[0] == pytest.approx(expected, abs=1e-10)


def test_log_type_class_prob_example_binomial():
    flat = new_spectrum([0.5, 0.5])
    assert sum(_type((2, 2), flat.log2)) == pytest.approx(math.log2(6 / 16), abs=1e-12)


def test_type_class_probs_sum_to_one():
    rng = np.random.default_rng(13)
    for d in (2, 3):
        for n in (5, 11, 23):
            q = random_spectrum(rng, d)
            total = logsumexp2(np.add(*lattice_logs(n, q.log2)))
            assert total == pytest.approx(0.0, abs=1e-10)


def test_size_and_prob_sandwiches():
    rng = np.random.default_rng(29)
    for d in (2, 3):
        for n in (4, 9, 21):
            slack = d * math.log2(n + 1)
            types = type_matrix(n, d)
            for _ in range(5):
                q = random_spectrum(rng, d)
                seqs, sizes = lattice_logs(n, q.log2)
                for t, seq, size in zip(types, seqs.tolist(), sizes.tolist()):
                    h = _entropy_of(t)
                    assert size <= n * h + 1e-9
                    assert size >= n * h - slack - 1e-9
                    div = _divergence_of(t, q)
                    prob = size + seq
                    assert prob <= -n * div + 1e-9
                    assert prob >= -n * div - slack - 1e-9
