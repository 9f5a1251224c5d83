"""The type lattice and the class-size / class-probability sandwiches.

A type is a counts row; every function takes one row or an (m, d) array.
"""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from concentrate import (
    DimensionMismatchError,
    NegativeEntryError,
    TooManyTypesError,
    count_types,
    lattice_logs,
    log_sequence_prob,
    log_type_class_prob,
    log_type_class_size,
    new_spectrum,
    type_matrix,
)
from concentrate import method_of_types
from concentrate.numerics import LN2, logsumexp2
from conftest import ln_factorial, random_spectrum


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


def test_lattice_logs_equal_the_row_functions_on_type_matrix():
    # the builder adds the same floats in the same order as log_sequence_prob
    # and log_type_class_size on type_matrix's rows: equal, bit for bit
    rng = np.random.default_rng(97)
    top = {1: 60, 2: 60, 3: 40, 4: 20, 5: 12, 6: 8}
    for d in range(1, 7):
        for n in (1, 2, int(rng.integers(3, top[d]))):
            q = rng.dirichlet(np.ones(d))
            rows = type_matrix(n, d)
            log_probs, log_sizes = lattice_logs(n, np.log2(q))
            assert np.array_equal(log_probs, log_sequence_prob(rows, q)), (d, n)
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
    # stays below the tolerance (see the 50-digit test for larger n)
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
    # chains' sums are within 5e-14 bits of 50-digit sums over the exact
    # class sizes (the full build's sums were up to 3.1e-14 off on such draws)
    rng = np.random.default_rng(700 + d)
    p = random_spectrum(rng, d)
    rows = type_matrix(n, d)
    full = lattice_logs(n, p.log2)
    with mpmath.workdps(50):
        q = [mpmath.mpf(2) ** mpmath.mpf(v) for v in p.log2.tolist()]
        sizes = [math.factorial(n) // math.prod(math.factorial(c) for c in row)
                 for row in rows.tolist()]
        masses = [size * mpmath.fprod(qj**c for qj, c in zip(q, row))
                  for size, row in zip(sizes, rows.tolist())]
        for floor, ceiling in np.sort(rng.choice(full[0], size=(3, 2)), axis=1).tolist():
            _, _, sums = lattice_logs(n, p.log2, floor=floor, ceiling=ceiling)
            above, below = full[0] > ceiling, full[0] <= floor
            wanted = (sum(s for s, a in zip(sizes, above) if a),
                      mpmath.fsum(m for m, a in zip(masses, above) if a),
                      mpmath.fsum(m for m, b in zip(masses, below) if b))
            for got, want in zip(sums, wanted):
                want = float(mpmath.log(want, 2)) if want else -math.inf
                assert (got == want == -math.inf
                        or abs(got - want) <= 5e-14 * max(1.0, abs(want))), (d, got, want)


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


def _product_reference(n, d):
    """Compositions of n into d parts via itertools.product, descending."""
    rows = [
        head + (n - sum(head),)
        for head in itertools.product(range(n + 1), repeat=d - 1)
        if sum(head) <= n
    ]
    return np.array(sorted(rows, reverse=True), dtype=np.int64).reshape(-1, d)


def test_type_matrix_matches_product_reference():
    for d in range(1, 6):
        for n in range(1, 13):
            got = type_matrix(n, d)
            want = _product_reference(n, d)
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
    rng = np.random.default_rng(71)
    counts = rng.integers(0, 400, size=(200, 4))
    counts[:4] = [[0, 0, 0, 1], [5, 5, 5, 5], [0, 0, 0, 0], [399, 0, 1, 0]]
    want = [
        (ln_factorial(sum(row)) - sum(ln_factorial(c) for c in row)) / LN2
        for row in counts.tolist()
    ]
    got = log_type_class_size(counts)
    assert np.array_equal(got, want)
    # ln 2! is ln 2 rounded, as LN2 is, so log2 C(2, 1) is exactly one
    assert log_type_class_size([[1, 1], [2, 0]]).tolist() == [1.0, 0.0]


def test_ln_factorial_table_against_mpmath():
    # at most 0.5 ulp (correctly rounded) up to 170, 2 ulp above
    rng = np.random.default_rng(73)
    large = [171, 172, 1000, 20_000, *rng.integers(171, 20_001, size=300).tolist()]
    table = method_of_types._ln_factorials(20_000)
    with mpmath.workdps(40):
        for c in [*range(171), *large]:
            exact = mpmath.loggamma(c + 1)
            ulps = abs(mpmath.mpf(table[c]) - exact) / math.ulp(float(exact) or 1.0)
            assert ulps <= (0.5 if c <= 170 else 2.0), (c, float(ulps))


def test_ln_factorial_table_grown_in_pieces_equals_one_build(monkeypatch):
    monkeypatch.setattr(method_of_types, "_LN_FACTORIAL", np.zeros(1))
    for n in (0, 5, 170, 171, 900, 900, 3000):
        table = method_of_types._ln_factorials(n)
    assert method_of_types._ln_factorials(10) is table  # nothing recomputed
    monkeypatch.setattr(method_of_types, "_LN_FACTORIAL", np.zeros(1))
    assert np.array_equal(method_of_types._ln_factorials(3000), table)
    assert table.size == 3001


def test_log_type_class_size_examples():
    assert log_type_class_size((7, 0, 0)) == pytest.approx(0.0, abs=1e-12)
    assert log_type_class_size((3, 1)) == pytest.approx(2.0, abs=1e-12)
    assert log_type_class_size((2, 2)) == pytest.approx(math.log2(6), abs=1e-12)


def test_log_sequence_prob_examples():
    flat = new_spectrum([0.5, 0.5])
    for counts in ((4, 0), (2, 2), (0, 4)):
        assert log_sequence_prob(counts, flat) == pytest.approx(-4.0, abs=1e-12)
    p = new_spectrum([0.75, 0.25])
    assert log_sequence_prob((2, 0), p) == pytest.approx(2 * math.log2(0.75), abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        log_sequence_prob((1, 1, 1), p)


def test_log_sequence_prob_matches_entropy_form():
    rng = np.random.default_rng(41)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 30))
        q = random_spectrum(rng, d)
        counts = rng.multinomial(n, q.probs)
        expected = -n * (_entropy_of(counts) + _divergence_of(counts, q))
        assert log_sequence_prob(counts, q) == pytest.approx(expected, abs=1e-10)


def test_log_type_class_prob_example_binomial():
    flat = new_spectrum([0.5, 0.5])
    assert log_type_class_prob((2, 2), flat) == pytest.approx(
        math.log2(6 / 16), abs=1e-12
    )


def test_type_class_probs_sum_to_one():
    rng = np.random.default_rng(13)
    for d in (2, 3):
        for n in (5, 11, 23):
            q = random_spectrum(rng, d)
            total = logsumexp2(log_type_class_prob(type_matrix(n, d), q))
            assert total == pytest.approx(0.0, abs=1e-10)


def test_size_and_prob_sandwiches():
    rng = np.random.default_rng(29)
    for d in (2, 3):
        for n in (4, 9, 21):
            slack = d * math.log2(n + 1)
            types = type_matrix(n, d)
            for _ in range(5):
                q = random_spectrum(rng, d)
                for t in types:
                    h = _entropy_of(t)
                    size = log_type_class_size(t)
                    assert size <= n * h + 1e-9
                    assert size >= n * h - slack - 1e-9
                    div = _divergence_of(t, q)
                    prob = log_type_class_prob(t, q)
                    assert prob <= -n * div + 1e-9
                    assert prob >= -n * div - slack - 1e-9


def test_rows_equal_one_row_calls():
    # every function adds its columns left to right, one elementwise pass per
    # column, so a row's value is the same alone, among all lattice rows and
    # in any block of rows, for a general q
    rng = np.random.default_rng(83)
    for d in range(1, 9):
        n = next(n for n in range(int(rng.integers(1, 30)), 0, -1)
                 if count_types(n, d) <= 1500)
        rows = type_matrix(n, d)
        mixed = rng.integers(0, 50, size=(40, d))
        for q in (random_spectrum(rng, d), rng.dirichlet(np.ones(d)).tolist()):
            for counts in (rows, mixed):
                cuts = np.cumsum(rng.integers(2, 12, size=len(counts)))
                blocks = np.split(counts, cuts[cuts < len(counts)])
                sizes = log_type_class_size(counts)
                for fn in (log_type_class_size, log_sequence_prob, log_type_class_prob):
                    args = () if fn is log_type_class_size else (q,)
                    many = fn(counts, *args)
                    assert many.shape == (len(counts),)
                    one = [fn(r, *args) for r in counts]
                    assert all(type(v) is float for v in one)
                    assert np.array_equal(many, one), (fn.__name__, d)
                    assert np.array_equal(np.concatenate([fn(b, *args) for b in blocks]), one)
                seq = log_sequence_prob(counts, q)
                assert np.array_equal(log_type_class_prob(counts, q), sizes + seq)


def test_log_sequence_prob_peaks_at_two_result_arrays():
    # a matmul of the int64 lattice would make a float64 copy of all of it:
    # 64 MB at d = 3, n = 2000 against a 16 MB result. Besides the result and
    # one column's products, only numpy's 8192-element int-to-float cast
    # buffer and a few small objects are allowed.
    p = new_spectrum([0.5, 0.3, 0.2])
    rows = type_matrix(2000, 3)
    log_sequence_prob(rows[:3], p)
    tracemalloc.start()
    try:
        out = log_sequence_prob(rows, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 * len(rows) > 16_000_000
    assert peak <= 2 * out.nbytes + 8 * 8192 + 8192, peak


def test_zero_q_entry_excludes_only_rows_that_use_it():
    q = [0.5, 0.0, 0.25, 0.25]
    rows = type_matrix(5, 4)
    uses = rows[:, 1] > 0
    seq = log_sequence_prob(rows, q)
    cls = log_type_class_prob(rows, q)
    assert np.all(seq[uses] == -np.inf) and np.all(cls[uses] == -np.inf)
    assert np.array_equal(seq[~uses], -(rows[~uses] @ [1, 0, 2, 2]))
    assert np.array_equal(cls[~uses], log_type_class_size(rows[~uses]) + seq[~uses])
    assert log_sequence_prob((0, 1, 0, 4), q) == -np.inf
    assert log_sequence_prob((3, 0, 1, 1), q) == -7.0
    want = math.log2(20) - 7.0
    assert log_type_class_prob((3, 0, 1, 1), q) == pytest.approx(want, abs=1e-12)


def test_width_mismatch_raises_for_one_row_and_many():
    p = new_spectrum([0.75, 0.25])
    for counts in ((1, 1, 1), type_matrix(4, 3), [[1, 2, 3]]):
        for fn in (log_sequence_prob, log_type_class_prob):
            with pytest.raises(DimensionMismatchError):
                fn(counts, p)
            with pytest.raises(DimensionMismatchError):
                fn(counts, [0.5, 0.5, 0.0, 0.0])


def test_negative_count_raises_for_one_row_and_many():
    p = new_spectrum([0.75, 0.25])
    rows = type_matrix(4, 2)
    rows[2] = (-1, 5)
    for counts in ((-1, 3), rows):
        with pytest.raises(NegativeEntryError):
            log_type_class_size(counts)
        for fn in (log_sequence_prob, log_type_class_prob):
            with pytest.raises(NegativeEntryError):
                fn(counts, p)
