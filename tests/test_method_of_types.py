"""Type enumeration and the class-size / class-probability sandwiches."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import gammaln

from concentrate import (
    DimensionMismatchError,
    TooManyTypesError,
    TypeComposition,
    count_types,
    enumerate_types,
    log_sequence_prob,
    log_type_class_prob,
    log_type_class_size,
    new_spectrum,
)
from concentrate.method_of_types import log_multinomial_rows, type_matrix
from concentrate.numerics import LN2, logsumexp2
from conftest import random_spectrum


def _entropy_of(t):
    q = t.distribution()
    q = q[q > 0]
    return float(-(q @ np.log2(q)))


def _divergence_of(t, p):
    q = t.distribution()
    mask = q > 0
    return float(q[mask] @ (np.log2(q[mask]) - p.log2[mask]))


def test_enumeration_example_n3_d2():
    got = [t.counts for t in enumerate_types(3, 2)]
    assert got == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_enumeration_count_n2_d3():
    types = list(enumerate_types(2, 3))
    assert len(types) == 6 == count_types(2, 3)
    assert len(set(t.counts for t in types)) == 6


def test_enumeration_respects_polynomial_bound():
    for n in range(1, 61, 7):
        for d in (1, 2, 3, 4):
            assert count_types(n, d) <= (n + 1) ** d


def test_enumeration_guard():
    with pytest.raises(TooManyTypesError):
        list(enumerate_types(100, 8, max_count=10_000))


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
    with pytest.raises(ValueError):
        type_matrix(0, 3)
    with pytest.raises(ValueError):
        type_matrix(3, 0)
    # about 1.7e11 types: the guard must fire before anything is allocated
    with pytest.raises(TooManyTypesError):
        type_matrix(10_000, 4, max_count=10**6)
    with pytest.raises(TooManyTypesError):
        enumerate_types(100, 8, max_count=10_000)


def test_enumerate_types_wraps_matrix_rows():
    types = list(enumerate_types(7, 3))
    assert [t.counts for t in types] == [tuple(r) for r in type_matrix(7, 3).tolist()]
    assert all(type(c) is int for t in types for c in t.counts)


def test_log_multinomial_rows_bit_equal_to_per_entry_gammaln():
    rng = np.random.default_rng(71)
    counts = rng.integers(0, 400, size=(200, 4))
    counts[:4] = [[0, 0, 0, 1], [5, 5, 5, 5], [0, 0, 0, 0], [399, 0, 1, 0]]
    as_float = counts.astype(float)
    n = as_float.sum(axis=-1)
    want = (gammaln(n + 1) - gammaln(as_float + 1).sum(axis=-1)) / LN2
    got = log_multinomial_rows(counts)
    assert np.array_equal(got, want)


def test_type_composition_fields():
    t = TypeComposition((2, 0, 3))
    assert t.n == 5 and t.d == 3
    assert np.allclose(t.distribution(), [0.4, 0.0, 0.6])


def test_log_type_class_size_examples():
    assert log_type_class_size(TypeComposition((7, 0, 0))) == pytest.approx(
        0.0, abs=1e-12
    )
    assert log_type_class_size(TypeComposition((3, 1))) == pytest.approx(
        2.0, abs=1e-12
    )
    assert log_type_class_size(TypeComposition((2, 2))) == pytest.approx(
        math.log2(6), abs=1e-12
    )


def test_log_sequence_prob_examples():
    flat = new_spectrum([0.5, 0.5])
    for counts in ((4, 0), (2, 2), (0, 4)):
        assert log_sequence_prob(TypeComposition(counts), flat) == pytest.approx(
            -4.0, abs=1e-12
        )
    p = new_spectrum([0.75, 0.25])
    assert log_sequence_prob(TypeComposition((2, 0)), p) == pytest.approx(
        2 * math.log2(0.75), abs=1e-12
    )
    with pytest.raises(DimensionMismatchError):
        log_sequence_prob(TypeComposition((1, 1, 1)), p)


def test_log_sequence_prob_matches_entropy_form():
    rng = np.random.default_rng(41)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 30))
        q = random_spectrum(rng, d)
        counts = tuple(rng.multinomial(n, q.probs))
        t = TypeComposition(counts)
        expected = -n * (_entropy_of(t) + _divergence_of(t, q))
        assert log_sequence_prob(t, q) == pytest.approx(expected, abs=1e-10)


def test_log_type_class_prob_example_binomial():
    flat = new_spectrum([0.5, 0.5])
    assert log_type_class_prob(TypeComposition((2, 2)), flat) == pytest.approx(
        math.log2(6 / 16), abs=1e-12
    )


def test_type_class_probs_sum_to_one():
    rng = np.random.default_rng(13)
    for d in (2, 3):
        for n in (5, 11, 23):
            q = random_spectrum(rng, d)
            total = logsumexp2(
                [log_type_class_prob(t, q) for t in enumerate_types(n, d)]
            )
            assert total == pytest.approx(0.0, abs=1e-10)


def test_size_and_prob_sandwiches():
    rng = np.random.default_rng(29)
    for d in (2, 3):
        for n in (4, 9, 21):
            slack = d * math.log2(n + 1)
            types = list(enumerate_types(n, d))
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

