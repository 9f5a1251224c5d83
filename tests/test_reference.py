"""The test references against closed forms, so a wrong oracle cannot pass
the package's tests by agreeing with it."""

import math

import pytest

import reference
from concentrate import new_spectrum
from reference import ExactProduct, Lattice, family, log2_sum


@pytest.mark.parametrize("d", [1, 2, 4, 64])
def test_family_on_a_uniform_spectrum(d):
    # h(s) is the spectrum itself: psi(s) = (1 - s) log2 d, psi' = -log2 d,
    # psi'' = 0, F = 0 and H = log2 d, exact here since 1/d is a power of two
    for s in (0.0, 0.5, 1.0, 2.0, 40.0):
        psi, prime, curvature, f, h = family([1.0 / d] * d, s)
        assert psi == (1.0 - s) * math.log2(d), (d, s)
        assert prime == -math.log2(d) and h == math.log2(d), (d, s)
        assert abs(curvature) <= 1e-45 and abs(f) <= 1e-45, (d, s)


@pytest.mark.parametrize("probs", [[0.5, 0.5], [0.75, 0.25], [0.625, 0.375]])
def test_binary_lattice_counts_every_sequence(probs):
    # 2**n sequences and total mass (p_1 + p_2)**n = 1, to 45 digits: on
    # the flat spectrum the mass is the count over 2**n
    for n in (1, 7, 300):
        log_count, log_mass = Lattice(probs, n).log2_sums()
        assert log_count == n and abs(log_mass) <= 1e-45, (probs, n)


@pytest.mark.parametrize("probs, n", [([0.75, 0.25], 50), ([0.6, 0.4], 100),
                                      ([0.4, 0.3, 0.2, 0.1], 6), ([0.6, 0.4], 200),
                                      ([0.75, 0.25], 400), ([0.5, 0.3, 0.2], 40),
                                      ([0.3, 0.25, 0.2, 0.15, 0.1], 16)])
def test_lattice_at_the_largest_size(probs, n):
    # at L = d**n the threshold is the smallest coefficient: P = (d p_d)**n.
    # L - A_k loses log10 d**n digits here, which the default precision adds;
    # at d = 3 and 5 the float n log2 d is not log2 d**n, and still means d**n
    d = len(probs)
    log_p, log_f = Lattice(probs, n).log2_probs(n * math.log2(d))
    assert log_p == pytest.approx(n * math.log2(d * probs[-1]), abs=1e-12)
    assert log_f == pytest.approx(math.log2(-math.expm1(log_p * math.log(2))), abs=1e-12)


@pytest.mark.parametrize("probs, n", [([0.5, 0.25, 0.25], 12), ([0.5, 0.25, 0.125, 0.125], 8),
                                      ([0.75, 0.25], 40)])
def test_lattice_agrees_with_the_exact_product(probs, n):
    # a dyadic spectrum, whose types tie: the 50-digit scan over types and
    # the exact integer scan over distinct values give the same numbers
    p = new_spectrum(probs)
    lattice, exact = Lattice(probs, n), ExactProduct(p, n)
    top = n * math.log2(len(probs))
    breakpoints = [lattice.log2_breakpoint(k) for k in range(0, lattice.count, 7)]
    for bits in [0.0, 1.0, 0.5 * top, top - 1.0, top - 1e-9, top, *breakpoints]:
        bits = min(bits, top)
        for got, want in zip(lattice.log2_probs(bits), exact.log_success(bits, top)):
            assert got == want or abs(got - want) <= 1e-12, (probs, n, bits, got, want)


def test_results_do_not_read_the_process_wide_precision(monkeypatch):
    # each reference works at its own digits, whatever another module set
    probs = [0.297, 0.288, 0.212, 0.203]

    def results():
        return (family(probs, 2.5), Lattice(probs, 9).log2_probs(15.0),
                log2_sum([-1.0, -3.5], less=[-7.25]))

    want = results()
    monkeypatch.setattr(reference.mpmath.mp, "dps", 15)
    assert results() == want
