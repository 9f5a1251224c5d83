"""Acceptance suite: one test per exit criterion, each printing a verdict.

Criteria run at their stated tolerances and runtime budgets. Seeded
generators make every run identical; where a tolerance bounds the spectrum
class itself (grid-oracle resolution, the r -> 0 endpoint window) the
generator is conditioned accordingly and the reason is noted inline.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from concentrate import (
    brute_force_curves,
    converse_yield,
    direct_yield,
    divergence_from_uniform,
    exponent_sweep,
    fidelity_converse_yield,
    inverse_converse,
    inverse_direct,
    new_spectrum,
    nonadditivity_report,
    optimal_probability,
    r_prime,
    shannon_entropy,
    solve_plan,
    verify_fidelity_conversion,
    verify_recovery_bound,
)
from concentrate.method_of_types import count_types, lattice_logs, type_matrix
from conftest import gentle_spectrum, near_uniform_spectrum, random_spectrum

P34 = new_spectrum([0.75, 0.25])


def _verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_01_formula_equivalence_parametric_vs_grid():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 4))
        p = gentle_spectrum(rng, d)
        top = max(-float(p.log2[0]), divergence_from_uniform(p))
        grid = np.linspace(0.05 * top, 1.2 * top, 20)  # spans saturation
        got_d, got_c = brute_force_curves(p, grid, 10_000)
        for i, r in enumerate(grid):
            r = float(r)
            worst = max(worst, abs(got_d[i] - direct_yield(p, r).yield_bits))
            worst = max(worst, abs(got_c[i] - converse_yield(p, r).yield_bits))
    elapsed = time.monotonic() - started
    _verdict(
        1,
        "formula equivalence (tilted family vs simplex grid)",
        worst <= 2e-4 and elapsed <= 60.0,
        f"worst |diff| = {worst:.3g} (tol 2e-4), {elapsed:.1f}s (budget 60s)",
    )


def test_02_direct_endpoints():
    started = time.monotonic()
    rng = np.random.default_rng(1002)
    worst_window = 0.0
    exact_plateau = True
    for _ in range(50):
        d = int(rng.integers(2, 6))
        # the r -> 0 gap scales like sqrt(2 r psi''(1)); near-flat draws
        # keep psi''(1) small enough for the 1e-4 window at r = 1e-7
        flatish = near_uniform_spectrum(rng, d, wobble=0.25)
        worst_window = max(
            worst_window,
            abs(direct_yield(flatish, 1e-7).yield_bits - shannon_entropy(flatish)),
        )
        p = random_spectrum(rng, d)
        top = -float(p.log2[0])
        for r in (top, top * 1.5, top + 2.0):
            exact_plateau &= direct_yield(p, r).yield_bits == top
    elapsed = time.monotonic() - started
    _verdict(
        2,
        "direct endpoints (entropy limit, exact plateau)",
        worst_window <= 1e-4 and exact_plateau and elapsed <= 5.0,
        f"window {worst_window:.3g} (tol 1e-4), plateau exact = {exact_plateau}, "
        f"{elapsed:.1f}s (budget 5s)",
    )


def test_03_converse_saturation():
    started = time.monotonic()
    rng = np.random.default_rng(1003)
    worst_window = 0.0
    exact_plateau = True
    for _ in range(50):
        d = int(rng.integers(2, 6))
        flatish = near_uniform_spectrum(rng, d, wobble=0.25)
        worst_window = max(
            worst_window,
            abs(converse_yield(flatish, 1e-7).yield_bits - shannon_entropy(flatish)),
        )
        p = random_spectrum(rng, d)
        c = divergence_from_uniform(p)
        for r in (c, c * 1.5, c + 2.0):
            exact_plateau &= converse_yield(p, r).yield_bits == math.log2(p.dim)
    elapsed = time.monotonic() - started
    _verdict(
        3,
        "converse saturation (entropy limit, exact log2 d plateau)",
        worst_window <= 1e-4 and exact_plateau and elapsed <= 5.0,
        f"window {worst_window:.3g} (tol 1e-4), plateau exact = {exact_plateau}, "
        f"{elapsed:.1f}s (budget 5s)",
    )


def test_04_direct_convergence():
    started = time.monotonic()
    rate = 0.6
    predicted = inverse_direct(P34, rate)
    residuals = []
    for n in (100, 200, 500, 1000, 2000):
        sample = exponent_sweep(P34, rate, [n])[0]
        residuals.append(abs(sample.failure_exponent - predicted))
    decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    elapsed = time.monotonic() - started
    _verdict(
        4,
        "direct convergence at rate 0.6",
        residuals[-1] <= 0.02 and decreasing and elapsed <= 30.0,
        f"final residual {residuals[-1]:.4f} (tol 0.02), trend "
        f"{[round(x, 4) for x in residuals]}, {elapsed:.1f}s (budget 30s)",
    )


def test_05_converse_convergence():
    started = time.monotonic()
    rate = 0.95
    predicted = inverse_converse(P34, rate)
    residuals = []
    for n in (100, 200, 500, 1000, 2000):
        sample = exponent_sweep(P34, rate, [n])[0]
        residuals.append(float(abs(sample.success_exponent - predicted)))
    decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    elapsed = time.monotonic() - started
    _verdict(
        5,
        "strong-converse convergence at rate 0.95",
        residuals[-1] <= 0.02 and decreasing and elapsed <= 30.0,
        f"final residual {residuals[-1]:.4f} (tol 0.02), trend "
        f"{[round(x, 4) for x in residuals]}, {elapsed:.1f}s (budget 30s)",
    )


def test_06_protocol_identity():
    started = time.monotonic()
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 17))
        p = random_spectrum(rng, d)
        for size in range(1, d + 1):
            plan = solve_plan(p, size)
            direct = optimal_probability(p, size)
            worst = max(worst, abs(direct - plan.success_prob))
            worst = max(worst, abs(plan.success_prob - plan.threshold * size))
    elapsed = time.monotonic() - started
    _verdict(
        6,
        "protocol identity (direct minimization vs threshold plan)",
        worst <= 1e-12 and elapsed <= 10.0,
        f"worst |diff| = {worst:.3g} (tol 1e-12), {elapsed:.1f}s (budget 10s)",
    )


def test_07_type_counting_sandwiches():
    started = time.monotonic()
    rng = np.random.default_rng(1007)
    violations = 0
    slack_eps = 1e-9
    for d in (1, 2, 3):
        for n in range(1, 41):
            if count_types(n, d) > (n + 1) ** d:
                violations += 1
            counts = type_matrix(n, d)
            frac = counts / n
            with np.errstate(divide="ignore", invalid="ignore"):
                xlog = np.where(frac > 0, frac * np.log2(np.where(frac > 0, frac, 1)), 0.0)
            h_vec = -xlog.sum(axis=1)
            size_vec = lattice_logs(n, np.zeros(d))[1]
            slack = d * math.log2(n + 1)
            if np.any(size_vec > n * h_vec + slack_eps):
                violations += 1
            if np.any(size_vec < n * h_vec - slack - slack_eps):
                violations += 1
            for _ in range(20):
                q = random_spectrum(rng, d)
                cross = -(frac @ q.log2)
                div = cross - h_vec
                seq = lattice_logs(n, q.log2)[0]
                # per-sequence probability identity
                if np.any(np.abs(seq - (-n * (h_vec + div))) > 1e-9):
                    violations += 1
                prob = size_vec + seq
                if np.any(prob > -n * div + slack_eps):
                    violations += 1
                if np.any(prob < -n * div - slack - slack_eps):
                    violations += 1
    elapsed = time.monotonic() - started
    _verdict(
        7,
        "type-counting sandwiches (counts, sizes, probabilities)",
        violations == 0 and elapsed <= 20.0,
        f"{violations} violations, {elapsed:.1f}s (budget 20s)",
    )


def test_08_nonadditivity_relations():
    started = time.monotonic()
    rng = np.random.default_rng(1008)
    ok = True
    for _ in range(100):
        rho = random_spectrum(rng, int(rng.integers(2, 4)))
        sigma = random_spectrum(rng, int(rng.integers(2, 4)))
        r = float(rng.uniform(0.02, 1.2))
        rep = nonadditivity_report(rho, sigma, r, tolerance=1e-9)
        ok &= rep.half_identity_ok and rep.superadditive_ok and rep.average_ok
        ok &= rep.subadditive_ok
    # strictness: joint concentration beats separate strictly below the
    # doubled saturation exponent
    r = 0.2
    assert r < -2 * math.log2(0.75)
    rep = nonadditivity_report(P34, P34, r)
    strict = rep.e_joint > 2 * rep.e_rho + 1e-9
    elapsed = time.monotonic() - started
    _verdict(
        8,
        "non-additivity relations (half identity, super/sub, average)",
        ok and strict and elapsed <= 10.0,
        f"relations ok = {ok}, strict gap = {rep.e_joint - 2 * rep.e_rho:.4f}, "
        f"{elapsed:.1f}s (budget 10s)",
    )


def test_09_fidelity_conversions():
    started = time.monotonic()
    rng = np.random.default_rng(1009)
    construction_ok = True
    for _ in range(100):
        d = int(rng.integers(7, 65))
        p = near_uniform_spectrum(rng, d)
        check = verify_fidelity_conversion(p, d)
        construction_ok &= check.eps < 1 / 6 and check.all_ok
    bound_violations = 0
    for _ in range(100):
        d = int(rng.integers(2, 25))
        p = random_spectrum(rng, d, floor=0.2 / d)
        for t in range(2, d + 1):
            if not verify_recovery_bound(p, t).holds:
                bound_violations += 1
    elapsed = time.monotonic() - started
    _verdict(
        9,
        "fidelity conversions (construction checks, threshold bound)",
        construction_ok and bound_violations == 0 and elapsed <= 20.0,
        f"construction ok = {construction_ok}, {bound_violations} bound "
        f"violations, {elapsed:.1f}s (budget 20s)",
    )


def test_10_fidelity_converse_curve():
    started = time.monotonic()
    rp = r_prime(P34)
    worst_track = 0.0
    for r in np.linspace(0.1 * rp.value, rp.value, 20):
        r = float(r)
        worst_track = max(
            worst_track,
            abs(
                fidelity_converse_yield(P34, r).yield_bits
                - converse_yield(P34, r).yield_bits
            ),
        )
    h = 1e-6
    worst_slope = 0.0
    for r in np.linspace(rp.value * 1.5, rp.value + 1.0, 20):
        r = float(r)
        slope = (
            fidelity_converse_yield(P34, r + h).yield_bits
            - fidelity_converse_yield(P34, r - h).yield_bits
        ) / (2 * h)
        worst_slope = max(worst_slope, abs(slope - 1.0))
    sep = new_spectrum([1.0])
    sep_ok = all(
        fidelity_converse_yield(sep, float(r)).yield_bits == pytest.approx(r, abs=1e-12)
        for r in (0.2, 1.0, 4.0)
    )
    elapsed = time.monotonic() - started
    _verdict(
        10,
        "fidelity-converse curve (tracking, unit slope, separable line)",
        worst_track <= 1e-8 and worst_slope <= 1e-6 and sep_ok and elapsed <= 5.0,
        f"tracking {worst_track:.2g} (tol 1e-8), slope defect {worst_slope:.2g} "
        f"(tol 1e-6), separable = {sep_ok}, {elapsed:.1f}s (budget 5s)",
    )


def _cli(args, out_path):
    cmd = [sys.executable, "-m", "concentrate.cli", *args, "--out", str(out_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return out_path.read_bytes()


def test_11_deterministic_outputs(tmp_path):
    check_args = ["check", "--seed", "11", "--format", "csv"]
    converge_args = [
        "converge",
        "--spectrum",
        "0.75,0.25",
        "--rate",
        "0.6",
        "--n-list",
        "50,100,200",
        "--format",
        "json",
        "--seed",
        "11",
    ]
    first = _cli(check_args, tmp_path / "check1.csv")
    second = _cli(check_args, tmp_path / "check2.csv")
    third = _cli(converge_args, tmp_path / "conv1.json")
    fourth = _cli(converge_args, tmp_path / "conv2.json")
    identical = first == second and third == fourth
    _verdict(
        11,
        "byte-identical reruns (check and converge via CLI)",
        identical,
        f"check bytes equal = {first == second}, converge bytes equal = "
        f"{third == fourth}",
    )
