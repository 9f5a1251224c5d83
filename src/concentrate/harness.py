"""Experiment orchestration with reproducible flat-file outputs.

Three experiment families: convergence studies (empirical finite-n
exponents against the asymptotic prediction), curve sweeps (all four yield
curves on an r grid), and a seeded property-check suite covering every
invariant the numerical modules promise. Results come back as an
ExperimentRecord carrying metadata plus self-describing rows, serializable
to CSV (LF, UTF-8, 17 significant digits) or JSON ({"meta": ..., "rows":
...}). Identical configuration and seed produce byte-identical files: no
wall-clock data is ever written, and rows come out in the order of their
keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import RateOutOfRangeError
from .fidelity import (
    prob_to_fidelity,
    recovery_bound,
    verify_fidelity_conversion,
    verify_recovery_bound,
)
from .finite import optimal_probability, solve_plan
from .iid import (
    _solve_grouped_threshold,
    exact_success_prob,
    exponent_sweep,
    grouped_spectrum,
)
from .method_of_types import (
    DEFAULT_TYPE_GUARD,
    count_types,
    enumerate_types,
    log_type_class_prob,
    log_type_class_size,
)
from .numerics import logsumexp2
from .rates import (
    brute_force_curves,
    converse_yield,
    direct_yield,
    fidelity_converse_yield,
    fidelity_direct_yield,
    inverse_converse,
    inverse_direct,
    nonadditivity_report,
    r_prime,
)
from .spectra import (
    SATURATED,
    SchmidtSpectrum,
    big_f,
    divergence_from_uniform,
    new_spectrum,
    psi,
    relative_entropy,
    shannon_entropy,
    solve_s_minus,
    solve_s_plus,
    tilted,
    tilted_entropy,
)

#: default acceptance window for the final convergence residual
DEFAULT_CONVERGENCE_TOL = 0.02


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment run."""

    spectrum: SchmidtSpectrum | None = None
    rate: float | None = None
    r_grid: tuple[float, ...] = ()
    n_list: tuple[int, ...] = ()
    seed: int = 20240501
    tolerance: float | None = None
    sigma: SchmidtSpectrum | None = None
    r: float | None = None
    max_types: int = DEFAULT_TYPE_GUARD


@dataclass
class ExperimentRecord:
    """Column-ordered rows plus reproducibility metadata."""

    meta: dict
    columns: list[str]
    rows: list[dict] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(row.get("passed", True) for row in self.rows)

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(row.get(c)) for c in self.columns))
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        payload = {"meta": self.meta, "rows": self.rows}
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"

    def write(self, path: str, fmt: str) -> None:
        text = self.to_json_text() if fmt == "json" else self.to_csv_text()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _native(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _row(**kwargs) -> dict:
    return {k: _native(v) for k, v in kwargs.items()}


def _base_meta(cfg: ExperimentConfig, experiment: str) -> dict:
    meta = {
        "experiment": experiment,
        "library_version": __version__,
        "rng": "numpy PCG64",
        "seed": cfg.seed,
        "log_base": 2,
    }
    if cfg.spectrum is not None:
        meta["spectrum"] = [float(x) for x in cfg.spectrum.probs]
    if cfg.sigma is not None:
        meta["sigma"] = [float(x) for x in cfg.sigma.probs]
    return meta


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


def _infer_regime(p: SchmidtSpectrum, rate: float) -> str:
    entropy = shannon_entropy(p)
    if -float(p.log2[0]) < rate < entropy:
        return "direct"
    if entropy < rate < math.log2(p.dim):
        return "converse"
    raise RateOutOfRangeError(
        f"rate {rate} is outside both regime intervals for this spectrum"
    )


def run_convergence(cfg: ExperimentConfig) -> ExperimentRecord:
    """Empirical exponent at each n against the asymptotic prediction.

    Rows report the realized per-copy rate (integer size rounding shifts
    it slightly), the relevant measured exponent, the predicted limit, the
    residual, and the polynomial finite-size allowance d log2(n+1) / n.
    """
    p = cfg.spectrum
    if p is None or cfg.rate is None or not cfg.n_list:
        raise ValueError("convergence needs spectrum, rate, and n_list")
    n_list = list(cfg.n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    regime = _infer_regime(p, cfg.rate)
    if regime == "direct":
        predicted = inverse_direct(p, cfg.rate)
    else:
        predicted = inverse_converse(p, cfg.rate)
    tol = cfg.tolerance if cfg.tolerance is not None else DEFAULT_CONVERGENCE_TOL

    def one(n: int) -> dict:
        sample = exponent_sweep(p, cfg.rate, [n], regime, max_types=cfg.max_types)[0]
        measured = (
            sample.failure_exponent if regime == "direct" else sample.success_exponent
        )
        residual = None if measured is None else measured - predicted
        return _row(
            n=n,
            rate_requested=cfg.rate,
            rate_actual=sample.rate,
            exponent=measured,
            predicted=predicted,
            residual=residual,
            finite_size_allowance=p.dim * math.log2(n + 1) / n,
            within_tolerance=(residual is not None and abs(residual) <= tol),
        )

    rows = [one(n) for n in n_list]
    meta = _base_meta(cfg, "convergence")
    meta.update(
        {
            "regime": regime,
            "rate": cfg.rate,
            "predicted_exponent": predicted,
            "tolerance": tol,
        }
    )
    return ExperimentRecord(meta, list(rows[0]), rows)


# ---------------------------------------------------------------------------
# curve sweep
# ---------------------------------------------------------------------------


def run_sweep(cfg: ExperimentConfig) -> ExperimentRecord:
    """All four yield curves on an ascending grid of exponents."""
    p = cfg.spectrum
    if p is None or len(cfg.r_grid) == 0:
        raise ValueError("sweep needs a spectrum and a non-empty r grid")
    grid = list(cfg.r_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("r grid must be strictly increasing")
    rp = r_prime(p)

    def one(r: float) -> dict:
        d = direct_yield(p, r)
        c = converse_yield(p, r)
        fd = fidelity_direct_yield(p, r)
        fc = fidelity_converse_yield(p, r)
        return _row(
            r=r,
            direct=d.yield_bits,
            converse=c.yield_bits,
            fidelity_direct=fd.yield_bits,
            fidelity_converse=fc.yield_bits,
            direct_regime=d.regime,
            converse_regime=c.regime,
            fidelity_converse_regime=fc.regime,
            s_plus=d.s_star,
            s_minus=c.s_star,
        )

    rows = [one(r) for r in grid]
    meta = _base_meta(cfg, "sweep")
    meta.update(
        {
            "entropy": shannon_entropy(p),
            "deterministic_exponent": -float(p.log2[0]),
            "uniform_divergence": divergence_from_uniform(p),
            "r_prime": rp.value,
            "r_prime_degenerate": rp.degenerate,
        }
    )
    columns = [
        "r",
        "direct",
        "converse",
        "fidelity_direct",
        "fidelity_converse",
        "direct_regime",
        "converse_regime",
        "fidelity_converse_regime",
        "s_plus",
        "s_minus",
    ]
    return ExperimentRecord(meta, columns, rows)


# ---------------------------------------------------------------------------
# non-additivity scan
# ---------------------------------------------------------------------------


def run_nonadditivity(cfg: ExperimentConfig) -> ExperimentRecord:
    """Product-state yield relations for one (rho, sigma, r) triple."""
    if cfg.spectrum is None or cfg.r is None:
        raise ValueError("nonadditivity needs a spectrum and an exponent r")
    sigma = cfg.sigma if cfg.sigma is not None else cfg.spectrum
    tol = cfg.tolerance if cfg.tolerance is not None else 1e-9
    rep = nonadditivity_report(cfg.spectrum, sigma, cfg.r, tolerance=tol)
    row = _row(
        r=rep.r,
        e_rho=rep.e_rho,
        e_sigma=rep.e_sigma,
        e_joint=rep.e_joint,
        e_half_rho=rep.e_half_rho,
        e_half_sigma=rep.e_half_sigma,
        e_rho_rho=rep.e_rho_rho,
        e_sigma_sigma=rep.e_sigma_sigma,
        subadditive_ok=rep.subadditive_ok,
        half_identity_ok=rep.half_identity_ok,
        average_ok=rep.average_ok,
        superadditive_ok=rep.superadditive_ok,
        passed=(
            rep.subadditive_ok
            and rep.half_identity_ok
            and rep.average_ok
            and rep.superadditive_ok
        ),
    )
    meta = _base_meta(cfg, "nonadditivity")
    meta["tolerance"] = tol
    return ExperimentRecord(meta, list(row.keys()), [row])


# ---------------------------------------------------------------------------
# property-check suite
# ---------------------------------------------------------------------------


def _random_spectrum(rng, d: int, floor: float = 0.01) -> SchmidtSpectrum:
    raw = rng.dirichlet(np.ones(d)) + floor
    return new_spectrum(raw, renormalize=True)


def _check_protocol_identity(rng, tol):
    worst = 0.0
    for _ in range(60):
        d = int(rng.integers(2, 17))
        p = _random_spectrum(rng, d)
        for size in range(1, d + 1):
            plan = solve_plan(p, size)
            direct = optimal_probability(p, size)
            worst = max(worst, abs(direct - plan.success_prob))
            worst = max(worst, abs(plan.success_prob - plan.threshold * size))
    return worst, worst <= tol


def _check_plan_monotonicity(rng, tol):
    worst = 0.0
    for _ in range(40):
        d = int(rng.integers(2, 13))
        p = _random_spectrum(rng, d)
        probs = [optimal_probability(p, size) for size in range(1, d + 1)]
        for a, b in zip(probs, probs[1:]):
            worst = max(worst, b - a)
    return worst, worst <= tol


def _check_type_sandwiches(rng, tol):
    worst = 0.0
    for d in (2, 3):
        for n in (5, 12, 25):
            if count_types(n, d) > (n + 1) ** d:
                return float("inf"), False
            types = list(enumerate_types(n, d))
            for _ in range(5):
                q = _random_spectrum(rng, d)
                for t in types:
                    h = _entropy_with_zeros(t)
                    size = log_type_class_size(t)
                    div = relative_entropy(t, q)
                    slack = d * math.log2(n + 1)
                    worst = max(worst, size - n * h, (n * h - slack) - size)
                    prob = log_type_class_prob(t, q)
                    worst = max(worst, prob - (-n * div), (-n * div - slack) - prob)
    return worst, worst <= tol


def _entropy_with_zeros(t) -> float:
    q = t.distribution()
    mask = q > 0
    return float(-(q[mask] @ np.log2(q[mask])))


def _check_type_completeness(rng, tol):
    worst = 0.0
    for d in (2, 3):
        for n in (6, 17):
            q = _random_spectrum(rng, d)
            total = logsumexp2(
                [log_type_class_prob(t, q) for t in enumerate_types(n, d)]
            )
            worst = max(worst, abs(total))
    return worst, worst <= tol


def _check_psi_convexity(rng, tol):
    worst = 0.0
    for _ in range(40):
        p = _random_spectrum(rng, int(rng.integers(2, 7)))
        s = np.sort(rng.uniform(0.0, 6.0, size=2))
        mid = 0.5 * (s[0] + s[1])
        gap = 0.5 * (psi(p, s[0]) + psi(p, s[1])) - psi(p, mid)
        worst = max(worst, -gap)
    return worst, worst <= tol


def _check_tilted_identity(rng, tol):
    worst = 0.0
    for _ in range(40):
        p = _random_spectrum(rng, int(rng.integers(2, 7)))
        s = float(rng.uniform(0.0, 5.0))
        h = tilted(p, s)
        if h.dim != p.dim:
            continue
        worst = max(worst, abs(big_f(p, s) - relative_entropy(h, p)))
    return worst, worst <= tol


def _check_solver_roundtrip(rng, tol):
    worst = 0.0
    for _ in range(30):
        p = _random_spectrum(rng, int(rng.integers(2, 6)))
        top = -float(p.log2[0])
        c = divergence_from_uniform(p)
        r = float(rng.uniform(0.05, 0.95)) * top
        s = solve_s_plus(p, r)
        if s is not SATURATED:
            worst = max(worst, abs(big_f(p, s) - r))
        r = float(rng.uniform(0.05, 0.95)) * c
        s = solve_s_minus(p, r)
        if s is not SATURATED:
            worst = max(worst, abs(big_f(p, s) - r))
    return worst, worst <= tol


def _check_tilted_entropy_identity(rng, tol):
    worst = 0.0
    for _ in range(30):
        p = _random_spectrum(rng, int(rng.integers(2, 6)))
        s = float(rng.uniform(0.0, 4.0))
        if abs(s - 1.0) < 1e-3:
            continue
        combined = (s * big_f(p, s) + psi(p, s)) / (1.0 - s)
        worst = max(worst, abs(tilted_entropy(p, s) - combined))
    return worst, worst <= tol


def _check_direct_monotone(rng, tol):
    worst = 0.0
    for _ in range(10):
        p = _random_spectrum(rng, int(rng.integers(2, 5)))
        if p.is_uniform:
            continue
        top = -float(p.log2[0])
        grid = np.linspace(0.01 * top, 0.99 * top, 100)
        vals = [direct_yield(p, r).yield_bits for r in grid]
        for a, b in zip(vals, vals[1:]):
            worst = max(worst, b - a)
    return worst, worst <= tol


def _check_converse_monotone(rng, tol):
    worst = 0.0
    for _ in range(10):
        p = _random_spectrum(rng, int(rng.integers(2, 5)))
        if p.is_uniform:
            continue
        c = divergence_from_uniform(p)
        grid = np.linspace(0.01 * c, 0.99 * c, 100)
        vals = [converse_yield(p, r).yield_bits for r in grid]
        for a, b in zip(vals, vals[1:]):
            worst = max(worst, a - b)
    return worst, worst <= tol


def _check_endpoint_limits(rng, tol):
    # the r -> 0 gap is sqrt(2 r psi''(1)), so a 1e-4 window at r = 1e-7
    # is only meaningful on spectra with small log-variance; draw near-flat
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        p = new_spectrum(np.ones(d) + 0.25 * rng.uniform(size=d), renormalize=True)
        h = shannon_entropy(p)
        worst = max(worst, abs(direct_yield(p, 1e-7).yield_bits - h))
        worst = max(worst, abs(converse_yield(p, 1e-7).yield_bits - h))
    return worst, worst <= tol


def _check_grid_oracle_agreement(rng, tol):
    worst = 0.0
    for _ in range(4):
        p1 = float(rng.uniform(0.55, 0.72))
        p = new_spectrum([p1, 1.0 - p1])
        top = max(-float(p.log2[0]), divergence_from_uniform(p))
        grid = np.linspace(0.1 * top, 1.1 * top, 8)
        gd, gc = brute_force_curves(p, grid, 10_000)
        for i, r in enumerate(grid):
            worst = max(worst, abs(gd[i] - direct_yield(p, r).yield_bits))
            worst = max(worst, abs(gc[i] - converse_yield(p, r).yield_bits))
    return worst, worst <= tol


def _check_exact_identity(rng, tol):
    worst = 0.0
    for _ in range(10):
        p = _random_spectrum(rng, int(rng.integers(2, 4)))
        n = int(rng.integers(2, 9))
        spec = grouped_spectrum(p, n)
        bits = float(rng.uniform(0.0, spec.total_log_dim))
        log_t, _, log_p, _ = _solve_grouped_threshold(spec, bits)
        worst = max(worst, abs(log_p - (log_t + bits)))
        # single-copy agreement
        for size in range(1, p.dim + 1):
            log_p1, _ = exact_success_prob(p, 1, math.log2(size))
            worst = max(worst, abs(2.0**log_p1 - optimal_probability(p, size)))
    return worst, worst <= tol


def _check_exponent_lower_bound(rng, tol):
    worst = 0.0
    p = new_spectrum([0.7, 0.3])
    entropy = shannon_entropy(p)
    top = -float(p.log2[0])
    rate = 0.5 * (entropy + top)
    for n in (50, 120):
        sample = exponent_sweep(p, rate, [n], "direct")[0]
        floor_val = _discrete_direct_bound(p, n, sample.rate) - p.dim * math.log2(
            n + 1
        ) / n
        violation = floor_val - sample.failure_exponent
        worst = max(worst, violation)
    return worst, worst <= tol


def _discrete_direct_bound(p: SchmidtSpectrum, n: int, rate: float) -> float:
    best = np.inf
    for t in enumerate_types(n, p.dim):
        div = relative_entropy(t, p)
        if div + _entropy_with_zeros(t) <= rate:
            best = min(best, div)
    return float(best)


def _check_fidelity_bounds(rng, tol):
    worst = max(0.0, recovery_bound(100, 1.0) - math.sqrt(100))
    for _ in range(25):
        d = int(rng.integers(7, 33))
        p = _random_spectrum(rng, d, floor=0.5 / d)
        check8 = verify_recovery_bound(p, int(rng.integers(2, d + 1)))
        if not check8.holds:
            worst = max(worst, check8.bound - check8.best_sqrt_pl)
        near_uniform = new_spectrum(
            np.ones(d) + 0.1 * rng.uniform(size=d), renormalize=True
        )
        check6 = verify_fidelity_conversion(near_uniform, d)
        if not check6.all_ok:
            worst = max(worst, 1.0)
        # flattening a probabilistic scheme keeps its quality at T = L
        prob = float(rng.uniform(0.1, 1.0))
        size = int(rng.integers(1, 8))
        worst = max(worst, prob - prob_to_fidelity(prob, size, size))
    return worst, worst <= tol


def _check_nonadditivity(rng, tol):
    worst = 0.0
    for _ in range(15):
        rho = _random_spectrum(rng, 2)
        sigma = _random_spectrum(rng, 2)
        r = float(rng.uniform(0.02, 1.0))
        rep = nonadditivity_report(rho, sigma, r, tolerance=tol)
        worst = max(worst, abs(rep.e_half_rho - 0.5 * rep.e_rho_rho))
        worst = max(worst, rep.e_rho + rep.e_sigma - rep.e_joint)
        worst = max(worst, rep.e_joint - 0.5 * (rep.e_rho_rho + rep.e_sigma_sigma))
    return worst, worst <= tol


CHECKS = [
    ("protocol_identity", _check_protocol_identity, 1e-12),
    ("plan_monotonicity", _check_plan_monotonicity, 1e-12),
    ("type_sandwiches", _check_type_sandwiches, 1e-9),
    ("type_completeness", _check_type_completeness, 1e-10),
    ("psi_convexity", _check_psi_convexity, 1e-12),
    ("tilted_divergence_identity", _check_tilted_identity, 1e-10),
    ("solver_roundtrip", _check_solver_roundtrip, 1e-10),
    ("tilted_entropy_identity", _check_tilted_entropy_identity, 1e-10),
    ("direct_curve_decreasing", _check_direct_monotone, 1e-12),
    ("converse_curve_increasing", _check_converse_monotone, 1e-12),
    ("endpoint_limits", _check_endpoint_limits, 1e-4),
    ("grid_oracle_agreement", _check_grid_oracle_agreement, 2e-4),
    ("exact_copy_identity", _check_exact_identity, 1e-10),
    ("exponent_lower_bound", _check_exponent_lower_bound, 1e-9),
    ("fidelity_bounds", _check_fidelity_bounds, 1e-9),
    ("nonadditivity_relations", _check_nonadditivity, 1e-9),
]


def run_check_suite(cfg: ExperimentConfig) -> ExperimentRecord:
    """Execute every module invariant against seeded random spectra.

    One row per property: worst residual, tolerance, and pass flag. A
    cfg.tolerance, when given, overrides every per-check tolerance (the
    harness self-test corrupts it to force failures).
    """
    rows = []
    for index, (name, fn, default_tol) in enumerate(CHECKS):
        tol = cfg.tolerance if cfg.tolerance is not None else default_tol
        rng = np.random.default_rng([cfg.seed, index])
        worst, passed = fn(rng, tol)
        rows.append(
            _row(check=name, worst_residual=worst, tolerance=tol, passed=passed)
        )
    meta = _base_meta(cfg, "check-suite")
    meta["checks"] = len(rows)
    return ExperimentRecord(
        meta, ["check", "worst_residual", "tolerance", "passed"], rows
    )
