"""Experiment orchestration with reproducible flat-file outputs.

Three experiment families: convergence studies (empirical finite-n
exponents against the asymptotic prediction), curve sweeps (all four yield
curves on an r grid), and a seeded property-check suite covering every
invariant the numerical modules promise. Each check is a generator that
takes only its rng and yields residuals (positive means violated);
run_check_suite alone reduces them to a worst residual and judges it
against the check's tolerance. Results come back as an ExperimentRecord:
metadata plus self-describing rows, written as CSV (LF, UTF-8) or JSON
({"meta": ..., "rows": ...}). A CSV cell takes its formatter from one
table keyed by its exact type: %.17g for float, str for int and str,
true/false for bool, empty for None. Any other value, and any value json
cannot write, first passes one normalizer that turns a numpy scalar into
its .item(). Identical configuration and seed produce byte-identical
files: no wall-clock data is written, and rows keep the order of their keys.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .fidelity import (
    prob_to_fidelity,
    recovery_bound,
    verify_fidelity_conversion,
    verify_recovery_bound,
)
from .finite import optimal_probability, solve_plan
from .iid import (
    _regime,
    _solve_grouped_threshold,
    exact_success_prob,
    exponent_sweep,
    grouped_spectrum,
)
from .method_of_types import (
    DEFAULT_TYPE_GUARD,
    count_types,
    lattice_logs,
    type_matrix,
)
from .numerics import logsumexp2
from .rates import (
    NONADDITIVITY_TOL,
    brute_force_curves,
    converse_curve,
    converse_yield,
    direct_curve,
    direct_yield,
    inverse_converse,
    inverse_direct,
    nonadditivity_report,
    r_prime,
)
from .spectra import (
    SchmidtSpectrum,
    divergence_from_uniform,
    new_spectrum,
    relative_entropy,
    shannon_entropy,
    solve_tilts,
    tilted,
    tilted_point,
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
    """Rows plus reproducibility metadata; the columns are the first row's keys."""

    meta: dict
    rows: list[dict]

    @property
    def columns(self) -> list[str]:
        return list(self.rows[0])

    @property
    def all_passed(self) -> bool:
        return all(row.get("passed", True) for row in self.rows)

    def to_csv_text(self) -> str:
        columns = self.columns
        lines = (",".join([_csv_cell(row.get(c)) for c in columns]) for row in self.rows)
        return "\n".join([",".join(columns), *lines]) + "\n"

    def to_json_text(self) -> str:
        payload = {"meta": self.meta, "rows": self.rows}
        return json.dumps(payload, indent=2, allow_nan=False, default=_json_value) + "\n"


#: the CSV formatter of each native cell type, keyed by exact type (bool is not int)
_CELL_TEXT = {float: "%.17g".__mod__, int: str, str: str, type(None): lambda _: "",
              bool: {True: "true", False: "false"}.__getitem__}


def _native(value):
    """A numpy scalar as its Python value (.item()); anything else as it is."""
    native = type(value) in _CELL_TEXT or not isinstance(value, np.generic)
    return value if native else value.item()


def _csv_cell(value) -> str:
    if type(value) not in _CELL_TEXT:
        value = _native(value)
    return _CELL_TEXT.get(type(value), str)(value)


def _json_value(value):
    """json.dumps' default: called only for values json cannot write itself."""
    if (native := _native(value)) is value:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return native


def _row(**kwargs) -> dict:
    return {k: _native(v) for k, v in kwargs.items()}


def _base_meta(cfg: ExperimentConfig, experiment: str, **extra) -> dict:
    """The metadata every experiment writes, then the experiment's own extra keys."""
    meta = {
        "experiment": experiment,
        "library_version": __version__,
        "rng": "numpy PCG64",
        "seed": cfg.seed,
        "log_base": 2,
    }
    for key in ("spectrum", "sigma"):
        if (q := getattr(cfg, key)) is not None:
            meta[key] = q.probs.tolist()
    return meta | extra


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


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
    regime = _regime(p, cfg.rate)
    if regime == "direct":
        tilt, predicted = None, inverse_direct(p, cfg.rate)
    else:
        # one tilt for the prediction and for every n's band ceiling
        tilt = solve_tilts(p, [cfg.rate], "converse_rate")[0]
        predicted = inverse_converse(p, cfg.rate, tilt)
    tol = cfg.tolerance if cfg.tolerance is not None else DEFAULT_CONVERGENCE_TOL
    samples = exponent_sweep(p, cfg.rate, n_list, max_types=cfg.max_types, tilt=tilt)
    rows = []
    for sample in samples:
        n = sample.n
        measured = (
            sample.failure_exponent if regime == "direct" else sample.success_exponent
        )
        residual = None if measured is None else measured - predicted
        rows.append(_row(
            n=n,
            rate_requested=cfg.rate,
            rate_actual=sample.rate,
            exponent=measured,
            predicted=predicted,
            residual=residual,
            finite_size_allowance=p.dim * math.log2(n + 1) / n,
            within_tolerance=(residual is not None and abs(residual) <= tol),
        ))
    meta = _base_meta(cfg, "convergence", regime=regime, rate=cfg.rate,
                      predicted_exponent=predicted, tolerance=tol)
    return ExperimentRecord(meta, rows)


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
    rows = []
    # one batched solve per branch; E_F = E, and E*_F = E* up to r'
    for r, d, c in zip(grid, direct_curve(p, grid), converse_curve(p, grid)):
        fc = c if r <= rp.value else rp.line(r)
        rows.append(_row(
            r=r,
            direct=d.yield_bits,
            converse=c.yield_bits,
            fidelity_direct=d.yield_bits,
            fidelity_converse=fc.yield_bits,
            direct_regime=d.regime,
            converse_regime=c.regime,
            fidelity_converse_regime=fc.regime,
            s_plus=d.s_star,
            s_minus=c.s_star,
        ))
    meta = _base_meta(cfg, "sweep", entropy=shannon_entropy(p),
                      deterministic_exponent=p.min_entropy,
                      uniform_divergence=divergence_from_uniform(p), r_prime=rp.value,
                      r_prime_degenerate=rp.degenerate)
    return ExperimentRecord(meta, rows)


# ---------------------------------------------------------------------------
# non-additivity scan
# ---------------------------------------------------------------------------


def run_nonadditivity(cfg: ExperimentConfig) -> ExperimentRecord:
    """Product-state yield relations for one (rho, sigma, r) triple."""
    if cfg.spectrum is None or cfg.r is None:
        raise ValueError("nonadditivity needs a spectrum and an exponent r")
    sigma = cfg.sigma if cfg.sigma is not None else cfg.spectrum
    tol = cfg.tolerance if cfg.tolerance is not None else NONADDITIVITY_TOL
    fields = asdict(nonadditivity_report(cfg.spectrum, sigma, cfg.r, tolerance=tol))
    del fields["tolerance"]
    row = _row(**fields, passed=all(v for k, v in fields.items() if k.endswith("_ok")))
    return ExperimentRecord(_base_meta(cfg, "nonadditivity", tolerance=tol), [row])


# ---------------------------------------------------------------------------
# property-check suite
# ---------------------------------------------------------------------------


def _random_spectrum(rng, d: int, floor: float = 0.01) -> SchmidtSpectrum:
    raw = rng.dirichlet(np.ones(d)) + floor
    return new_spectrum(raw, renormalize=True)


def _check_protocol_identity(rng):
    for _ in range(60):
        d = int(rng.integers(2, 17))
        p = _random_spectrum(rng, d)
        for size in range(1, d + 1):
            plan = solve_plan(p, size)
            direct = optimal_probability(p, size)
            yield abs(direct - plan.success_prob)
            yield abs(plan.success_prob - plan.threshold * size)


def _check_plan_monotonicity(rng):
    for _ in range(40):
        d = int(rng.integers(2, 13))
        p = _random_spectrum(rng, d)
        probs = [optimal_probability(p, size) for size in range(1, d + 1)]
        for a, b in zip(probs, probs[1:]):
            yield b - a


def _type_information(counts, q: SchmidtSpectrum):
    """H(t) and D(t||q) of each counts row, from xlog2x sums of t = counts / n.

    An independent route: neither is read off the sequence logs of lattice_logs.
    """
    t = counts / counts.sum(axis=1, keepdims=True)
    log_t = np.log2(t, out=np.zeros_like(t), where=t > 0)
    return -(t * log_t).sum(axis=1), (t * (log_t - q.log2)).sum(axis=1)


def _check_type_sandwiches(rng):
    for d in (2, 3):
        for n in (5, 12, 25):
            yield float(count_types(n, d) - (n + 1) ** d)
            rows = type_matrix(n, d)
            slack = d * math.log2(n + 1)
            for _ in range(5):
                q = _random_spectrum(rng, d)
                h, div = _type_information(rows, q)
                seq, size = lattice_logs(n, q.log2)
                prob = size + seq
                yield from (np.max(size - n * h), np.max(n * h - slack - size),
                            np.max(prob + n * div), np.max(-n * div - slack - prob))


def _check_type_completeness(rng):
    for d in (2, 3):
        for n in (6, 17):
            seq, size = lattice_logs(n, _random_spectrum(rng, d).log2)
            yield abs(logsumexp2(size + seq))


def _check_psi_convexity(rng):
    for _ in range(40):
        p = _random_spectrum(rng, int(rng.integers(2, 7)))
        s = np.sort(rng.uniform(0.0, 6.0, size=2))
        mid = 0.5 * (s[0] + s[1])
        psi = [tilted_point(p, t).psi for t in (s[0], s[1], mid)]
        yield -(0.5 * (psi[0] + psi[1]) - psi[2])


def _check_tilted_identity(rng):
    for _ in range(40):
        p = _random_spectrum(rng, int(rng.integers(2, 7)))
        s = float(rng.uniform(0.0, 5.0))
        h = tilted(p, s)
        yield abs(tilted_point(p, s).f_value - relative_entropy(h, p))


def _check_solver_roundtrip(rng):
    for _ in range(30):
        p = _random_spectrum(rng, int(rng.integers(2, 6)))
        for equation, edge in (("s_plus", p.min_entropy),
                               ("s_minus", divergence_from_uniform(p))):
            r = float(rng.uniform(0.05, 0.95)) * edge
            pt = solve_tilts(p, [r], equation)[0]
            if pt is not None:
                yield abs(tilted_point(p, pt.s).f_value - r)


def _check_tilted_entropy_identity(rng):
    for _ in range(30):
        p = _random_spectrum(rng, int(rng.integers(2, 6)))
        s = float(rng.uniform(0.0, 4.0))
        if abs(s - 1.0) < 1e-3:
            continue
        pt = tilted_point(p, s)
        combined = (s * pt.f_value + pt.psi) / (1.0 - s)
        yield abs(pt.entropy - combined)


def _monotone(curve, edge, sign):
    """Check that curve moves with sign over 100 points below edge(p)."""

    def check(rng):
        for _ in range(10):
            p = _random_spectrum(rng, int(rng.integers(2, 5)))
            if p.is_uniform:
                continue
            top = edge(p)
            grid = np.linspace(0.01 * top, 0.99 * top, 100)
            vals = [point.yield_bits for point in curve(p, grid)]
            yield from (sign * (b - a) for a, b in zip(vals, vals[1:]))

    return check


_check_direct_monotone = _monotone(direct_curve, lambda p: p.min_entropy, 1.0)
_check_converse_monotone = _monotone(converse_curve, divergence_from_uniform, -1.0)


def _check_endpoint_limits(rng):
    # the r -> 0 gap is sqrt(2 r psi''(1)), so a 1e-4 window at r = 1e-7
    # is only meaningful on spectra with small log-variance; draw near-flat
    for _ in range(20):
        d = int(rng.integers(2, 5))
        p = new_spectrum(np.ones(d) + 0.25 * rng.uniform(size=d), renormalize=True)
        h = shannon_entropy(p)
        yield abs(direct_yield(p, 1e-7).yield_bits - h)
        yield abs(converse_yield(p, 1e-7).yield_bits - h)


def _check_grid_oracle_agreement(rng):
    for _ in range(4):
        p1 = float(rng.uniform(0.55, 0.72))
        p = new_spectrum([p1, 1.0 - p1])
        top = max(p.min_entropy, divergence_from_uniform(p))
        grid = np.linspace(0.1 * top, 1.1 * top, 8)
        gd, gc = brute_force_curves(p, grid, 10_000)
        for i, (d, c) in enumerate(zip(direct_curve(p, grid), converse_curve(p, grid))):
            yield abs(gd[i] - d.yield_bits)
            yield abs(gc[i] - c.yield_bits)


def _check_exact_identity(rng):
    for _ in range(10):
        p = _random_spectrum(rng, int(rng.integers(2, 4)))
        n = int(rng.integers(2, 9))
        spec = grouped_spectrum(p, n)
        bits = float(rng.uniform(0.0, spec.total_log_dim))
        log_t, _, log_p, _ = _solve_grouped_threshold(spec, bits)
        yield abs(log_p - (log_t + bits))
        # at size d**n the threshold is the smallest coefficient: P = (d p_d)**n
        log_top = _solve_grouped_threshold(spec, spec.total_log_dim)[2]
        yield abs(log_top - n * math.log2(p.dim * p.probs[-1]))
        # single-copy agreement
        for size in range(1, p.dim + 1):
            log_p1, _ = exact_success_prob(p, 1, math.log2(size))
            yield abs(2.0**log_p1 - optimal_probability(p, size))


def _check_exponent_lower_bound(rng):
    p = new_spectrum([0.7, 0.3])
    entropy = shannon_entropy(p)
    top = p.min_entropy
    rate = 0.5 * (entropy + top)
    for n in (50, 120):
        sample = exponent_sweep(p, rate, [n])[0]
        floor_val = _discrete_direct_bound(p, n, sample.rate) - p.dim * math.log2(
            n + 1
        ) / n
        yield floor_val - sample.failure_exponent


def _discrete_direct_bound(p: SchmidtSpectrum, n: int, rate: float) -> float:
    h, div = _type_information(type_matrix(n, p.dim), p)
    return float(np.min(div, initial=np.inf, where=div + h <= rate))


def _check_fidelity_bounds(rng):
    yield recovery_bound(100, 1.0) - math.sqrt(100)
    for _ in range(25):
        d = int(rng.integers(7, 33))
        p = _random_spectrum(rng, d, floor=0.5 / d)
        check8 = verify_recovery_bound(p, int(rng.integers(2, d + 1)))
        if not check8.holds:
            yield check8.bound - check8.best_sqrt_pl
        near_uniform = new_spectrum(
            np.ones(d) + 0.1 * rng.uniform(size=d), renormalize=True
        )
        if not verify_fidelity_conversion(near_uniform, d).all_ok:
            yield 1.0
        # flattening a probabilistic scheme keeps its quality at T = L
        prob = float(rng.uniform(0.1, 1.0))
        size = int(rng.integers(1, 8))
        yield prob - prob_to_fidelity(prob, size, size)


def _check_nonadditivity(rng):
    for _ in range(15):
        rho = _random_spectrum(rng, 2)
        sigma = _random_spectrum(rng, 2)
        r = float(rng.uniform(0.02, 1.0))
        rep = nonadditivity_report(rho, sigma, r)
        yield abs(rep.e_half_rho - 0.5 * rep.e_rho_rho)
        yield rep.e_rho + rep.e_sigma - rep.e_joint
        yield rep.e_joint - 0.5 * (rep.e_rho_rho + rep.e_sigma_sigma)


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

    Each check draws from its own seeded rng and yields residuals, which
    are violations when positive. The suite alone reduces and judges them:
    one row per property with the worst residual (0.0 if none is larger),
    the tolerance, and whether the worst is within it. A cfg.tolerance,
    when given, overrides every per-check tolerance (the harness self-test
    corrupts it to force failures).
    """
    rows = []
    for index, (name, check, default_tol) in enumerate(CHECKS):
        tol = cfg.tolerance if cfg.tolerance is not None else default_tol
        residuals = check(np.random.default_rng([cfg.seed, index]))
        worst = max(itertools.chain([0.0], residuals))
        rows.append(
            _row(check=name, worst_residual=worst, tolerance=tol, passed=worst <= tol)
        )
    return ExperimentRecord(_base_meta(cfg, "check-suite", checks=len(rows)), rows)
