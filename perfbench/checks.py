"""Checks of the program's outputs that do not reuse the program's own route.

Every quantity is recomputed here from the job's input floats with this
file's own numpy code: the tilted family h_i(s) = p_i**s / sum_j p_j**s,
F(s) = D(h(s)||p), solved by plain bisection; the closed forms for the
plateaus (-log2 p1, log2 d, H(p)), r' = F(1/2) and the Renyi-1/2 line
E*_F(r) = r + 2 log2 sum sqrt(p_i) past r'; Vidal's min formula on the
explicitly expanded n-fold product; and a 30-digit mpmath solve of
F(s) = r for sampled interior points. The interior yields use the defining
expressions E(r) = r + H(h(s+)) and E*(r) = H(h(s-)), not the program's
psi-based forms.

Each checker returns a list of error strings; an empty list means the
output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath
import numpy as np

#: float64 own-route tolerance on yields and exponents (the program and this
#: file both solve F(s) = r to ~1e-12; a 1e-6 corruption must fail)
TOL = 1e-9
#: closed forms and single-copy identities, evaluated with a few flops
TIGHT = 1e-11
#: the Renyi-1/2 line past r' (the program finds r' by finite differences)
LINEAR_TOL = 1e-6
#: relative guard band around saturation points and r', where a regime
#: label may legitimately go either way
EDGE = 1e-7

mpmath.mp.dps = 30


class Spec:
    """The input floats normalized as new_spectrum does, with derived values."""

    def __init__(self, probs):
        arr = np.sort(np.asarray(probs, dtype=float))[::-1]
        self.p = arr / arr.sum()
        self.lp = np.log2(self.p)
        self.d = self.p.size
        self.entropy = float(-(self.p @ self.lp))
        self.floor = -float(self.lp[0])
        self.flat = float(-math.log2(self.d) - self.lp.mean())
        self.top = math.log2(self.d)
        self.renyi_half = 2.0 * math.log2(float(np.sqrt(self.p).sum()))
        self.r_prime = self.big_f(0.5)

    def tilt(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        z = s * self.lp
        log_h = z - np.logaddexp2.reduce(z)
        return np.exp2(log_h), log_h

    def big_f(self, s: float) -> float:
        h, log_h = self.tilt(s)
        return float(h @ (log_h - self.lp))

    def tilted_entropy(self, s: float) -> float:
        h, log_h = self.tilt(s)
        return float(-(h @ log_h))

    def solve(self, r: float, branch: str) -> float:
        """s with F(s) = r: s > 1 on the direct branch ("plus"), 0 < s < 1
        on the converse branch ("minus")."""
        g = lambda s: self.big_f(s) - r  # noqa: E731
        return _root(g, 1.0) if branch == "plus" else _root(g, 0.0, 1.0)

    def direct(self, r: float) -> float:
        if r >= self.floor:
            return self.floor
        return r + self.tilted_entropy(self.solve(r, "plus"))

    def converse(self, r: float) -> float:
        if r >= self.flat:
            return self.top
        return self.tilted_entropy(self.solve(r, "minus"))


def _root(g, lo: float, hi: float | None = None) -> float:
    """Root of a monotone g between lo and hi by bisection; without hi, hi
    doubles from 2 until g changes sign."""
    below = g(lo) < 0.0
    if hi is None:
        hi = 2.0
        while (g(hi) < 0.0) == below and hi < 1e12:
            hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (g(mid) < 0.0) == below:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mp_yield(spec: Spec, r: float, branch: str) -> float:
    """The yield from a 30-digit solve of F(s) = r, started at this file's
    float64 root; the yield is r + H(h) on the direct branch, H(h) on the
    converse branch."""
    mp = mpmath.mp
    p = [mp.mpf(float(x)) for x in spec.p]
    total = mp.fsum(p)
    p = [x / total for x in p]
    ln2 = mp.log(2)
    logp = [mp.log(x) / ln2 for x in p]

    def tilt(s):
        w = [mp.power(x, s) for x in p]
        z = mp.fsum(w)
        return [x / z for x in w]

    def big_f(s):
        h = tilt(s)
        return mp.fsum(hi * (mp.log(hi) / ln2 - li) for hi, li in zip(h, logp))

    target = mp.mpf(r)
    s0 = mp.mpf(spec.solve(r, branch))
    s = mp.findroot(lambda s: big_f(s) - target, (s0, s0 * (1 + mp.mpf("1e-9"))))
    h = tilt(s)
    entropy = -mp.fsum(hi * mp.log(hi) / ln2 for hi in h)
    value = target + entropy if branch == "plus" else entropy
    return float(value)


def _close(a, b, tol) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b))


def _fmt(x) -> str:
    return "None" if x is None else f"{x:.17g}"


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell: str):
    return None if cell == "" else float(cell)


# ---------------------------------------------------------------------------
# yield curves (sweep rows and yield queries)
# ---------------------------------------------------------------------------


def check_curve_point(spec: Spec, kind: str, r: float, value: float, regime: str,
                      solve: bool = True, mp_check: bool = False) -> list[str]:
    """One point of one curve against its label, plateaus and bounds; when
    asked, interior points against the own float64 solve and the 30-digit
    solve. kind is direct, converse, fidelity-direct or fidelity-converse."""
    errs = []
    where = f"{kind} r={r!r}"
    if kind in ("direct", "fidelity-direct"):
        edge, plateau, label, branch = spec.floor, spec.floor, "saturated-high", "plus"
        lo, hi = spec.floor, spec.entropy
    else:
        edge, plateau, label, branch = spec.flat, spec.top, "saturated-low", "minus"
        lo, hi = spec.entropy, spec.top
    if kind == "fidelity-converse" and r > spec.r_prime * (1 + EDGE):
        if regime != "linear":
            errs.append(f"{where}: regime {regime} past r'={spec.r_prime!r}, want linear")
        if not _close(value, r + spec.renyi_half, LINEAR_TOL):
            errs.append(f"{where}: {_fmt(value)} != r + H_1/2 = {_fmt(r + spec.renyi_half)}")
        return errs
    if kind == "fidelity-converse" and r > spec.r_prime * (1 - EDGE):
        return errs
    if r > edge * (1 + EDGE):
        if regime != label:
            errs.append(f"{where}: regime {regime}, want {label}")
        if not _close(value, plateau, TIGHT):
            errs.append(f"{where}: plateau {_fmt(value)} != {_fmt(plateau)}")
        return errs
    if r < edge * (1 - EDGE):
        if regime != "interior":
            errs.append(f"{where}: regime {regime}, want interior")
        if not (lo - TIGHT <= value <= hi + TIGHT):
            errs.append(f"{where}: {_fmt(value)} outside [{_fmt(lo)}, {_fmt(hi)}]")
        if solve:
            own = spec.direct(r) if branch == "plus" else spec.converse(r)
            if not _close(value, own, TOL):
                errs.append(f"{where}: {_fmt(value)} != own solve {_fmt(own)}")
        if mp_check:
            exact = mp_yield(spec, r, branch)
            if not _close(value, exact, TOL):
                errs.append(f"{where}: {_fmt(value)} != 30-digit {_fmt(exact)}")
    return errs


SWEEP_COLUMNS = [
    "r", "direct", "converse", "fidelity_direct", "fidelity_converse",
    "direct_regime", "converse_regime", "fidelity_converse_regime", "s_plus", "s_minus",
]


def check_sweep(args: dict, text: str, mp_rows: int = 2) -> list[str]:
    """Every row: bounds, labels, plateaus, the Renyi-1/2 line past r',
    fidelity columns, monotone columns. Interior points: the own float64
    solve (every row for d <= 64, every sixth row above) and, when d <= 16,
    the 30-digit solve on the first mp_rows interior rows."""
    spec = Spec(args["probs"])
    header = text.split("\n", 1)[0].split(",")
    if header != SWEEP_COLUMNS:
        return [f"sweep header {header}"]
    rows = _csv_rows(text)
    grid = args["r_grid"]
    if [float(row["r"]) for row in rows] != list(grid):
        return [f"sweep r column differs from the grid {grid}"]
    solve_every = 1 if spec.d <= 64 else 6
    mp_left = mp_rows if spec.d <= 16 else 0
    errs = []
    prev = None
    for i, row in enumerate(rows):
        r = grid[i]
        vals = {k: float(row[k]) for k in ("direct", "converse", "fidelity_direct", "fidelity_converse")}
        if vals["fidelity_direct"] != vals["direct"]:
            errs.append(f"sweep r={r!r}: fidelity_direct != direct")
        if vals["fidelity_converse"] < vals["converse"] - TIGHT:
            errs.append(f"sweep r={r!r}: fidelity_converse below converse")
        if not (spec.floor - TIGHT <= vals["direct"] <= spec.entropy + TIGHT):
            errs.append(f"sweep r={r!r}: direct outside [-log2 p1, H]")
        if not (spec.entropy - TIGHT <= vals["converse"] <= spec.top + TIGHT):
            errs.append(f"sweep r={r!r}: converse outside [H, log2 d]")
        mp_check = mp_left > 0 and row["direct_regime"] == "interior"
        mp_left -= mp_check
        solve = i % solve_every == 0
        errs += check_curve_point(spec, "direct", r, vals["direct"], row["direct_regime"], solve, mp_check)
        errs += check_curve_point(spec, "converse", r, vals["converse"], row["converse_regime"], solve, mp_check)
        if r > spec.r_prime * (1 + EDGE):
            errs += check_curve_point(spec, "fidelity-converse", r, vals["fidelity_converse"],
                                      row["fidelity_converse_regime"])
        elif r < spec.r_prime * (1 - EDGE) and (
            vals["fidelity_converse"] != vals["converse"]
            or row["fidelity_converse_regime"] != row["converse_regime"]
        ):
            errs.append(f"sweep r={r!r}: below r' fidelity_converse must equal converse")
        if prev is not None:
            if vals["direct"] > prev["direct"] + TIGHT:
                errs.append(f"sweep r={r!r}: direct increased")
            if vals["converse"] < prev["converse"] - TIGHT:
                errs.append(f"sweep r={r!r}: converse decreased")
            if vals["fidelity_converse"] < prev["fidelity_converse"] - TIGHT:
                errs.append(f"sweep r={r!r}: fidelity_converse decreased")
        prev = vals
    return errs


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


def vidal_probability(p: np.ndarray, size: int) -> float:
    """Optimal single-copy probability of a size-L maximally entangled state,
    P_L = min over l <= L of L / (L - l + 1) * sum_{i >= l} p_i (p descending)."""
    suffix = np.cumsum(p[::-1])[::-1]
    l = np.arange(1, size + 1)
    return float(min(np.min(size * suffix[:size] / (size - l + 1)), 1.0))


def _product(p: np.ndarray, n: int) -> np.ndarray:
    out = p
    for _ in range(n - 1):
        out = np.outer(out, p).ravel()
    return np.sort(out)[::-1]


def own_prediction(spec: Spec, rate: float, regime: str) -> float:
    """The asymptotic exponent at a per-copy rate: F(s) at the s > 1 where
    F(s) + H(h(s)) = rate (direct) or the 0 < s < 1 where H(h(s)) = rate
    (converse)."""
    if regime == "direct":
        s = _root(lambda s: spec.big_f(s) + spec.tilted_entropy(s) - rate, 1.0)
    else:
        s = _root(lambda s: spec.tilted_entropy(s) - rate, 0.0, 1.0)
    return spec.big_f(s)


CONVERGE_COLUMNS = [
    "n", "rate_requested", "rate_actual", "exponent", "predicted", "residual",
    "finite_size_allowance", "within_tolerance",
]


def check_converge(args: dict, text: str) -> list[str]:
    spec = Spec(args["probs"])
    rate = args["rate"]
    regime = "direct" if rate < spec.entropy else "converse"
    header = text.split("\n", 1)[0].split(",")
    if header != CONVERGE_COLUMNS:
        return [f"converge header {header}"]
    rows = _csv_rows(text)
    if [int(row["n"]) for row in rows] != list(args["n_list"]):
        return [f"converge n column differs from n_list {args['n_list']}"]
    errs = []
    predicted = own_prediction(spec, rate, regime)
    for row in rows:
        n = int(row["n"])
        where = f"converge n={n}"
        exponent, residual = _num(row["exponent"]), _num(row["residual"])
        if not _close(float(row["predicted"]), predicted, TOL):
            errs.append(f"{where}: predicted {row['predicted']} != own {_fmt(predicted)}")
        if not _close(float(row["finite_size_allowance"]), spec.d * math.log2(n + 1) / n, TIGHT):
            errs.append(f"{where}: finite_size_allowance {row['finite_size_allowance']}")
        if exponent is None or residual is None or not _close(residual, exponent - float(row["predicted"]), TIGHT):
            errs.append(f"{where}: residual {row['residual']} != exponent - predicted")
        if abs(float(row["rate_actual"]) - rate) > 1.0 / n:
            errs.append(f"{where}: rate_actual {row['rate_actual']} far from {rate!r}")
        if (row["within_tolerance"] == "true") != (residual is not None and abs(residual) <= 0.02):
            errs.append(f"{where}: within_tolerance {row['within_tolerance']}")
    if errs:
        return errs
    first, last = rows[0], rows[-1]
    n0 = int(first["n"])
    size = max(1, math.ceil(2.0 ** (n0 * rate)))
    if not _close(float(first["rate_actual"]), math.log2(size) / n0, TIGHT):
        errs.append(f"converge n={n0}: rate_actual {first['rate_actual']} != log2({size})/n")
    prob = vidal_probability(_product(spec.p, n0), size)
    if regime == "direct":
        own = -math.log2(1.0 - prob) / n0
    else:
        own = -math.log2(prob) / n0
    if not _close(float(first["exponent"]), own, TOL):
        errs.append(f"converge n={n0}: exponent {first['exponent']} != expanded-product {_fmt(own)}")
    res_first, res_last = abs(float(first["residual"])), abs(float(last["residual"]))
    if res_last > float(last["finite_size_allowance"]):
        errs.append(f"converge n={last['n']}: |residual| {res_last} beyond allowance")
    if not res_last < res_first:
        errs.append(f"converge: last |residual| {res_last} not below first {res_first}")
    return errs


# ---------------------------------------------------------------------------
# CLI queries
# ---------------------------------------------------------------------------


def _json_row(text: str) -> dict:
    return json.loads(text)["rows"][0]


def check_query(kind: str, args: dict, ok: bool, text: str, mp_check: bool) -> tuple[list[str], bool]:
    """Returns (errors, expected_failure). expected_failure is True only for a
    tied-maximum query that failed with SolverError, the known fault."""
    spec = Spec(args["probs"])
    if kind == "yield-tied":
        if not ok:
            try:
                err = json.loads(text)["error"]["type"]
            except (ValueError, KeyError, TypeError):
                return [f"tied query: unparseable error output {text!r}"], False
            if err == "SolverError":
                return [], True
            return [f"tied query: failed with {err}, not SolverError"], False
        row = _json_row(text)
        errs = []
        if row["regime"] != "saturated-high" or not _close(row["yield_bits"], spec.floor, TIGHT):
            errs.append(f"tied query: {row} is not the -log2 p1 plateau {spec.floor!r}")
        return errs, False
    if not ok:
        return [f"{kind}: exit code 1: {text.strip()[:200]}"], False
    if kind.startswith("yield-"):
        row = _json_row(text)
        sub = kind[len("yield-"):]
        if row["kind"] != sub:
            return [f"{kind}: kind column {row['kind']}"], False
        return check_curve_point(spec, sub, row["r"], row["yield_bits"], row["regime"], True, mp_check), False
    if kind == "finite":
        row = _csv_rows(text)[0]
        size, t, prob = int(row["size"]), float(row["threshold"]), float(row["success_prob"])
        cut = int(row["cut_index"])
        errs = []
        if not _close(prob, vidal_probability(spec.p, size), TIGHT):
            errs.append(f"finite L={size}: P={prob!r} != min formula")
        if not _close(prob, min(t * size, 1.0), TIGHT):
            errs.append(f"finite L={size}: P={prob!r} != t*L={t * size!r}")
        if not _close(float(row["failure_prob"]), 1.0 - prob, TIGHT):
            errs.append(f"finite L={size}: failure_prob != 1 - P")
        if not (np.all(spec.p[: cut - 1] > t) and (cut - 1 == spec.d or spec.p[cut - 1] <= t + 1e-14)):
            errs.append(f"finite L={size}: cut_index {cut} inconsistent with threshold {t!r}")
        return errs, False
    if kind == "info":
        row = _csv_rows(text)[0]
        want = {
            "dim": spec.d,
            "entropy_bits": spec.entropy,
            "deterministic_exponent_bits": spec.floor,
            "uniform_divergence_bits": spec.flat,
            "deterministic_size": math.floor(1.0 / spec.p[0] + 1e-12),
        }
        return [f"info {k}: {row[k]} != {v!r}" for k, v in want.items()
                if not _close(float(row[k]), float(v), TIGHT)], False
    if kind == "fidelity-construction":
        row = _json_row(text)
        size = row["target_size"]
        eps = 1.0 - min(float(np.sqrt(spec.p[:size]).sum()) ** 2 / size, 1.0)
        errs = []
        if not row["passed"]:
            errs.append(f"fidelity construction T={size}: not passed")
        if not _close(row["eps"], eps, TIGHT):
            errs.append(f"fidelity construction T={size}: eps {row['eps']!r} != {eps!r}")
        if row["promised_size"] != math.floor(size * (1.0 - 6.0 * eps) / 6.0):
            errs.append(f"fidelity construction T={size}: promised_size {row['promised_size']}")
        if row["achieved_size"] < row["promised_size"]:
            errs.append(f"fidelity construction T={size}: achieved below promised")
        return errs, False
    if kind == "fidelity-bound":
        row = _json_row(text)
        size = row["target_size"]
        fid = min(float(np.sqrt(spec.p[:size]).sum()) ** 2 / size, 1.0)
        bound = (math.sqrt(size * fid) - 1.0) / math.log(size)
        t = spec.p[:, None]
        best = float(np.sqrt(np.minimum(t, spec.p).sum(axis=1) * np.minimum(1.0, spec.p / t).sum(axis=1)).max())
        errs = []
        if not row["passed"]:
            errs.append(f"fidelity bound T={size}: not passed")
        if not _close(row["fidelity"], fid, TIGHT) or not _close(row["bound"], bound, TIGHT):
            errs.append(f"fidelity bound T={size}: fidelity/bound differ from closed forms")
        if not _close(row["best_sqrt_pl"], best, TIGHT) or best < bound:
            errs.append(f"fidelity bound T={size}: best_sqrt_pl {row['best_sqrt_pl']!r} != scan {best!r}")
        return errs, False
    if kind == "nonadd":
        row = _json_row(text)
        errs = []
        if not row["passed"]:
            errs.append("nonadd: relations not passed")
        own = spec.direct(row["r"])
        if not _close(row["e_rho"], own, TOL):
            errs.append(f"nonadd: e_rho {row['e_rho']!r} != own solve {own!r}")
        if abs(row["e_half_rho"] - 0.5 * row["e_rho_rho"]) > TOL:
            errs.append("nonadd: E_{r/2}(rho) != E_r(rho x rho) / 2")
        return errs, False
    return [f"unknown query kind {kind}"], False
