"""Seeded inputs and job bodies for the three benchmark workloads.

A run is a sequence of rounds. Every round of a workload holds the same mix
of jobs (the same job kinds in the same numbers), so the share of failing
jobs is identical in every run; only the floats change with the seed and the
round. Size parameters (spectrum dimension, n) are spread with a golden-ratio
low-discrepancy sequence, so a run's sizes cover their range evenly and its
percentiles do not hinge on a few lucky draws.

A job is built outside the timed region (``Job.args``) and run inside it
(``run_job``): the body always builds its spectrum afresh with
``new_spectrum`` from plain floats, as the CLI does, so no cache keyed on a
spectrum object carries over from one job to the next.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: streams of the seed sequence; warm-up never sees the timed inputs
TIMED_STREAM = 0
WARMUP_STREAM = 1

#: sweep: 8 small spectra (d in 2-16) and 2 large ones per round. The large
#: dimensions alternate (256, 1024) and (1024, 2048), so the large sweeps
#: are 20% of the jobs, half of them at d=1024, and job_p90_ms (the middle
#: of the large sweeps' costs) falls inside the d=1024 cluster rather than
#: between two sizes
SWEEP_SMALL = 8
SWEEP_LARGE_DIMS = ((256, 1024), (1024, 2048))
SWEEP_POINTS = 12

#: converge: (d, jobs per round); d=4 jobs are 30% of the round, so
#: job_p90_ms sits inside the d=4 costs rather than on a class boundary
CONVERGE_MIX = ((3, 5), (4, 3), (2, 2))

#: queries: (kind, jobs per round). fidelity-converse is 20% of the round
#: (each pays a full r_prime), so job_p90_ms is the middle of its costs.
QUERY_MIX = (
    ("yield-direct", 3),
    ("yield-converse", 3),
    ("yield-fidelity-direct", 3),
    ("yield-fidelity-converse", 6),
    ("finite", 3),
    ("info", 3),
    ("fidelity-construction", 2),
    ("fidelity-bound", 2),
    ("nonadd", 2),
)

#: tied maxima at -log2(m p1) <= r < -log2 p1, identical in every round and
#: every seed: exact ties (m = 2 and m = 3) and a tie within 1e-13
TIED_QUERIES = (
    ("0.4,0.4,0.2", 0.5),
    ("0.3,0.3,0.3,0.1", 1.0),
    ("0.4,0.3999999999999,0.2000000000001", 0.5),
)

@dataclass(frozen=True)
class Job:
    """One unit of timed work: its kind and its generated inputs."""

    kind: str
    args: dict


def _rng(seed: int, stream: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, round_index])


def _spread(seed: int, stream: int, label: int, index: int) -> float:
    """Golden-ratio sequence point for the index-th job of one size class."""
    base = np.random.default_rng([seed, stream, 10_000 + label]).random()
    return (base + index * GOLDEN) % 1.0


def spectrum_floats(rng: np.random.Generator, d: int) -> list[float]:
    """d positive floats summing to one, largest first, ratios at most ~20.

    The largest entry exceeds the second by at least 2%: closer top pairs
    are the tied-maximum fault's neighbourhood (the bracket search needs
    tilts beyond its cap), which the fixed tied queries measure instead.
    """
    raw = np.sort(rng.uniform(0.05, 1.0, size=d))[::-1]
    if d > 1 and raw[0] < 1.02 * raw[1]:
        raw[0] = 1.02 * raw[1]
    return [float(x) for x in raw / raw.sum()]


def _near_uniform_floats(rng: np.random.Generator, d: int) -> list[float]:
    raw = np.sort(1.0 + 0.1 * rng.uniform(size=d))[::-1]
    return [float(x) for x in raw / raw.sum()]


def _summary(probs: list[float]) -> tuple[float, float, float, float]:
    """(-log2 p1, D(u||p), H(p), log2 d) from plain floats."""
    p = np.asarray(probs) / math.fsum(probs)
    lp = np.log2(p)
    return (
        -float(lp[0]),
        float(-math.log2(p.size) - lp.mean()),
        float(-(p @ lp)),
        math.log2(p.size),
    )


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def sweep_round(seed: int, stream: int, round_index: int) -> list[Job]:
    rng = _rng(seed, stream, round_index)
    jobs = []
    small = [2 + int(15 * _spread(seed, stream, 0, round_index * SWEEP_SMALL + j))
             for j in range(SWEEP_SMALL)]
    for d in small + list(SWEEP_LARGE_DIMS[round_index % 2]):
        probs = spectrum_floats(rng, d)
        floor, flat, _, _ = _summary(probs)
        lo, hi = min(floor, flat), max(floor, flat)
        grid = np.linspace(0.02 * lo, 1.25 * hi, SWEEP_POINTS)
        jobs.append(Job("sweep", {"probs": probs, "r_grid": tuple(float(r) for r in grid)}))
    return jobs


def converge_round(seed: int, stream: int, round_index: int) -> list[Job]:
    """d=3 and d=4 jobs with n in the tens to hundreds, d=2 in the thousands.

    n-lists are (n0, n2 // 2, n2) (n2 // 4 in the middle for d=2). n0 is
    small enough for the checker to expand the d**n0 product coefficients.
    n2 is 140 (d=3) or 48 (d=4) for the first job of that dimension in every
    round, a type lattice that repeats from round to round; for the other
    jobs it is spread over d=3: 150-299, d=4: 50-89, d=2: 1000-3999. A job's
    cost is then close to a monotone function of its spread point, so the
    run's percentiles are steady. Over a 22-round run about 30% of the
    enumerated types belong to a lattice already enumerated earlier in it
    (by lattice count 60%, most of them the tiny n0 lattices). The rate lies
    45-55% of the way into the direct (even jobs) or converse (odd jobs)
    interval.
    """
    rng = _rng(seed, stream, round_index)
    jobs = []
    for label, (d, count) in enumerate(CONVERGE_MIX):
        for j in range(count):
            k = round_index * count + j
            u = _spread(seed, stream, 100 + label, k)
            if d == 2:
                top = 1000 + int(3000 * u)
                n_list = (10 + k % 7, top // 4, top)
            elif d == 3:
                top = 140 if j == 0 else 150 + int(150 * u)
                n_list = (6 + k % 3, top // 2, top)
            else:
                top = 48 if j == 0 else 50 + int(40 * u)
                n_list = (5 + k % 2, top // 2, top)
            probs = spectrum_floats(rng, d)
            floor, _, entropy, top_rate = _summary(probs)
            frac = float(rng.uniform(0.45, 0.55))
            if k % 2 == 0:
                rate = floor + frac * (entropy - floor)
            else:
                rate = entropy + frac * (top_rate - entropy)
            jobs.append(Job("converge", {"probs": probs, "rate": rate, "n_list": n_list}))
    return jobs


def _spectrum_arg(probs: list[float]) -> str:
    return ",".join(repr(x) for x in probs)


def queries_round(seed: int, stream: int, round_index: int) -> list[Job]:
    rng = _rng(seed, stream, round_index)
    jobs = []
    for kind, count in QUERY_MIX:
        for _ in range(count):
            if kind == "nonadd":
                d = int(rng.integers(2, 9))
            elif kind == "fidelity-construction":
                d = int(rng.integers(7, 65))
            else:
                d = int(rng.integers(2, 65))
            if kind == "fidelity-construction":
                probs = _near_uniform_floats(rng, d)
            else:
                probs = spectrum_floats(rng, d)
            spec = _spectrum_arg(probs)
            floor, flat, _, _ = _summary(probs)
            if kind.startswith("yield-"):
                sub = kind[len("yield-"):]
                scale = flat if sub in ("converse", "fidelity-converse") else floor
                r = float(rng.uniform(0.02, 1.3)) * scale
                argv = ["yield", "--spectrum", spec, "--r", repr(r), "--kind", sub,
                        "--format", "json"]
            elif kind == "finite":
                argv = ["finite", "--spectrum", spec, "--size", str(int(rng.integers(1, d + 1)))]
            elif kind == "info":
                argv = ["info", "--spectrum", spec]
            elif kind == "fidelity-construction":
                argv = ["fidelity", "--verify", "construction", "--spectrum", spec,
                        "--target-size", str(d), "--format", "json"]
            elif kind == "fidelity-bound":
                argv = ["fidelity", "--verify", "bound", "--spectrum", spec,
                        "--target-size", str(int(rng.integers(2, d + 1))), "--format", "json"]
            else:
                sigma = _spectrum_arg(spectrum_floats(rng, int(rng.integers(2, 9))))
                r = float(rng.uniform(0.05, 0.9)) * floor
                argv = ["nonadd", "--spectrum", spec, "--sigma", sigma, "--r", repr(r),
                        "--format", "json"]
            jobs.append(Job(kind, {"argv": argv, "probs": probs}))
    for spec, r in TIED_QUERIES:
        argv = ["yield", "--spectrum", spec, "--r", repr(r), "--kind", "direct", "--format", "json"]
        probs = [float(x) for x in spec.split(",")]
        jobs.append(Job("yield-tied", {"argv": argv, "probs": probs}))
    return jobs


ROUNDS = {
    "sweep": sweep_round,
    "converge": converge_round,
    "queries": queries_round,
}


# ---------------------------------------------------------------------------
# job bodies (the timed part)
# ---------------------------------------------------------------------------


def run_job(cc, job: Job):
    """Execute one job against the imported package; returns (ok, output).

    ok is False only when the program reported a domain error: for CLI
    queries that is exit code 1, for library jobs a ConcentrationError.
    """
    a = job.args
    try:
        if job.kind == "sweep":
            cfg = cc.harness.ExperimentConfig(
                spectrum=cc.spectra.new_spectrum(a["probs"]), r_grid=a["r_grid"]
            )
            return True, cc.harness.run_sweep(cfg).to_csv_text()
        if job.kind == "converge":
            cfg = cc.harness.ExperimentConfig(
                spectrum=cc.spectra.new_spectrum(a["probs"]), rate=a["rate"], n_list=a["n_list"]
            )
            return True, cc.harness.run_convergence(cfg).to_csv_text()
    except cc.errors.ConcentrationError as exc:
        return False, f"{type(exc).__name__}: {exc}"
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cc.cli.main(a["argv"])
    return code == 0, out.getvalue()
