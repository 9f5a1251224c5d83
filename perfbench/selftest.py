"""Each checker must pass a good output and reject a corrupted copy of it.

run(cc, workload) runs the program on fixed small inputs, feeds the output to
the workload's checkers untouched (they must pass) and then with one
corruption at a time (each must fail): a yield or exponent shifted by 1e-6,
a swapped regime label, a flipped verdict, a wrong error type. It returns
one line per checker that misbehaved; the worker counts any as a failed
check. Run standalone with

    python3 perfbench/selftest.py

from the repository root.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys

SELFTEST_STREAM = 2
SHIFT = 1e-6


def _edit_csv(text: str, row: int, **changes) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    for key, fn in changes.items():
        col = header.index(key)
        rows[row + 1][col] = fn(rows[row + 1][col])
    return "\n".join(",".join(r) for r in rows) + "\n"


def _edit_json(text: str, **changes) -> str:
    payload = json.loads(text)
    target = payload["rows"][0] if "rows" in payload else payload["error"]
    for key, fn in changes.items():
        target[key] = fn(target[key])
    return json.dumps(payload)


def _shift(cell):
    return repr(float(cell) + SHIFT) if isinstance(cell, str) else cell + SHIFT


def _expect(label: str, good: list[str], bad: dict[str, list[str]]) -> list[str]:
    problems = [f"selftest {label}: good output rejected: {good[:2]}"] if good else []
    problems += [f"selftest {label}: corruption '{name}' passed" for name, errs in bad.items() if not errs]
    return problems


def _sweep(cc, workloads, checks) -> list[str]:
    job = workloads.sweep_round(0, SELFTEST_STREAM, 0)[0]
    _, text = workloads.run_job(cc, job)
    rows = list(csv.DictReader(io.StringIO(text)))
    interior = next(i for i, r in enumerate(rows) if r["direct_regime"] == "interior")
    conv = next(i for i, r in enumerate(rows) if r["converse_regime"] == "interior")
    saturated = next(i for i, r in enumerate(rows) if r["direct_regime"] == "saturated-high")
    linear = next(i for i, r in enumerate(rows) if r["fidelity_converse_regime"] == "linear")
    run = lambda t: checks.check_sweep(job.args, t, mp_rows=0)  # noqa: E731
    spec = checks.Spec(job.args["probs"])
    r = float(rows[interior]["r"])
    value = float(rows[interior]["direct"])
    exact = checks.mp_yield(spec, r, "plus")
    mp_errs = [] if abs(value - exact) <= checks.TOL else ["good value off the 30-digit solve"]
    problems = _expect("sweep", run(text) + mp_errs, {
        "direct +1e-6": run(_edit_csv(text, interior, direct=_shift, fidelity_direct=_shift)),
        "converse +1e-6": run(_edit_csv(text, conv, converse=_shift)),
        "regime label swapped": run(_edit_csv(text, saturated, direct_regime=lambda _: "interior")),
        "Renyi-1/2 line +1e-5": run(_edit_csv(text, linear, fidelity_converse=lambda c: repr(float(c) + 1e-5))),
    })
    if abs(value + SHIFT - exact) <= checks.TOL:
        problems.append("selftest sweep: 30-digit solve accepts a 1e-6 shift")
    return problems


def _converge(cc, workloads, checks) -> list[str]:
    job = workloads.converge_round(0, SELFTEST_STREAM, 0)[0]
    _, text = workloads.run_job(cc, job)
    rows = list(csv.DictReader(io.StringIO(text)))
    last = len(rows) - 1
    wide = float(rows[last]["finite_size_allowance"]) * 2.0
    predicted = float(rows[last]["predicted"])
    run = lambda t: checks.check_converge(job.args, t)  # noqa: E731
    return _expect("converge", run(text), {
        "small-n exponent +1e-6": run(_edit_csv(text, 0, exponent=_shift, residual=_shift)),
        "predicted +1e-6": run(_edit_csv(text, 0, predicted=_shift, residual=lambda c: repr(float(c) - SHIFT))),
        "last residual beyond allowance": run(_edit_csv(
            text, last, exponent=lambda _: repr(predicted + wide), residual=lambda _: repr(wide),
            within_tolerance=lambda _: "false")),
    })


def _queries(cc, workloads, checks) -> list[str]:
    jobs = {}
    for job in workloads.queries_round(0, SELFTEST_STREAM, 0):
        jobs.setdefault(job.kind, job)
    outputs = {kind: workloads.run_job(cc, job) for kind, job in jobs.items()}

    def run(kind, text, ok=True):
        return checks.check_query(kind, jobs[kind].args, ok, text, True)[0]

    problems = []
    for kind, (ok, text) in outputs.items():
        errs, expected = checks.check_query(kind, jobs[kind].args, ok, text, True)
        if errs or (kind == "yield-tied") != expected:
            problems.append(f"selftest {kind}: good output rejected: {errs[:2]}")
    yield_kind = next(k for k in ("yield-direct", "yield-fidelity-direct")
                      if json.loads(outputs[k][1])["rows"][0]["regime"] == "interior")
    bad = {
        f"{yield_kind} +1e-6": run(yield_kind, _edit_json(outputs[yield_kind][1], yield_bits=_shift)),
        "yield regime swapped": run(yield_kind, _edit_json(
            outputs[yield_kind][1], regime=lambda _: "saturated-high")),
        "finite P +1e-6": run("finite", _edit_csv(outputs["finite"][1], 0, success_prob=_shift)),
        "info entropy +1e-6": run("info", _edit_csv(outputs["info"][1], 0, entropy_bits=_shift)),
        "construction verdict flipped": run("fidelity-construction", _edit_json(
            outputs["fidelity-construction"][1], passed=lambda v: not v)),
        "bound scan +1e-6": run("fidelity-bound", _edit_json(
            outputs["fidelity-bound"][1], best_sqrt_pl=_shift)),
        "nonadd e_rho +1e-6": run("nonadd", _edit_json(outputs["nonadd"][1], e_rho=_shift)),
        "tied error type": run("yield-tied", _edit_json(
            outputs["yield-tied"][1], type=lambda _: "RateOutOfRangeError"), ok=False),
    }
    return problems + _expect("queries", [], bad)


def run(cc, workload: str) -> list[str]:
    here = os.path.dirname(os.path.abspath(__file__))
    if here not in sys.path:
        sys.path.insert(0, here)
    import checks
    import workloads

    return {"sweep": _sweep, "converge": _converge, "queries": _queries}[workload](cc, workloads, checks)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    from worker import import_package

    package, _ = import_package()
    failures = [line for name in ("sweep", "converge", "queries") for line in run(package, name)]
    print("\n".join(failures) or "selftest: every checker passed its good output and rejected every corruption")
    sys.exit(1 if failures else 0)
