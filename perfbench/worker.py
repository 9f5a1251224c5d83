"""One workload in one fresh process: set up, run timed rounds, check, report.

Started by run.py with the checkout's src/ on PYTHONPATH and every thread
pool pinned to one thread. The last line of stdout is a JSON object; failed
checks go to stderr.

Clock. Every time here is process CPU time (time.process_time_ns). On a
shared virtual machine the wall time of a fixed job swings by 2x with the
neighbours' load (the hypervisor steals the CPU), while the CPU time the
process was given does not; the work is single-threaded and does no I/O.

Calibration. A reference kernel of the benchmark's own is timed in slots
between jobs, whenever SLOT_EVERY_NS of CPU time has passed since the last
slot. It has two parts: interpreter work (a Python loop over dict and int
operations) and numpy work (a short Python loop of numpy calls on
2048-element arrays); a slot times each part three times back to back and
keeps the minimum. A job's calibrated time is its raw time times the
part's nominal time over the median of that part in the CALIB_WINDOW slots
nearest the job. Jobs on spectra of more than VECTOR_DIM entries (the large
sweeps) spend their time in numpy loops over the spectrum and use the numpy
part; every other job (small spectra, the type lattices, the CLI) spends it
in the interpreter and uses the interpreter part, and so does set-up
(imports and warm-up), calibrated by the slots taken right after it. Raw
figures are reported beside the calibrated ones.

Why this split: the neighbours' load slows different code by different
amounts. Over 8 processes in a period where raw job times swung by up to
1.6x, jobs on small spectra and converge jobs moved with the interpreter
part (log-log slope 0.8-1.4) while large sweeps moved with the numpy part
(slope 0.9) and hardly with the interpreter part (0.34). A single kernel of
numpy calls on 12-element arrays over-corrected every class (see
README.md).
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import resource
import statistics
import sys
import time

CLOCK = time.process_time_ns
HERE = os.path.dirname(os.path.abspath(__file__))

#: nominal CPU times of the kernel's two parts (close to their medians on
#: the reference host); calibrated times are raw times rescaled to a host
#: on which the parts take exactly this long
NOMINAL_NS = {"interp": 900_000, "numpy": 1_150_000}
INTERP_STEPS = 5000
NUMPY_STEPS = 10
NUMPY_DIM = 2048
SLOT_EVERY_NS = 50_000_000
CALIB_WINDOW = 9
VECTOR_DIM = 64
#: an untraced run goes on past --seconds until this many jobs are done, so
#: that job_p90_ms always has at least ten samples above it
MIN_JOBS = 100
#: interior sweep rows per job, and every how many queries, checked against
#: the 30-digit solve
MP_ROWS_PER_SWEEP = 2
MP_QUERY_EVERY = 8

MODULES = ("errors", "numerics", "spectra", "finite", "method_of_types",
           "iid", "rates", "fidelity", "harness", "cli")


def interpreter_kernel() -> int:
    acc = 0
    table = {}
    for i in range(INTERP_STEPS):
        table[i % 97] = acc
        acc = (acc * 31 + i) % 1000003
    return acc


def numpy_kernel(np, logp) -> float:
    acc = 0.0
    for i in range(NUMPY_STEPS):
        z = (1.0 + 0.01 * i) * logp
        w = np.exp2(z - np.logaddexp2.reduce(z))
        acc += float(w @ logp)
    return acc


def _min_of_three(fn, *args) -> int:
    best = None
    for _ in range(3):
        t0 = CLOCK()
        fn(*args)
        dt = CLOCK() - t0
        best = dt if best is None else min(best, dt)
    return best


class Calibrator:
    """Reference-kernel slots over the run and the per-job factors from them."""

    def __init__(self):
        import numpy as np

        p = np.linspace(1.0, 0.1, NUMPY_DIM)
        self.np, self.logp = np, np.log2(p / p.sum())
        self.times: list[int] = []
        self.parts: dict[str, list[int]] = {"interp": [], "numpy": []}

    def slot(self) -> None:
        self.parts["interp"].append(_min_of_three(interpreter_kernel))
        self.parts["numpy"].append(_min_of_three(numpy_kernel, self.np, self.logp))
        self.times.append(CLOCK())

    def maybe_slot(self) -> None:
        if not self.times or CLOCK() - self.times[-1] >= SLOT_EVERY_NS:
            self.slot()

    def factor(self, t: int, part: str) -> float:
        """Nominal over the median of `part` in the CALIB_WINDOW slots nearest t."""
        values = self.parts[part]
        n = len(values)
        k = min(CALIB_WINDOW, n)
        lo = max(0, min(bisect.bisect_left(self.times, t) - k // 2, n - k))
        return NOMINAL_NS[part] / statistics.median(values[lo:lo + k])

    def median_ms(self, part: str) -> float:
        return statistics.median(self.parts[part]) / 1e6


def kernel_part(job) -> str:
    return "numpy" if len(job.args["probs"]) > VECTOR_DIM else "interp"


def import_package():
    """Import concentrate from the checkout's src/, never from elsewhere."""
    src = os.path.realpath(os.path.join(HERE, "..", "src"))
    cc = importlib.import_module("concentrate")
    if not os.path.realpath(cc.__file__).startswith(src + os.sep):
        raise SystemExit(f"concentrate imported from {cc.__file__}, not from {src}")
    return cc, [cc] + [importlib.import_module(f"concentrate.{m}") for m in MODULES]


def warmup(cc, workloads, make_round, seed: int) -> None:
    """One job of every kind the workload runs, from the warm-up seed stream
    (sweeps only on small spectra: the large ones run the same code)."""
    seen = set()
    for job in make_round(seed, workloads.WARMUP_STREAM, 0):
        d = len(job.args["probs"])
        if job.kind == "sweep" and d > 64:
            continue
        key = (job.kind, d) if job.kind == "converge" else job.kind
        if key not in seen:
            seen.add(key)
            workloads.run_job(cc, job)


class Run:
    """Timings, counts and check results of one pass over the rounds."""

    def __init__(self):
        self.jobs: list[tuple[int, int, int, str]] = []  # (round, start ns, raw ns, kernel part)
        self.wall: dict[int, float] = {}
        self.traced: list[tuple[int, int, dict, dict]] = []  # (round, start, counts, ns)
        self.spans: list = []  # round 0's JobTrace objects, written at the end
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def check(checks, workload: str, job, ok: bool, out: str, index: int):
    """(errors, expected_failure) for one job's output."""
    if workload != "queries" and not ok:
        return [out], False
    if workload == "sweep":
        return checks.check_sweep(job.args, out, mp_rows=MP_ROWS_PER_SWEEP), False
    if workload == "converge":
        return checks.check_converge(job.args, out), False
    return checks.check_query(job.kind, job.args, ok, out, index % MP_QUERY_EVERY == 0)


def run_round(cc, workloads, checks, workload, seed, rnd, calib, run, tracer=None):
    from tracing import job_metrics

    make_round = workloads.ROUNDS[workload]
    wall0 = time.perf_counter()
    for index, job in enumerate(make_round(seed, workloads.TIMED_STREAM, rnd)):
        calib.maybe_slot()
        root = tracer.begin_job() if tracer is not None else None
        t0 = CLOCK()
        ok, out = workloads.run_job(cc, job)
        t1 = CLOCK()
        if tracer is not None:
            jt = tracer.end_job(root)
            run.traced.append((rnd, t0, *job_metrics(tracer, jt)))
            if rnd == 0:
                run.spans.append(jt)
        run.jobs.append((rnd, t0, t1 - t0, kernel_part(job)))
        errs, expected = check(checks, workload, job, ok, out, index)
        run.attempted += 1
        run.failed += int(expected or not ok)
        run.errors.extend(f"round {rnd} job {index} ({job.kind}): {e}" for e in errs)
    run.wall[rnd] = time.perf_counter() - wall0


def percentiles(values: list[float]) -> tuple[float, float]:
    """(median, 90th percentile) as statistics.quantiles gives them."""
    return statistics.median(values), statistics.quantiles(values, n=10)[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    import workloads

    cc, modules = import_package()
    warmup(cc, workloads, workloads.ROUNDS[args.workload], args.seed)
    setup_raw = CLOCK() / 1e9

    calib = Calibrator()
    for _ in range(CALIB_WINDOW):
        calib.slot()
    setup_cal = setup_raw * calib.factor(CLOCK(), "interp")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_cal, "raw.setup_s": setup_raw}))
        return 0

    import checks
    import selftest

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(cc, modules)
    plain, traced = Run(), Run()
    wall0 = time.perf_counter()
    rnd = 0
    while True:
        run_round(cc, workloads, checks, args.workload, args.seed, rnd, calib, plain)
        if tracer is not None:
            tracer.install()
            try:
                run_round(cc, workloads, checks, args.workload, args.seed, rnd, calib, traced, tracer)
            finally:
                tracer.uninstall()
        rnd += 1
        if time.perf_counter() - wall0 >= args.seconds and (
            tracer is not None or len(plain.jobs) >= MIN_JOBS
        ):
            break
    for _ in range(CALIB_WINDOW // 2 + 1):
        calib.slot()

    errors = plain.errors + traced.errors + selftest.run(cc, args.workload)
    rounds = list(range(rnd))
    cal = [(r, raw / 1e9, raw / 1e9 * calib.factor(t, part)) for r, t, raw, part in plain.jobs]
    work_cal = [sum(c for r, _, c in cal if r == k) for k in rounds]
    work_raw = sum(w for _, w, _ in cal) / rnd
    p50, p90 = percentiles([c * 1e3 for _, _, c in cal])
    raw_p50, raw_p90 = percentiles([w * 1e3 for _, w, _ in cal])
    result = {
        "correct": not errors,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "jobs": len(cal),
        "rounds": rnd,
        "end_to_end": {
            "setup_s": setup_cal,
            "work_s": sum(work_cal) / rnd,
            "job_p50_ms": p50,
            "job_p90_ms": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "raw": {
            "raw.setup_s": setup_raw,
            "raw.work_s": work_raw,
            "raw.job_p50_ms": raw_p50,
            "raw.job_p90_ms": raw_p90,
            "raw.wall_work_s": statistics.median(plain.wall.values()),
            "calib.interp_ms": calib.median_ms("interp"),
            "calib.numpy_ms": calib.median_ms("numpy"),
        },
    }
    if tracer is not None:
        result["per_layer"] = per_layer(traced, calib, work_cal, rounds)
        write_spans(args, tracer, traced.spans)
    for line in errors[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def per_layer(traced: Run, calib: Calibrator, work_cal: list[float], rounds: list[int]) -> dict:
    """Counts of round 0 (they depend only on the seed); calibrated times as
    the median over rounds of the per-round sums; trace.overhead_s as the
    median over rounds of traced minus untraced calibrated round time."""
    counts: dict[str, float] = {}
    times: dict[str, list[float]] = {}
    traced_work = [0.0] * len(rounds)
    for (rnd, t0, job_counts, job_ns), (_, _, raw_ns, part) in zip(traced.traced, traced.jobs):
        factor = calib.factor(t0, part)
        if rnd == 0:
            for key, value in job_counts.items():
                counts[key] = counts.get(key, 0) + value
        for key, ns in job_ns.items():
            times.setdefault(key, [0.0] * len(rounds))[rnd] += ns * factor / 1e6
        traced_work[rnd] += raw_ns * factor / 1e9
    out = {key: float(value) for key, value in counts.items()}
    out.update({key: statistics.median(per_round) for key, per_round in times.items()})
    out["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_work, work_cal))
    return out


def write_spans(args, tracer, spans) -> None:
    """Round 0's spans, one row each, to out/spans-<workload>-<seed>.csv."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("job,span,name,parent,start_ns,end_ns\n")
        for job, jt in enumerate(spans):
            for i in range(jt.names.size):
                fh.write(f"{job},{i},{tracer.names[jt.names[i]]},{jt.parents[i]},"
                         f"{jt.start[i]},{jt.end[i]}\n")


if __name__ == "__main__":
    sys.exit(main())
