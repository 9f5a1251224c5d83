"""Benchmark entry point: one workload, each process fresh and single-threaded.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. Workloads: sweep, converge, queries (see
README.md in this directory). The program is imported from ./src.

The launcher starts SETUP_SAMPLES - 1 processes that only set up (import
concentrate, warm up) and then the worker process that also runs the timed
rounds, one after another; setup_s is the median of the calibrated set-up
CPU times of all of them. Every child gets
CONCENTRATE_THREADS=1 and every BLAS and OpenMP pool pinned to one thread:
on a shared 2-core host a second thread only contends for the same cores,
and the harness's thread pool is bound by the interpreter lock.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (spans of its first round go to perfbench/out/). The last
line of stdout is the JSON result; a line before it carries the figures
that are not part of that result (raw times, job and round counts).
The exit code is 1, with no result printed, if any child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "converge", "queries")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes_out") else "count"


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("CONCENTRATE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str]) -> dict:
    """Run one worker process to its end; its last stdout line is JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + argv
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(argv)}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [run_child(common + ["--setup-only"]) for _ in range(SETUP_SAMPLES - 1)]
        result = run_child(common)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setup = [s["setup_s"] for s in setups] + [result["end_to_end"]["setup_s"]]
    setup_raw = [s["raw.setup_s"] for s in setups] + [result["raw"]["raw.setup_s"]]
    result["end_to_end"]["setup_s"] = statistics.median(setup)
    result["raw"]["raw.setup_s"] = statistics.median(setup_raw)
    if args.trace:
        values = {**result["per_layer"], **result["raw"]}
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["end_to_end"].items()}
    print(json.dumps({"jobs": result["jobs"], "rounds": result["rounds"],
                      "raw": result["raw"], "setup_samples_s": setup}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
