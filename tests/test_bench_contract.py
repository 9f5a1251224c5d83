"""What the benchmark in perfbench/ relies on from the package.

The benchmark wraps every public function of every module in
worker.MODULES from outside and charges each span to a layer named after
its module, and perfbench/checks.py judges every output. These tests load
worker.py, tracing.py, workloads.py, checks.py and selftest.py read-only
and check that a traced run still works and changes no output, that the
checks the benchmark applies pass on a sample of its own jobs, and that its
selftest passes, without which every benchmark run exits 1.
"""

import importlib.util
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import concentrate
from concentrate import harness
from concentrate.spectra import new_spectrum

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


worker = _load("worker")
tracing = _load("tracing")
workloads = _load("workloads")
checks = _load("checks")
selftest = _load("selftest")


def test_every_submodule_is_in_worker_modules():
    names = {m.name for m in pkgutil.iter_modules(concentrate.__path__)}
    assert names <= set(worker.MODULES)


@pytest.fixture
def tracer():
    package, modules = worker.import_package()
    built = tracing.Tracer(package, modules)
    yield built
    built.uninstall()


def test_tracer_builds_over_the_package(tracer):
    # a public function whose module is not in tracing.LAYERS fails here
    assert {"spectra.tilted_point", "spectra.solve_tilts", "rates.direct_yield"} <= set(
        tracer.names
    )


def test_traced_runs_match_untraced(tracer):
    # looked up at call time, so the traced pass enters through the wrappers
    jobs = [
        lambda: harness.run_sweep(harness.ExperimentConfig(
            spectrum=new_spectrum([0.5, 0.3, 0.15, 0.05]),
            r_grid=(0.01, 0.2, 0.6, 1.2, 3.0),
        )),
        lambda: harness.run_convergence(harness.ExperimentConfig(
            spectrum=new_spectrum([0.6, 0.3, 0.1]), rate=1.0, n_list=(6, 20, 40),
        )),
    ]
    plain = [job().to_csv_text() for job in jobs]
    tracer.install()
    root = tracer.begin_job()
    traced = [job().to_csv_text() for job in jobs]
    trace = tracer.end_job(root)
    counts, _ = tracing.job_metrics(tracer, trace)
    tracer.uninstall()
    assert traced == plain
    # F comes with each solved point; big_f, which this counter reads, is gone
    assert counts["spectra.f_evals"] == 0
    # one engine run per sweep branch and one for the predicted exponent
    assert trace.calls("spectra.solve_tilts") == 3
    assert counts["numerics.unconverged"] == 0
    # one lattice build per n; the counter above reads type_matrix rows only
    assert trace.calls("method_of_types.lattice_logs") == 3


def test_traced_cli_queries_match_untraced(tracer):
    package, _ = worker.import_package()
    jobs = {}
    for job in workloads.queries_round(0, 2, 0):
        jobs.setdefault(job.kind, job)
    plain = [workloads.run_job(package, job) for job in jobs.values()]
    tracer.install()
    root = tracer.begin_job()
    traced = [workloads.run_job(package, job) for job in jobs.values()]
    counts, _ = tracing.job_metrics(tracer, tracer.end_job(root))
    tracer.uninstall()
    assert traced == plain
    assert counts["cli.calls"] == len(jobs)


@pytest.mark.parametrize("round_index", [0, 1])
def test_sweep_jobs_pass_the_benchmark_checks(round_index):
    package, _ = worker.import_package()
    for job in workloads.sweep_round(1, workloads.TIMED_STREAM, round_index):
        ok, text = workloads.run_job(package, job)
        assert ok, text
        assert checks.check_sweep(job.args, text, mp_rows=2) == []


def test_query_jobs_pass_the_benchmark_checks():
    # one job of each yield kind; the tied-maximum queries must fail with
    # SolverError, which the benchmark counts as the known fault
    package, _ = worker.import_package()
    jobs = workloads.queries_round(0, 2, 0)
    first = {}
    for job in jobs:
        if job.kind.startswith("yield-") and job.kind != "yield-tied":
            first.setdefault(job.kind, job)
    assert len(first) == 4
    for kind, job in first.items():
        ok, text = workloads.run_job(package, job)
        assert checks.check_query(kind, job.args, ok, text, True) == ([], False)
    tied = [job for job in jobs if job.kind == "yield-tied"]
    assert len(tied) == len(workloads.TIED_QUERIES)
    for job in tied:
        ok, text = workloads.run_job(package, job)
        assert not ok
        assert json.loads(text)["error"]["type"] == "SolverError"
        assert checks.check_query("yield-tied", job.args, ok, text, False) == ([], True)


@pytest.mark.parametrize("workload", ["sweep", "converge", "queries"])
def test_benchmark_selftest_passes(workload):
    # each checker passes the program's output and rejects every corruption
    package, _ = worker.import_package()
    assert selftest.run(package, workload) == []
