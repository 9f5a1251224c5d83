"""Per-layer tracing of the concentrate package, applied from outside.

install() replaces every public function of every concentrate module in each
namespace that binds it (``from .spectra import big_f`` makes a second
binding in rates, and the package namespace binds most of them again), in
module-level dicts that hold functions (the CLI's KIND_MAP), and the two
serialization methods of ExperimentRecord. uninstall() puts the originals
back, so an untraced pass runs the unmodified program.

Each wrapped call records a span (name id, parent span, start, end) in flat
arrays. A span's layer is the module that defines the function; its self
time is its duration minus the durations of its child spans. The fn passed
to bisect_for_value is wrapped to count evaluations, and after the solver
returns, fn is evaluated once more at the returned point (as its own span,
so the time is charged to the tracer) to count solves that stopped on the
iteration cap rather than on the tolerance.

Times are process CPU time, the clock the benchmark uses for jobs.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

CLOCK = time.process_time_ns

#: layers in metric order; "serialize" is ExperimentRecord.to_csv_text and
#: to_json_text, "trace" is the tracer's own re-evaluations, "bench" the
#: benchmark's job root span
LAYERS = (
    "spectra", "numerics", "rates", "method_of_types", "iid", "finite",
    "fidelity", "harness", "cli", "serialize", "trace", "bench",
)

SERIALIZERS = ("to_csv_text", "to_json_text")


class Tracer:
    def __init__(self, package, modules):
        self.on = False
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._ids: dict[str, int] = {}
        self.extra = {"bisect_evals": 0, "unconverged": 0, "types": 0, "groups": 0, "bytes_out": 0}
        self._clear_spans()
        self._patches = []
        prefix = package.__name__ + "."
        functions = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                home = getattr(obj, "__module__", None) or ""
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if home.startswith(prefix):
                    functions[id(obj)] = obj
        wrappers = {key: self._wrap_function(fn) for key, fn in functions.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj, wrappers[id(obj)], False))
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if id(value) in wrappers:
                            self._patches.append((obj, key, value, wrappers[id(value)], True))
        record = package.harness.ExperimentRecord
        for attr in SERIALIZERS:
            fn = getattr(record, attr)
            self._patches.append((record, attr, fn, self._span(fn, f"serialize.{attr}", self._count_bytes), False))
        self.job_id = self._name_id("bench.job")
        self._recheck_id = self._name_id("trace.recheck")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for target, key, _, wrapper, item in self._patches:
            if item:
                target[key] = wrapper
            else:
                setattr(target, key, wrapper)
        self.on = True

    def uninstall(self) -> None:
        self.on = False
        for target, key, original, _, item in self._patches:
            if item:
                target[key] = original
            else:
                setattr(target, key, original)

    # -- wrappers -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(name.split(".", 1)[0]))
        return self._ids[name]

    def _wrap_function(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        if name == "numerics.bisect_for_value":
            return self._span(self._counting_bisect(fn), name)
        post = {
            "method_of_types.type_matrix": self._count_types,
            "iid.grouped_spectrum": self._count_groups,
        }.get(name)
        return self._span(fn, name, post)

    def _span(self, fn, name: str, post=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post is not None:
                post(result)
            return result

        return wrapper

    def _counting_bisect(self, bisect):
        signature = inspect.signature(bisect)
        tracer = self

        @functools.wraps(bisect)
        def counting(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            fn = bound.arguments["fn"]
            evals = [0]

            def counted(x):
                evals[0] += 1
                return fn(x)

            bound.arguments["fn"] = counted
            x = bisect(*bound.args, **bound.kwargs)
            tracer.extra["bisect_evals"] += evals[0]
            idx = tracer.open(tracer._recheck_id)
            tracer.on = False
            try:
                residual = abs(fn(x) - bound.arguments["target"])
            finally:
                tracer.on = True
                tracer.close(idx)
            if residual > bound.arguments["f_tol"]:
                tracer.extra["unconverged"] += 1
            return x

        return counting

    def _count_types(self, result) -> None:
        self.extra["types"] += int(result.shape[0])

    def _count_groups(self, result) -> None:
        self.extra["groups"] += int(result.group_count)

    def _count_bytes(self, result) -> None:
        self.extra["bytes_out"] += len(result.encode("utf-8"))

    # -- spans ------------------------------------------------------------

    def _clear_spans(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(CLOCK())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = CLOCK()
        self.stack.pop()

    def begin_job(self) -> int:
        self._clear_spans()
        for key in self.extra:
            self.extra[key] = 0
        return self.open(self.job_id)

    def end_job(self, root: int) -> "JobTrace":
        self.close(root)
        names = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parents = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        start = np.frombuffer(self.span_start, dtype=np.int64).copy()
        end = np.frombuffer(self.span_end, dtype=np.int64).copy()
        trace = JobTrace(self, names, parents, start, end, dict(self.extra))
        self._clear_spans()
        return trace


class JobTrace:
    """The spans of one job, reduced to per-name counts and self times."""

    def __init__(self, tracer: Tracer, names, parents, start, end, extra):
        self.names, self.parents, self.start, self.end = names, parents, start, end
        self.extra = extra
        n_names = len(tracer.names)
        dur = (end - start).astype(float)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        self_ns = dur - child
        self.count = np.bincount(names, minlength=n_names)
        self.self_ns = np.bincount(names, weights=self_ns, minlength=n_names)
        self.incl_ns = np.bincount(names, weights=dur, minlength=n_names)
        self.layer_self_ns = np.bincount(
            np.asarray(tracer.name_layer)[names], weights=self_ns, minlength=len(LAYERS)
        )
        self._ids = tracer._ids

    def calls(self, *names: str) -> int:
        return int(sum(self.count[self._ids[n]] for n in names if n in self._ids))

    def self_of(self, *names: str) -> float:
        return float(sum(self.self_ns[self._ids[n]] for n in names if n in self._ids))

    def incl_of(self, *names: str) -> float:
        return float(sum(self.incl_ns[self._ids[n]] for n in names if n in self._ids))

    def layer(self, layer: str) -> float:
        return float(self.layer_self_ns[LAYERS.index(layer)])


def layer_names(tracer: Tracer, layer: str) -> list[str]:
    return [n for n in tracer.names if n.split(".", 1)[0] == layer]


def job_metrics(tracer: Tracer, jt: JobTrace) -> tuple[dict, dict]:
    """(counts, times in ns) of one traced job, keyed by per-layer metric name."""
    counts = {
        "spectra.f_evals": jt.calls("spectra.big_f"),
        "spectra.moment_evals": jt.calls("spectra.psi_derivatives"),
        "spectra.solve_calls": jt.calls("spectra.solve_s_plus", "spectra.solve_s_minus"),
        "numerics.bisect_calls": jt.calls("numerics.bisect_for_value"),
        "numerics.bisect_evals": jt.extra["bisect_evals"],
        "numerics.unconverged": jt.extra["unconverged"],
        "rates.curve_calls": jt.calls(
            "rates.direct_yield", "rates.converse_yield",
            "rates.fidelity_direct_yield", "rates.fidelity_converse_yield",
        ),
        "rates.r_prime_calls": jt.calls("rates.r_prime"),
        "rates.inverse_calls": jt.calls("rates.inverse_direct", "rates.inverse_converse"),
        "method_of_types.types": jt.extra["types"],
        "iid.grouped_calls": jt.calls("iid.grouped_spectrum"),
        "iid.groups": jt.extra["groups"],
        "finite.calls": jt.calls(*layer_names(tracer, "finite")),
        "fidelity.calls": jt.calls(*layer_names(tracer, "fidelity")),
        "cli.calls": jt.calls("cli.main"),
        "harness.bytes_out": jt.extra["bytes_out"],
        "trace.spans": int(jt.names.size),
    }
    times = {
        "spectra.self_ms": jt.layer("spectra"),
        "numerics.self_ms": jt.layer("numerics"),
        "rates.self_ms": jt.layer("rates"),
        "rates.r_prime_ms": jt.incl_of("rates.r_prime"),
        "rates.inverse_ms": jt.incl_of("rates.inverse_direct", "rates.inverse_converse"),
        "method_of_types.self_ms": jt.layer("method_of_types"),
        "iid.grouped_ms": jt.self_of("iid.grouped_spectrum"),
        "iid.scan_ms": jt.self_of("iid.exact_success_prob"),
        "finite.self_ms": jt.layer("finite"),
        "fidelity.self_ms": jt.layer("fidelity"),
        "cli.self_ms": jt.layer("cli"),
        "harness.serialize_ms": jt.layer("serialize"),
        "harness.self_ms": jt.layer("harness"),
    }
    return counts, times
