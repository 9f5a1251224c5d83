"""Source-level checks: the package needs numpy alone (scipy is neither loaded
nor imported), every domain error it defines is raised somewhere, the
simplex-grid oracle stays independent of the tilted family, only spectra
names the tilted-family kernel, and ties are decided by one rule, in one
place: n-copy types that share a value are left to the threshold search.
The n-copy path builds no counts matrix, one walk builds the type lattice,
the counts route and every mpmath reference live in tests/reference.py
alone, the lattice builder and the breakpoint search call no numpy wrapper
where a ufunc or array method does, and the check suite judges its
residuals in one place."""

import ast
import inspect
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_cli_import_loads_no_scipy():
    code = (
        "import concentrate.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module.split(".")[0]


def test_no_source_or_test_imports_scipy():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 10
    offenders = [str(f.relative_to(ROOT)) for f in files if "scipy" in _imported_roots(f)]
    assert offenders == []


def _raised_names(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_concentration_error_is_raised_in_src():
    errors = {"ConcentrationError"}
    source = (ROOT / "src" / "concentrate" / "errors.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in errors for base in node.bases
        ):
            errors.add(node.name)
    errors.remove("ConcentrationError")
    assert len(errors) > 10
    raised = {name for f in (ROOT / "src").rglob("*.py") for name in _raised_names(f)}
    assert sorted(errors - raised) == []


def _names(tree):
    """Every identifier under tree: bare names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_only_spectra_names_the_kernel():
    # every other module reads the kernel's rows through solve_tilts or tilted_point
    files = sorted((ROOT / "src").rglob("*.py"))
    assert len(files) > 10
    offenders = [
        str(f.relative_to(ROOT)) for f in files
        if f.name != "spectra.py" and "_family" in set(_names(ast.parse(f.read_text())))
    ]
    assert offenders == []


TILTED_FAMILY = {
    "_family", "solve_tilts", "psi", "f_value", "tilted", "tilted_point",
    "direct_curve", "converse_curve",
}


def test_grid_oracle_names_nothing_of_the_tilted_family():
    tree = ast.parse((ROOT / "src" / "concentrate" / "rates.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    # brute_force_curves and every rates.py function it reaches, transitively
    reached, todo, names = set(), ["brute_force_curves"], set()
    while todo:
        name = todo.pop()
        reached.add(name)
        names.update(_names(functions[name]))
        todo += sorted((names & functions.keys()) - reached)
    assert {"_grid_curves", "_last_true"} <= reached
    assert sorted(names & TILTED_FAMILY) == []


def _module_constants(path):
    """Names assigned a numeric literal at module level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def _function(module, name):
    tree = ast.parse((ROOT / "src" / "concentrate" / f"{module}.py").read_text())
    return next(n for n in tree.body if getattr(n, "name", "") == name)


def test_one_tie_rule_in_p_and_one_log2_allowance():
    # ties are decided once, in new_spectrum (p-space), and once in log2
    # space, by the threshold search's allowance: n-copy types that share a
    # value are not merged, the search settles them at the threshold, and
    # the deterministic size floors 1/p_1 with that same allowance
    found = sorted(
        f"{f.stem}.{name}" for f in (ROOT / "src").rglob("*.py")
        for name in _module_constants(f)
        if any(word in name for word in ("TIE", "SNAP", "MERGE", "FLOOR"))
    )
    assert found == ["finite.TIE_BITS", "spectra.SNAP_TOL"]
    iid_names = set(_names(ast.parse((ROOT / "src" / "concentrate" / "iid.py").read_text())))
    assert sorted(iid_names & {"TIE_BITS", "reduceat"}) == []
    naming = sorted(f.stem for f in (ROOT / "src").rglob("*.py")
                    if "TIE_BITS" in set(_names(ast.parse(f.read_text()))))
    assert naming == ["finite"]
    finite = ast.parse((ROOT / "src" / "concentrate" / "finite.py").read_text())
    readers = sorted(n.name for n in finite.body if isinstance(n, ast.FunctionDef)
                     and "TIE_BITS" in set(_names(n)))
    assert readers == ["_first_hit", "deterministic_yield"]
    numerics = ast.parse((ROOT / "src" / "concentrate" / "numerics.py").read_text())
    assert "tolerant_floor" not in {n.name for n in numerics.body
                                    if isinstance(n, ast.FunctionDef)}
    # inverse_direct reads the top multiplicity; it counts no ties itself
    inverse = _function("rates", "inverse_direct")
    assert "mults" in set(_names(inverse))
    assert not [n for n in ast.walk(inverse) if isinstance(n, ast.Constant) and n.value == 1e-12]


def test_groups_are_found_once_in_new_spectrum():
    # new_spectrum stores the groups; no other code looks for ties in p
    spectrum = _function("spectra", "SchmidtSpectrum")
    methods = {n.name for n in spectrum.body if isinstance(n, ast.FunctionDef)}
    assert "starts" not in methods and "mults" in methods
    # searchsorted is named nowhere: the breakpoint search counts the groups
    # it admits by one comparison, on either side of the top
    named = {
        f.stem: hits for f in sorted((ROOT / "src").rglob("*.py"))
        if (hits := list(_names(ast.parse(f.read_text()))).count("searchsorted"))
    }
    assert named == {}
    assert "count_nonzero" in set(_names(_function("finite", "_breakpoint_search")))
    assert "starts" in set(_names(_function("fidelity", "verify_recovery_bound")))


#: the counts route, which lives in tests/reference.py alone
ROW_FUNCTIONS = ("log_sequence_prob", "log_type_class_size", "log_type_class_prob")


def _src_mentions(words):
    """The words named anywhere in a file under src/, as file stem: word."""
    return sorted(f"{f.stem}: {word}" for f in (ROOT / "src").rglob("*.py")
                  for word in words if word in f.read_text())


def test_n_copy_path_builds_no_counts_matrix():
    # iid reads the lattice from lattice_logs alone, no file under src/
    # names a row function, and the breakpoint search has one size
    # constant, its block
    names = set(_names(ast.parse((ROOT / "src" / "concentrate" / "iid.py").read_text())))
    assert "lattice_logs" in names and "type_matrix" not in names
    assert _src_mentions(ROW_FUNCTIONS) == []
    constants = {f"{f.stem}.{name}" for f in (ROOT / "src").rglob("*.py")
                 for name in _module_constants(f)}
    assert "finite.BLOCK" in constants
    assert not [c for c in constants if c.endswith("FIRST_CHUNK")]


def test_one_lattice_walk():
    # type_matrix and lattice_logs read the lattice from one walker, which
    # alone checks n, d and the guard; the type checks run lattice_logs
    tree = ast.parse((ROOT / "src" / "concentrate" / "method_of_types.py").read_text())
    assert list(_names(tree)).count("cumsum") == 1
    assert "cumsum" in set(_names(_function("method_of_types", "_walk")))
    for consumer in ("type_matrix", "lattice_logs"):
        assert "_walk" in set(_names(_function("method_of_types", consumer))), consumer
    raised = [name for f in (ROOT / "src").rglob("*.py") for name in _raised_names(f)]
    assert raised.count("TooManyTypesError") == 1
    grouped = _function("iid", "grouped_spectrum")
    assert not [node for node in ast.walk(grouped) if isinstance(node, ast.Raise)]
    for check in ("_check_type_sandwiches", "_check_type_completeness"):
        assert "lattice_logs" in set(_names(_function("harness", check))), check
    # the counts route is a test reference, not a second way in src/
    assert _src_mentions(ROW_FUNCTIONS + ("_as_counts", "_one_or_many")) == []


#: numpy's Python-level wrappers, left out of the n-copy path's hot loops for
#: the ufuncs and array methods they call
NUMPY_WRAPPERS = {"clip", "append", "repeat", "take"}


def _numpy_wrapper_calls(tree, wrappers=NUMPY_WRAPPERS):
    return sorted(node.func.attr for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr in wrappers
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "np")


def test_lattice_and_search_call_no_numpy_wrappers():
    # the lattice builder and the breakpoint search, run on every n-copy
    # call, call np.minimum/np.maximum, arr.repeat, arr.take and
    # np.concatenate, not the wrappers that dispatch to them
    tree = ast.parse((ROOT / "src" / "concentrate" / "method_of_types.py").read_text())
    assert _numpy_wrapper_calls(tree) == []
    for helper in ("_chain", "_block_logsums", "_first_hit", "_breakpoint_search"):
        assert _numpy_wrapper_calls(_function("finite", helper)) == [], helper
    # the check sees a wrapper call
    assert _numpy_wrapper_calls(ast.parse("np.take(a, i) + np.repeat(b, 2)")) == ["repeat", "take"]


def test_per_query_spectrum_path_calls_no_numpy_wrappers():
    # every CLI query reads its spectrum through new_spectrum, and every
    # fidelity --verify bound query scans its groups: array methods and
    # np.concatenate there, where np.any and np.all are wrappers too
    wrappers = NUMPY_WRAPPERS | {"any", "all"}
    for module, name in (("spectra", "_as_prob_vector"), ("spectra", "new_spectrum"),
                         ("fidelity", "verify_recovery_bound")):
        assert _numpy_wrapper_calls(_function(module, name), wrappers) == [], name
    assert _numpy_wrapper_calls(ast.parse("np.any(a) or np.all(b)"), wrappers) == ["all", "any"]


def _assigned_attributes(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Attribute):
                    yield target.attr


def test_one_module_holds_the_mpmath_references():
    # every high-precision reference is written once, in tests/reference.py,
    # and runs under its own workdps: no test sets the process-wide
    # precision, which another module (perfbench's checks) may set at import
    files = sorted((ROOT / "tests").rglob("*.py"))
    importing = [f.name for f in files if "mpmath" in _imported_roots(f)]
    assert importing == ["reference.py"]
    setting = [f.name for f in files if {"dps", "prec"} & set(_assigned_attributes(f))]
    assert setting == []


def test_check_suite_judges_once():
    # every check is a generator of residuals that reads only its rng; the
    # suite alone reduces them and compares against a tolerance
    from concentrate import harness

    for name, check, _ in harness.CHECKS:
        assert inspect.isgeneratorfunction(check), name
        assert list(inspect.signature(check).parameters) == ["rng"], name
    tree = ast.parse((ROOT / "src" / "concentrate" / "harness.py").read_text())
    judging = sorted(
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                and "tol" in set(_names(compare))
                for compare in ast.walk(node) if isinstance(compare, ast.Compare)
                for op in compare.ops)
    )
    # run_convergence judges its rows against the convergence window instead
    assert judging == ["run_check_suite", "run_convergence"]
    assert not hasattr(harness.ExperimentRecord, "write")
    left = sorted(
        str(f.relative_to(ROOT)) for f in (ROOT / "src").rglob("*.py")
        if {"Saturated", "SATURATED"} & set(_names(ast.parse(f.read_text())))
    )
    assert left == []
