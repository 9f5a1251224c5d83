"""Source-level checks: the package needs numpy alone (scipy is neither loaded
nor imported), and every domain error it defines is raised somewhere."""

import ast
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
