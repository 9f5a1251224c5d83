"""Experiment records: serialization contracts, determinism, check suite."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from concentrate import (
    ExperimentConfig,
    ExperimentRecord,
    RateOutOfRangeError,
    inverse_direct,
    new_spectrum,
    run_check_suite,
    run_convergence,
    run_nonadditivity,
    fidelity_converse_yield,
    fidelity_direct_yield,
    run_sweep,
    shannon_entropy,
)
from concentrate import cli, harness, iid, rates, spectra
from concentrate.harness import DEFAULT_CONVERGENCE_TOL

P34 = new_spectrum([0.75, 0.25])


def test_csv_formatting_contract():
    record = ExperimentRecord(
        meta={},
        rows=[{"a": 1, "b": 1.0 / 3.0, "c": None, "d": True}],
    )
    text = record.to_csv_text()
    lines = text.split("\n")
    assert lines[0] == "a,b,c,d"
    assert lines[1] == "1,0.33333333333333331,,true"
    assert text.endswith("\n") and "\r" not in text


@pytest.mark.parametrize("value,cell,parsed", [
    (1.0 / 3.0, "0.33333333333333331", 1.0 / 3.0),
    (-0.0, "-0", -0.0),
    (math.inf, "inf", ValueError),
    (-12, "-12", -12),
    (True, "true", True),
    (False, "false", False),
    ("interior", "interior", "interior"),
    (None, "", None),
    (np.float64(0.1), "0.10000000000000001", 0.1),
    (np.float32(0.1), "0.10000000149011612", 0.10000000149011612),
    (np.int64(-7), "-7", -7),
    (np.bool_(True), "true", True),
    (np.bool_(False), "false", False),
    (np.str_("linear"), "linear", "linear"),
    (Fraction(1, 3), "1/3", TypeError),
], ids=["float", "negative-zero", "inf", "int", "true", "false", "str", "none",
        "np.float64", "np.float32", "np.int64", "np.bool_-true", "np.bool_-false", "np.str_",
        "other"])
def test_cell_type_contract(value, cell, parsed):
    # numpy scalars serialize as the Python value they hold, in both formats
    record = ExperimentRecord(meta={}, rows=[{"a": value}])
    assert record.to_csv_text() == f"a\n{cell}\n"
    if isinstance(parsed, type):
        with pytest.raises(parsed):
            record.to_json_text()
        return
    got = json.loads(record.to_json_text())["rows"][0]["a"]
    assert type(got) is type(parsed) and got == parsed
    if isinstance(parsed, float):
        assert math.copysign(1.0, got) == math.copysign(1.0, parsed)


def _old_csv_cell(value) -> str:
    """The CSV cell formatter before exact-type dispatch: the oracle."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _old_native(value):
    """The row normalizer before exact-type dispatch: the oracle."""
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _old_texts(record):
    columns = list(record.rows[0])
    lines = [",".join(columns)]
    for row in record.rows:
        lines.append(",".join(_old_csv_cell(row.get(c)) for c in columns))
    payload = {"meta": record.meta, "rows": record.rows}
    return "\n".join(lines) + "\n", json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _sweep_config(d):
    rng = np.random.default_rng(d)
    p = new_spectrum(rng.dirichlet(np.ones(d)) + 1e-3, renormalize=True)
    top = 1.2 * max(p.min_entropy, spectra.divergence_from_uniform(p))
    return ExperimentConfig(spectrum=p, r_grid=tuple(np.linspace(0.01, top, 12)))


P631 = new_spectrum([0.6, 0.3, 0.1])
HARNESS_RUNS = {
    "sweep-d2": (run_sweep, _sweep_config(2)),
    "sweep-d16": (run_sweep, _sweep_config(16)),
    "sweep-d1024": (run_sweep, _sweep_config(1024)),
    "converge-direct": (run_convergence,
                        ExperimentConfig(spectrum=P631, rate=1.0, n_list=(2, 50, 200))),
    "converge-converse": (run_convergence,
                          ExperimentConfig(spectrum=P631, rate=1.45, n_list=(2, 50, 200))),
    # past 52 bits the size is 2**(n R) unrounded; at n = 60 it lies 6e-13 bits above
    # 1 / p_1**60, inside the tie allowance, so P = 1 and the exponent is undefined
    "converge-undefined-exponent": (run_convergence, ExperimentConfig(
        spectrum=new_spectrum([0.5, 0.3, 0.2]), rate=1.0 + 1e-14, n_list=(2, 60))),
    "nonadd": (run_nonadditivity,
               ExperimentConfig(spectrum=P631, sigma=new_spectrum([0.7, 0.3]), r=0.4)),
    "check": (run_check_suite, ExperimentConfig(seed=3)),
}


@pytest.mark.parametrize("name", HARNESS_RUNS)
def test_harness_records_serialize_as_before(name, monkeypatch):
    run, cfg = HARNESS_RUNS[name]
    record = run(cfg)
    with monkeypatch.context() as m:
        m.setattr(harness, "_row", lambda **kw: {k: _old_native(v) for k, v in kw.items()})
        before = _old_texts(run(cfg))
    assert (record.to_csv_text(), record.to_json_text()) == before
    for key in ("spectrum", "sigma"):
        q = getattr(cfg, key)
        if q is not None:
            floats = [float(x) for x in q.probs]
            assert record.meta[key] == floats
            assert all(type(x) is float for x in record.meta[key])
    if name == "converge-undefined-exponent":
        assert record.rows[-1]["exponent"] is None


@pytest.mark.parametrize("argv", [
    ["info", "--spectrum", "0.5,0.3,0.2"],
    ["finite", "--spectrum", "0.5,0.3,0.2", "--size", "2"],
    ["finite", "--spectrum", "0.5,0.5", "--size", "2"],
    ["fidelity", "--verify", "construction", "--spectrum", "0.4,0.3,0.2,0.1",
     "--target-size", "4"],
    ["fidelity", "--verify", "bound", "--spectrum", "0.4,0.3,0.2,0.1", "--target-size", "3"],
], ids=lambda argv: "-".join(argv[:3:2]))
def test_cli_records_serialize_as_before(argv):
    args = cli.PARSER.parse_args(argv)
    record = args.run(args)
    assert (record.to_csv_text(), record.to_json_text()) == _old_texts(record)


def test_csv_floats_round_trip():
    value = math.pi / 7
    record = ExperimentRecord(meta={}, rows=[{"x": value}])
    cell = record.to_csv_text().split("\n")[1]
    assert float(cell) == value


def test_json_and_csv_carry_identical_values():
    cfg = ExperimentConfig(spectrum=P34, r_grid=tuple(np.linspace(0.02, 0.5, 9)))
    record = run_sweep(cfg)
    payload = json.loads(record.to_json_text())
    csv_lines = record.to_csv_text().strip().split("\n")
    header = csv_lines[0].split(",")
    assert payload["meta"]["spectrum"] == [0.75, 0.25]
    for row, line in zip(payload["rows"], csv_lines[1:]):
        for key, cell in zip(header, line.split(",")):
            if row[key] is None:
                assert cell == ""
            elif isinstance(row[key], float):
                assert float(cell) == row[key]
            else:
                assert str(row[key]) in (cell, cell.replace("true", "True"))


def test_sweep_rows_shape():
    grid = tuple(np.linspace(0.01, 0.6, 25))
    record = run_sweep(ExperimentConfig(spectrum=P34, r_grid=grid))
    assert len(record.rows) == 25
    direct = [row["direct"] for row in record.rows]
    converse = [row["converse"] for row in record.rows]
    assert all(b <= a + 1e-12 for a, b in zip(direct, direct[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(converse, converse[1:]))
    regimes = {row["direct_regime"] for row in record.rows}
    assert regimes == {"interior", "saturated-high"}
    assert {row["converse_regime"] for row in record.rows} == {
        "interior",
        "saturated-low",
    }
    fc_regimes = {row["fidelity_converse_regime"] for row in record.rows}
    assert fc_regimes == {"interior", "linear"}  # kink inside the grid
    fc = [row["fidelity_converse"] for row in record.rows]
    ec = [row["converse"] for row in record.rows]
    assert all(f >= e - 1e-12 for f, e in zip(fc, ec))
    assert record.meta["r_prime"] == pytest.approx(0.0476027058, abs=1e-6)


def test_sweep_solves_s_plus_once_per_point(monkeypatch):
    # one batched solve per branch covers every point once; the fidelity
    # columns reuse the row's direct and converse points
    p = new_spectrum([0.5, 0.3, 0.15, 0.05])
    grid = tuple(np.linspace(0.01, 3.0, 25))
    calls = []
    solve = rates.solve_tilts

    def counting(spectrum, targets, equation):
        calls.append((equation, list(targets)))
        return solve(spectrum, targets, equation)

    monkeypatch.setattr(rates, "solve_tilts", counting)
    record = run_sweep(ExperimentConfig(spectrum=p, r_grid=grid))
    assert sorted(calls) == [("s_minus", list(grid)), ("s_plus", list(grid))]
    monkeypatch.undo()
    for row in record.rows:
        assert row["fidelity_direct"] == fidelity_direct_yield(p, row["r"]).yield_bits
        fc = fidelity_converse_yield(p, row["r"])
        assert (row["fidelity_converse"], row["fidelity_converse_regime"]) == (
            fc.yield_bits,
            fc.regime,
        )


def test_sweep_evaluates_half_tilt_once(monkeypatch):
    # r' = F(1/2) and the line r + H_{1/2} past it come from one kernel pass
    # at s = 1/2 per sweep, however many rows lie past r'
    p = new_spectrum([0.5, 0.3, 0.15, 0.05])
    grid = tuple(np.linspace(0.01, 3.0, 25))
    halves = []
    family = spectra._family

    def counting(spectrum, tilts):
        halves.extend(s for s in tilts if s == 0.5)
        return family(spectrum, tilts)

    monkeypatch.setattr(spectra, "_family", counting)
    record = run_sweep(ExperimentConfig(spectrum=p, r_grid=grid))
    assert halves == [0.5]
    assert sum(row["fidelity_converse_regime"] == "linear" for row in record.rows) > 10


def test_sweep_flat_spectrum_constant_curves():
    flat = new_spectrum([0.5, 0.5])
    record = run_sweep(ExperimentConfig(spectrum=flat, r_grid=(0.1, 0.2, 0.4)))
    for row in record.rows:
        assert row["direct"] == row["converse"] == 1.0
        assert row["fidelity_direct"] == 1.0
        # the fidelity-converse curve is never constant: with saturation
        # at r = 0 it is the line r + log2 d from the start
        assert row["fidelity_converse"] == pytest.approx(row["r"] + 1.0, abs=1e-12)
    assert record.meta["r_prime_degenerate"]


def test_convergence_record_direct():
    cfg = ExperimentConfig(spectrum=P34, rate=0.6, n_list=(50, 100, 200))
    record = run_convergence(cfg)
    assert record.meta["regime"] == "direct"
    assert record.meta["predicted_exponent"] == pytest.approx(
        inverse_direct(P34, 0.6), abs=1e-12
    )
    residuals = [abs(row["residual"]) for row in record.rows]
    assert residuals[-1] < residuals[0]
    for row in record.rows:
        assert row["finite_size_allowance"] == pytest.approx(
            2 * math.log2(row["n"] + 1) / row["n"], abs=1e-12
        )


@pytest.mark.parametrize("regime", ["direct", "converse"])
def test_convergence_three_symbols_reaches_n_2000(regime):
    # about 2M types at n = 2000; the residual shrinks at every step and
    # ends within the default tolerance
    p = new_spectrum([0.6, 0.3, 0.1])
    entropy = shannon_entropy(p)
    if regime == "direct":
        rate = 0.5 * (-math.log2(0.6) + entropy)
    else:
        rate = 0.5 * (entropy + math.log2(3))
    cfg = ExperimentConfig(spectrum=p, rate=rate, n_list=(100, 400, 1000, 2000))
    record = run_convergence(cfg)
    assert record.meta["regime"] == regime
    residuals = [abs(row["residual"]) for row in record.rows]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] <= DEFAULT_CONVERGENCE_TOL


def test_convergence_rejects_out_of_regime_rate():
    with pytest.raises(RateOutOfRangeError):
        run_convergence(ExperimentConfig(spectrum=P34, rate=0.3, n_list=(10, 20)))


def test_convergence_requires_increasing_n():
    with pytest.raises(ValueError):
        run_convergence(ExperimentConfig(spectrum=P34, rate=0.6, n_list=(20, 10)))


@pytest.mark.parametrize("run,needs", [
    (run_sweep, "sweep needs a spectrum and a non-empty r grid"),
    (run_convergence, "convergence needs spectrum, rate, and n_list"),
    (run_nonadditivity, "nonadditivity needs a spectrum and an exponent r"),
])
def test_experiment_refuses_a_config_without_its_fields(run, needs):
    for cfg in (ExperimentConfig(), ExperimentConfig(spectrum=P34)):
        with pytest.raises(ValueError, match=needs):
            run(cfg)


def test_nonadditivity_record():
    record = run_nonadditivity(ExperimentConfig(spectrum=P34, r=0.2))
    row = record.rows[0]
    assert row["passed"]
    assert row["e_joint"] > 2 * row["e_rho"]


def test_check_suite_all_pass_default_seed():
    record = run_check_suite(ExperimentConfig(seed=20240501))
    failures = [row for row in record.rows if not row["passed"]]
    assert failures == []
    assert record.all_passed


def test_check_suite_seed_sweep():
    for seed in range(10):
        record = run_check_suite(ExperimentConfig(seed=seed))
        assert record.all_passed, (
            seed,
            [r for r in record.rows if not r["passed"]],
        )


def test_check_suite_corrupted_tolerance_fails():
    record = run_check_suite(ExperimentConfig(seed=20240501, tolerance=-1.0))
    assert not record.all_passed


def test_check_suite_deterministic_text():
    a = run_check_suite(ExperimentConfig(seed=5)).to_csv_text()
    b = run_check_suite(ExperimentConfig(seed=5)).to_csv_text()
    assert a == b



def test_run_convergence_solves_one_tilt_per_converse_job(monkeypatch):
    # the predicted exponent and every n's band ceiling read one converse_rate
    # point; a direct job solves its own equation once and no converse one
    calls = []
    solve = spectra.solve_tilts

    def counting(*args):
        calls.append(args[1:])
        return solve(*args)

    for module in (harness, iid, rates):
        monkeypatch.setattr(module, "solve_tilts", counting)
    run_convergence(ExperimentConfig(spectrum=P631, rate=1.45, n_list=(2, 50, 200)))
    assert calls == [([1.45], "converse_rate")]
    calls.clear()
    run_convergence(ExperimentConfig(spectrum=P631, rate=1.0, n_list=(2, 50, 200)))
    assert calls == [([1.0], "direct_rate")]
