"""Experiment records: serialization contracts, determinism, check suite."""

import json
import math

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
    run_sweep,
    shannon_entropy,
)
from concentrate.harness import DEFAULT_CONVERGENCE_TOL

P34 = new_spectrum([0.75, 0.25])


def test_csv_formatting_contract():
    record = ExperimentRecord(
        meta={},
        columns=["a", "b", "c", "d"],
        rows=[{"a": 1, "b": 1.0 / 3.0, "c": None, "d": True}],
    )
    text = record.to_csv_text()
    lines = text.split("\n")
    assert lines[0] == "a,b,c,d"
    assert lines[1] == "1,0.33333333333333331,,true"
    assert text.endswith("\n") and "\r" not in text


def test_csv_floats_round_trip():
    value = math.pi / 7
    record = ExperimentRecord(meta={}, columns=["x"], rows=[{"x": value}])
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

