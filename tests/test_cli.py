"""CLI surface: flag parsing, outputs, and exit codes."""

import argparse
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from concentrate import cli, new_spectrum, tilted_point
from concentrate.cli import main, _parse_n_list, _parse_r_grid

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_n_list_forms():
    assert _parse_n_list("100,200,500") == (100, 200, 500)
    assert _parse_n_list("10..50..20") == (10, 30, 50)
    with pytest.raises(ValueError):
        _parse_n_list("10..50")
    with pytest.raises(ValueError, match="step must be >= 1"):
        _parse_n_list("10..50..0")


def test_parse_r_grid():
    grid = _parse_r_grid("0.1:0.5:5")
    assert len(grid) == 5
    assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(0.5)
    assert grid == tuple(float(x) for x in np.linspace(0.1, 0.5, 5))
    assert all(type(x) is float for x in grid)
    with pytest.raises(ValueError, match="steps must be >= 1"):
        _parse_r_grid("0.1:0.5:0")


def test_info_command(capsys):
    code, out, _ = run_cli(capsys, "info", "--spectrum", "0.75,0.25")
    assert code == 0
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["dim"] == "2"
    assert float(cells["entropy_bits"]) == pytest.approx(0.8112781244591328)
    assert float(cells["deterministic_exponent_bits"]) == pytest.approx(
        0.4150374992788438
    )
    assert float(cells["uniform_divergence_bits"]) == pytest.approx(
        0.2075187496394219
    )
    assert cells["deterministic_size"] == "1"


def test_info_and_finite_agree_on_the_deterministic_size(capsys):
    # 1/p_1 sits 4.5e-12 below 9, inside the search's 1e-12-bit allowance:
    # size 9 is reached with certainty, and info says so
    top = (1.0 + 5e-13) / 9.0
    spectrum = ",".join(repr(x) for x in [top] + [(1.0 - top) / 11.0] * 11)
    _, out, _ = run_cli(capsys, "info", "--spectrum", spectrum)
    header, row = out.strip().split("\n")
    assert dict(zip(header.split(","), row.split(",")))["deterministic_size"] == "9"
    _, out, _ = run_cli(capsys, "finite", "--spectrum", spectrum, "--size", "9")
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["cut_index"], cells["success_prob"], cells["failure_prob"]) == ("1", "1", "0")


def test_finite_command(capsys):
    code, out, _ = run_cli(
        capsys, "finite", "--spectrum", "0.5,0.3,0.2", "--size", "3"
    )
    assert code == 0
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["success_prob"]) == pytest.approx(0.6)
    assert float(cells["threshold"]) == pytest.approx(0.2)
    assert cells["cut_index"] == "3"


def test_yield_command_saturated(capsys):
    code, out, _ = run_cli(
        capsys,
        "yield", "--spectrum", "0.75,0.25", "--r", "1.0", "--kind", "direct",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["yield_bits"] == pytest.approx(0.4150374992788438)
    assert row["regime"] == "saturated-high"


def test_yield_all_kinds(capsys):
    for kind in ("direct", "converse", "fidelity-direct", "fidelity-converse"):
        code, out, _ = run_cli(
            capsys,
            "yield", "--spectrum", "0.75,0.25", "--r", "0.1", "--kind", kind,
        )
        assert code == 0 and "yield_bits" in out


def test_near_flat_spectrum_fidelity_converse(capsys):
    # p_1 - p_2 = 2e-9: not flagged uniform, yet D(u||p) rounds to zero
    code, out, _ = run_cli(
        capsys,
        "yield", "--spectrum", "0.500000001,0.499999999", "--r", "0.01",
        "--kind", "fidelity-converse", "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    p = new_spectrum([0.500000001, 0.499999999])
    assert row["yield_bits"] == 0.01 + 2.0 * tilted_point(p, 0.5).psi
    assert row["regime"] == "linear"


def test_spectrum_file_input(tmp_path, capsys):
    path = tmp_path / "spec.txt"
    path.write_text("# test spectrum\n0.75\n0.25  # tail\n\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "info", "--spectrum-file", str(path))
    assert code == 0 and "0.81127812" in out


def test_renormalize_flag(capsys):
    code, _, err = run_cli(capsys, "info", "--spectrum", "3,1")
    assert code == 1 and "error" in err
    code, out, _ = run_cli(capsys, "info", "--spectrum", "3,1", "--renormalize")
    assert code == 0 and "0.81127812" in out


def test_domain_error_json_payload(capsys):
    code, out, err = run_cli(
        capsys,
        "yield", "--spectrum", "0.75,0.25", "--r", "-1", "--format", "json",
    )
    assert code == 1
    assert "error" in err
    payload = json.loads(out)
    assert payload["error"]["type"] == "NonPositiveExponentError"


@pytest.mark.parametrize("r", ["inf", "nan"])
@pytest.mark.parametrize(
    "kind", ["direct", "converse", "fidelity-direct", "fidelity-converse"]
)
def test_non_finite_exponent_is_typed_error(capsys, kind, r):
    code, out, err = run_cli(
        capsys,
        "yield", "--spectrum", "0.6,0.4", "--r", r, "--kind", kind,
        "--format", "json",
    )
    assert code == 1
    assert "finite" in err
    assert json.loads(out)["error"]["type"] == "NonPositiveExponentError"


D1_COMMANDS = [
    ["info"],
    *(["yield", "--r", "0.3", "--kind", kind]
      for kind in ("direct", "converse", "fidelity-direct", "fidelity-converse")),
    ["sweep", "--r-grid", "0.01:1.5:7"],
    ["nonadd", "--r", "0.2"],
    ["nonadd", "--sigma", "0.6,0.4", "--r", "0.2"],
]


def _negative_zeros(value):
    if isinstance(value, dict):
        return sum(_negative_zeros(v) for v in value.values())
    if isinstance(value, list):
        return sum(_negative_zeros(v) for v in value)
    return int(isinstance(value, float) and value == 0.0 and math.copysign(1.0, value) < 0)


@pytest.mark.parametrize("argv", D1_COMMANDS, ids=" ".join)
def test_product_state_prints_no_negative_zero(capsys, argv):
    code, out, _ = run_cli(capsys, argv[0], "--spectrum", "1", *argv[1:])
    assert code == 0
    cells = [c for line in out.splitlines() for c in line.split(",")]
    assert "-0" not in cells and "-0.0" not in cells
    code, out, _ = run_cli(capsys, argv[0], "--spectrum", "1", *argv[1:], "--format", "json")
    assert code == 0
    assert _negative_zeros(json.loads(out)) == 0


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["yield", "--spectrum", "0.75,0.25"])  # missing --r
    assert exc.value.code == 2


def test_malformed_values_exit_2(capsys):
    for argv in (
        ["converge", "--spectrum", "0.75,0.25", "--rate", "0.6", "--n-list", "10..50"],
        ["info", "--spectrum", "zero,one"],
        ["info", "--spectrum-file", "/nonexistent/spec.txt"],
        ["sweep", "--spectrum", "0.75,0.25", "--r-grid", "0.1-0.5-5"],
        ["converge", "--spectrum", "0.75,0.25", "--rate", "0.6", "--n-list", "10..50..0"],
        ["sweep", "--spectrum", "0.75,0.25", "--r-grid", "0.1:0.5:0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_converge_zero_copies_is_usage_error(capsys):
    assert _exits_2(["converge", "--spectrum", "0.75,0.25", "--rate", "0.6",
                     "--n-list", "0,5"])
    assert "need n >= 1, got 0" in capsys.readouterr().err


def test_converge_type_guard_flag(capsys):
    code, _, err = run_cli(
        capsys,
        "converge", "--spectrum", "0.5,0.3,0.2", "--rate", "1.2",
        "--n-list", "200", "--max-types", "100",
    )
    assert code == 1 and "guard" in err


def test_converge_out_of_regime_rate(capsys):
    code, _, err = run_cli(
        capsys,
        "converge", "--spectrum", "0.75,0.25", "--rate", "0.3",
        "--n-list", "10,20",
    )
    assert code == 1 and "error" in err


def test_sweep_to_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--spectrum", "0.75,0.25", "--r-grid", "0.01:0.5:20",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    lines = out_path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].startswith("r,direct,converse")
    assert len(lines) == 21


def test_nonadd_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "nonadd", "--spectrum", "0.75,0.25", "--sigma", "0.6,0.4", "--r", "0.2",
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["superadditive_ok"] and row["half_identity_ok"]


def test_fidelity_modes(capsys):
    code, out, _ = run_cli(
        capsys,
        "fidelity", "--prob", "0.5", "--size", "2", "--target-size", "4",
    )
    assert code == 0 and "0.25" in out
    code, out, _ = run_cli(
        capsys, "fidelity", "--eps", "0.01", "--target-size", "100",
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["output_size"] == 15 and row["output_quality_bound"] == 0.94
    code, out, _ = run_cli(
        capsys, "fidelity", "--fid", "1.0", "--target-size", "100",
    )
    assert code == 0 and "1.95" in out
    code, out, _ = run_cli(
        capsys,
        "fidelity", "--verify", "construction", "--spectrum", "0.3,0.25,0.25,0.2",
        "--target-size", "4", "--format", "json",
    )
    assert code == 0 and json.loads(out)["rows"][0]["passed"]
    code, out, _ = run_cli(
        capsys,
        "fidelity", "--verify", "bound", "--spectrum", "0.5,0.3,0.2",
        "--target-size", "3", "--format", "json",
    )
    assert code == 0 and json.loads(out)["rows"][0]["passed"]


def test_check_command_and_corrupted_tolerance(tmp_path, capsys):
    out_path = tmp_path / "check.csv"
    code, _, _ = run_cli(
        capsys, "check", "--seed", "7", "--out", str(out_path)
    )
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("check,worst_residual,tolerance,passed")
    assert "false" not in text
    # corrupting the tolerance must flip rows to failure and the exit to 1
    code, out, _ = run_cli(capsys, "check", "--seed", "7", "--tolerance", "-1")
    assert code == 1 and "false" in out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("cmd", ["check", "converge", "nonadd"])
def test_non_finite_tolerance_is_usage_error(capsys, cmd, value):
    # a non-finite tolerance used to reach json.dumps and end in a traceback
    with pytest.raises(SystemExit) as exc:
        main([*BASE_ARGV[cmd], "--tolerance", value, "--format", "json"])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("spectrum", ["0.6,nan", "0.6,inf", "0.6,-inf"])
def test_non_finite_spectrum_entry_is_typed_error(capsys, spectrum, renormalize):
    extra = ["--renormalize"] if renormalize else []
    code, out, err = run_cli(
        capsys, "info", "--spectrum", spectrum, *extra, "--format", "json"
    )
    assert code == 1
    assert "non-finite" in err
    assert json.loads(out)["error"]["type"] == "NonFiniteEntryError"


def _exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code == 2


FIDELITY_MODE_MISTAKES = {
    "spectrum without verify": (["--spectrum", "0.5,0.5"], "--verify"),
    "verify with prob": (["--verify", "bound", "--prob", "0.5", "--size", "2"],
                         "--spectrum"),
    "verify with eps": (["--verify", "bound", "--eps", "0.01"], "--spectrum"),
    "verify with fid": (["--verify", "bound", "--fid", "1.0"], "--spectrum"),
    "prob without size": (["--prob", "0.5"], "--size"),
    "size with eps": (["--eps", "0.01", "--size", "5"], "--size"),
    "size with fid": (["--fid", "1.0", "--size", "7"], "--size"),
    "size with verify": (["--verify", "bound", "--spectrum", "0.5,0.3,0.2", "--size", "9"],
                         "--size"),
    "fid above one": (["--fid", "1.5"], "fidelity must be in (0, 1], got 1.5"),
    "prob zero": (["--prob", "0", "--size", "2"],
                  "success probability must be in (0, 1], got 0.0"),
}


@pytest.mark.parametrize("mode", FIDELITY_MODE_MISTAKES)
def test_fidelity_mode_mistake_is_usage_error(capsys, mode):
    flags, named = FIDELITY_MODE_MISTAKES[mode]
    assert _exits_2(["fidelity", *flags, "--target-size", "4"])
    assert named in capsys.readouterr().err


FIDELITY_SIZE_ERRORS = {
    "prob size zero": (["--prob", "0.5", "--size", "0", "--target-size", "4"],
                       "size must be >= 1, got 0"),
    "bound target one": (["--verify", "bound", "--spectrum", "0.5,0.3,0.2",
                          "--target-size", "1"], "need T >= 2, got 1"),
}


@pytest.mark.parametrize("case", FIDELITY_SIZE_ERRORS)
def test_fidelity_size_out_of_range_is_domain_error(capsys, case):
    flags, message = FIDELITY_SIZE_ERRORS[case]
    code, out, err = run_cli(capsys, "fidelity", *flags, "--format", "json")
    assert code == 1 and message in err
    assert json.loads(out) == {"error": {"type": "SizeOutOfRangeError", "message": message}}


#: a valid call of every subcommand, without the optional shared flags
BASE_ARGV = {
    "info": ["info", "--spectrum", "0.75,0.25"],
    "finite": ["finite", "--spectrum", "0.5,0.3,0.2", "--size", "3"],
    "yield": ["yield", "--spectrum", "0.75,0.25", "--r", "0.1"],
    "sweep": ["sweep", "--spectrum", "0.75,0.25", "--r-grid", "0.01:0.5:3"],
    "converge": ["converge", "--spectrum", "0.75,0.25", "--rate", "0.6",
                 "--n-list", "20,40"],
    "nonadd": ["nonadd", "--spectrum", "0.75,0.25", "--r", "0.2"],
    "fidelity": ["fidelity", "--eps", "0.01", "--target-size", "100"],
    "check": ["check"],
}

#: every flag each subcommand declares (60 in all)
FLAGS = {
    "info": {"--spectrum", "--spectrum-file", "--renormalize", "--format", "--out"},
    "finite": {"--spectrum", "--spectrum-file", "--renormalize", "--format", "--out",
               "--size"},
    "yield": {"--spectrum", "--spectrum-file", "--renormalize", "--format", "--out",
              "--r", "--kind"},
    "sweep": {"--spectrum", "--spectrum-file", "--renormalize", "--format", "--out",
              "--seed", "--r-grid"},
    "converge": {"--spectrum", "--spectrum-file", "--renormalize", "--format", "--out",
                 "--seed", "--tolerance", "--rate", "--n-list", "--max-types"},
    "nonadd": {"--spectrum", "--spectrum-file", "--renormalize", "--format", "--out",
               "--seed", "--tolerance", "--sigma", "--sigma-file", "--r"},
    "fidelity": {"--spectrum", "--spectrum-file", "--renormalize", "--format", "--out",
                 "--prob", "--eps", "--fid", "--size", "--target-size", "--verify"},
    "check": {"--format", "--out", "--seed", "--tolerance"},
}

SHARED_VALUES = {"--seed": "11", "--tolerance": "0.5", "--renormalize": None}
DROPPED = [(cmd, flag) for cmd in ("info", "finite", "yield", "fidelity")
           for flag in ("--seed", "--tolerance")]
DROPPED += [("sweep", "--tolerance"), ("check", "--renormalize")]
KEPT = [(cmd, flag) for cmd, flags in FLAGS.items() for flag in sorted(flags)
        if flag in SHARED_VALUES]


def _with_flag(cmd, flag):
    value = SHARED_VALUES[flag]
    return BASE_ARGV[cmd] + ([flag] if value is None else [flag, value])


def test_each_subcommand_declares_exactly_its_flags():
    subparsers = cli.PARSER._subparsers._group_actions[0].choices
    declared = {
        name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sp in subparsers.items()
    }
    assert declared == FLAGS
    assert sum(len(flags) for flags in declared.values()) == 60


@pytest.mark.parametrize("cmd,flag", DROPPED, ids=[" ".join(c) for c in DROPPED])
def test_dropped_shared_flag_is_usage_error(capsys, cmd, flag):
    assert _exits_2(_with_flag(cmd, flag))
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,flag", KEPT, ids=[" ".join(c) for c in KEPT])
def test_kept_shared_flag_is_accepted(cmd, flag):
    args = cli.PARSER.parse_args(_with_flag(cmd, flag))
    expected = {"--seed": 11, "--tolerance": 0.5, "--renormalize": True}[flag]
    assert getattr(args, flag[2:]) == expected


def test_main_does_not_build_a_parser(monkeypatch, capsys):
    def refuse():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, out, _ = run_cli(capsys, "info", "--spectrum", "0.75,0.25")
    assert code == 0 and "0.81127812" in out


#: every valid call of the flag tests: BASE_ARGV, and each with a kept shared flag
VALID_ARGV = [*BASE_ARGV.values(), *(_with_flag(cmd, flag) for cmd, flag in KEPT)]


@pytest.mark.parametrize("argv", VALID_ARGV, ids=[" ".join(a) for a in VALID_ARGV])
def test_one_pass_parse_is_the_full_parse(argv):
    # main's parse hands argv[1:] to the subcommand's parser alone; the
    # namespace it runs with is the one the full parse gives
    assert vars(cli._parse(argv)) == vars(cli.PARSER.parse_args(argv))


#: argv that fail, print help or pass, each as the full parse has them do
PARSE_CASES = {
    "no arguments": [],
    "help": ["-h"],
    "unknown command": ["bogus", "--spectrum", "0.75,0.25"],
    "subcommand help": ["yield", "-h"],
    "unknown flag": [*BASE_ARGV["yield"], "--bogus"],
    "extra positional": [*BASE_ARGV["info"], "extra"],
    "malformed float": ["yield", "--spectrum", "0.75,0.25", "--r", "abc"],
    "bad kind": [*BASE_ARGV["yield"], "--kind", "sideways"],
    "ambiguous abbreviation": ["info", "--spec", "0.75,0.25"],
    "unique abbreviation": [*BASE_ARGV["info"], "--form", "json"],
    "both spectrum flags": ["info", "--spectrum", "0.75,0.25", "--spectrum-file", "s.txt"],
    "missing required flag": ["yield", "--spectrum", "0.75,0.25"],
    "leading --": ["--", *BASE_ARGV["info"]],
    "format with =": [*BASE_ARGV["info"], "--format=json"],
    "fidelity mode mistake": ["fidelity", "--eps", "0.01", "--size", "5",
                              "--target-size", "4"],
    "non-finite tolerance": ["check", "--tolerance", "nan"],
}


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", PARSE_CASES)
def test_main_exits_as_the_full_parse_does(monkeypatch, capsys, case):
    argv = PARSE_CASES[case]
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse", cli.PARSER.parse_args)
    assert got == _outcome(capsys, argv)
    assert got[0] in (0, 2)


def test_a_valid_call_is_parsed_once(monkeypatch, capsys):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv in BASE_ARGV.values():
        calls.clear()
        assert _outcome(capsys, argv)[0] == 0, argv
        assert calls == [f"concentrate {argv[0]}"], argv
    # the full parse scans argv once more, at the top level: the counter sees it
    monkeypatch.setattr(cli, "_parse", cli.PARSER.parse_args)
    calls.clear()
    assert _outcome(capsys, BASE_ARGV["info"])[0] == 0
    assert calls == ["concentrate", "concentrate info"]


def _readme_commands():
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("concentrate ")]


def test_readme_examples_rerun_byte_identical(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) == 11
    for argv in commands:
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            if "--out" in argv:
                out += Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
            outputs.append(out)
        assert outputs[0] == outputs[1] != "", argv
