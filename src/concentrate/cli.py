"""Command-line front end.

Every subcommand is a thin mapping onto exactly one library operation; no
numeric logic lives here. One parser, built at import, serves every call,
and each subparser stores its runner as `run`. `main` parses, runs and
emits. When argv starts with a subcommand name, `_parse` hands the rest to
that subcommand's parser alone (COMMANDS), so a valid call is parsed once.
Every other argv takes the full parse, PARSER.parse_args: no arguments, a
leading option (-h, --), an unknown command, or arguments the subcommand
leaves over. The one-pass route gives the namespace the full parse gives,
and a usage error in it comes from the same subcommand parser, so help
text, messages and exit codes are those of the full parse.

A subcommand declares only the shared flags its runner reads: --renormalize
wherever a spectrum is read, --seed where the record writes it to meta
(sweep, converge, nonadd, check) and --tolerance where a verdict uses it
(converge, nonadd, check). Results are serialized through the harness
record machinery, so `--format json` and `--format csv` carry the same values.

Exit codes: 0 success, 1 computation-domain error (JSON error object on
stdout when --format json) or failed checks, 2 usage error (unknown flags,
malformed values, a non-finite --tolerance, unreadable files, fidelity
modes combined wrongly).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConcentrationError
from .fidelity import (
    fidelity_to_prob_params,
    prob_to_fidelity,
    recovery_bound,
    verify_fidelity_conversion,
    verify_recovery_bound,
)
from .finite import deterministic_yield, solve_plan
from .harness import (
    ExperimentConfig,
    ExperimentRecord,
    run_check_suite,
    run_convergence,
    run_nonadditivity,
    run_sweep,
)
from .method_of_types import DEFAULT_TYPE_GUARD
from .rates import (
    converse_yield,
    direct_yield,
    fidelity_converse_yield,
    fidelity_direct_yield,
)
from .spectra import (
    SchmidtSpectrum,
    divergence_from_uniform,
    new_spectrum,
    shannon_entropy,
)

KIND_MAP = {
    "direct": direct_yield,
    "converse": converse_yield,
    "fidelity-direct": fidelity_direct_yield,
    "fidelity-converse": fidelity_converse_yield,
}

#: the row of every fidelity conversion mode (--prob, --eps, --fid)
CONVERSION_COLUMNS = (
    "direction", "input_size", "input_quality", "output_size", "output_quality_bound",
)


def _parse_spectrum_text(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _read_spectrum_file(path: str) -> list[float]:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                values.append(float(line))
    return values


def _load_spectrum(args, attr="spectrum") -> SchmidtSpectrum | None:
    """The spectrum given inline or by file, or None when neither is."""
    inline = getattr(args, attr)
    path = getattr(args, f"{attr}_file")
    if inline is not None:
        values = _parse_spectrum_text(inline)
    elif path is not None:
        values = _read_spectrum_file(path)
    else:
        return None
    return new_spectrum(values, renormalize=args.renormalize)


def _parse_n_list(text: str) -> tuple[int, ...]:
    """Either 'a,b,c' or 'a..b..step' (inclusive of b when it lands on it)."""
    if ".." in text:
        parts = text.split("..")
        if len(parts) != 3:
            raise ValueError(f"expected a..b..step, got {text!r}")
        a, b, step = (int(x) for x in parts)
        if step < 1:
            raise ValueError("step must be >= 1")
        return tuple(range(a, b + 1, step))
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _finite_float(text: str) -> float:
    if not np.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_r_grid(text: str) -> tuple[float, ...]:
    """'lo:hi:steps' mapped to an inclusive linspace with `steps` points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected lo:hi:steps, got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return tuple(np.linspace(lo, hi, steps).tolist())


def _emit(record: ExperimentRecord, args) -> None:
    text = record.to_json_text() if args.format == "json" else record.to_csv_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    """The `concentrate` parser; each subcommand stores its runner as `run`."""
    parser = argparse.ArgumentParser(
        prog="concentrate",
        description="Exact and asymptotic yield computations for "
        "entanglement concentration protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help, spectrum=True, seed=False, tolerance=False, modes=()):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        if spectrum:
            group = sp.add_mutually_exclusive_group(required=True)
            group.add_argument("--spectrum", help="comma list of probabilities")
            group.add_argument("--spectrum-file", help="one probability per line")
            for flag, text in modes:
                group.add_argument(flag, type=float, help=text)
            sp.add_argument("--renormalize", action="store_true",
                            help="rescale inputs that do not sum to one")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="output path (default: stdout)")
        if seed:
            sp.add_argument("--seed", type=int, default=ExperimentConfig.seed)
        if tolerance:
            sp.add_argument("--tolerance", type=_finite_float, default=None)
        return sp

    add("info", _cmd_info, "spectrum summary quantities")

    sp = add("finite", _cmd_finite, "single-copy concentration plan")
    sp.add_argument("--size", type=int, required=True, help="target size L")

    sp = add("yield", _cmd_yield, "one asymptotic yield evaluation")
    sp.add_argument("--r", type=float, required=True, help="exponent r > 0")
    sp.add_argument("--kind", choices=sorted(KIND_MAP), default="direct")

    sp = add("sweep", _cmd_sweep, "all four yield curves on an r grid", seed=True)
    sp.add_argument("--r-grid", required=True, help="lo:hi:steps")

    sp = add("converge", _cmd_converge, "finite-n exponents vs asymptotics",
             seed=True, tolerance=True)
    sp.add_argument("--rate", type=float, required=True, help="per-copy rate R")
    sp.add_argument("--n-list", required=True, help="a,b,c or a..b..step")
    sp.add_argument("--max-types", type=int, default=DEFAULT_TYPE_GUARD,
                    help="refuse enumerations beyond this many types (resource guard)")

    sp = add("nonadd", _cmd_nonadd, "composite-state yield relations",
             seed=True, tolerance=True)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--sigma", help="second spectrum (comma list)")
    group.add_argument("--sigma-file", help="second spectrum from file")
    sp.add_argument("--r", type=float, required=True)

    sp = add("fidelity", _cmd_fidelity, "probability/fidelity conversions", modes=(
        ("--prob", "success probability input"),
        ("--eps", "fidelity defect input"),
        ("--fid", "fidelity input"),
    ))
    sp.add_argument("--size", type=int, help="exact output size L")
    sp.add_argument("--target-size", type=int, required=True, help="target size T")
    sp.add_argument("--verify", choices=("construction", "bound"),
                    help="run a constructive verification on the given spectrum")

    add("check", _cmd_check, "seeded property-check suite",
        spectrum=False, seed=True, tolerance=True)
    return parser


def _cmd_info(args) -> ExperimentRecord:
    p = _load_spectrum(args)
    row = {
        "dim": p.dim,
        "entropy_bits": shannon_entropy(p),
        "deterministic_exponent_bits": p.min_entropy,
        "uniform_divergence_bits": divergence_from_uniform(p),
        "deterministic_size": deterministic_yield(p),
    }
    return ExperimentRecord({"experiment": "info"}, [row])


def _cmd_finite(args) -> ExperimentRecord:
    p = _load_spectrum(args)
    plan = solve_plan(p, args.size)
    row = {
        "size": plan.target_size,
        "threshold": plan.threshold,
        "cut_index": plan.cut_index,
        "success_prob": plan.success_prob,
        "failure_prob": plan.failure_prob,
    }
    return ExperimentRecord({"experiment": "finite"}, [row])


def _cmd_yield(args) -> ExperimentRecord:
    p = _load_spectrum(args)
    point = KIND_MAP[args.kind](p, args.r)
    row = {
        "r": point.r,
        "kind": args.kind,
        "yield_bits": point.yield_bits,
        "regime": point.regime,
        "s_star": point.s_star,
    }
    return ExperimentRecord({"experiment": "yield"}, [row])


def _cmd_fidelity(args) -> ExperimentRecord:
    given = args.spectrum is not None or args.spectrum_file is not None
    if given != bool(args.verify):
        raise ValueError("--verify needs --spectrum or --spectrum-file" if args.verify
                         else "--spectrum and --spectrum-file need --verify")
    if (args.prob is None) != (args.size is None):
        raise ValueError("--prob mode needs --size" if args.size is None
                         else "--size is read only in --prob mode")
    if args.verify:
        p = _load_spectrum(args)
        if args.verify == "construction":
            chk = verify_fidelity_conversion(p, args.target_size)
            row = {
                "direction": "fidelity-to-prob-construction",
                "target_size": chk.target_size,
                "eps": chk.eps,
                "stripped_count": chk.stripped_count,
                "stripped_mass": chk.stripped_mass,
                "promised_size": chk.promised_size,
                "achieved_size": chk.achieved_size,
                "passed": chk.all_ok,
            }
        else:
            chk = verify_recovery_bound(p, args.target_size)
            row = {
                "direction": "fidelity-to-prob-bound",
                "target_size": chk.target_size,
                "fidelity": chk.fidelity,
                "bound": chk.bound,
                "best_sqrt_pl": chk.best_sqrt_pl,
                "passed": chk.holds,
            }
        return ExperimentRecord({"experiment": "fidelity-verify"}, [row])
    if args.prob is not None:
        values = ("prob-to-fidelity", args.size, args.prob, args.target_size,
                  prob_to_fidelity(args.prob, args.size, args.target_size))
    elif args.eps is not None:
        size, bound = fidelity_to_prob_params(args.target_size, args.eps)
        values = ("fidelity-to-prob", args.target_size, 1.0 - args.eps, size, bound)
    else:
        values = ("fidelity-to-prob-bound", args.target_size, args.fid, args.target_size,
                  recovery_bound(args.target_size, args.fid))
    row = dict(zip(CONVERSION_COLUMNS, values))
    return ExperimentRecord({"experiment": "fidelity"}, [row])


def _cmd_sweep(args) -> ExperimentRecord:
    spectrum = _load_spectrum(args)
    r_grid = _parse_r_grid(args.r_grid)
    return run_sweep(ExperimentConfig(spectrum=spectrum, r_grid=r_grid, seed=args.seed))


def _cmd_converge(args) -> ExperimentRecord:
    cfg = ExperimentConfig(
        spectrum=_load_spectrum(args),
        rate=args.rate,
        n_list=_parse_n_list(args.n_list),
        seed=args.seed,
        tolerance=args.tolerance,
        max_types=args.max_types,
    )
    return run_convergence(cfg)


def _cmd_nonadd(args) -> ExperimentRecord:
    cfg = ExperimentConfig(
        sigma=_load_spectrum(args, attr="sigma"),  # read before the spectrum
        spectrum=_load_spectrum(args),
        r=args.r,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    return run_nonadditivity(cfg)


def _cmd_check(args) -> ExperimentRecord:
    return run_check_suite(ExperimentConfig(seed=args.seed, tolerance=args.tolerance))


PARSER = build_parser()
#: each subcommand's own parser, by name, as PARSER's subparsers action holds them
COMMANDS = PARSER._subparsers._group_actions[0].choices


def _parse(argv=None) -> argparse.Namespace:
    """PARSER.parse_args(argv), parsing a valid subcommand call only once."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        args, extra = COMMANDS[argv[0]].parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return PARSER.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        record = args.run(args)
    except ConcentrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.format == "json":
            payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            sys.stdout.write(json.dumps(payload) + "\n")
        return 1
    except (ValueError, OSError) as exc:
        # malformed values, unreadable inputs, fidelity mode mistakes
        PARSER.error(str(exc))
    _emit(record, args)
    return 0 if record.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
