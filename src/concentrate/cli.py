"""Command-line front end.

Every subcommand is a thin mapping onto exactly one library operation; no
numeric logic lives here. Results are serialized through the harness record
machinery, so `--format json` and `--format csv` carry the same values.

Exit codes: 0 success, 1 computation-domain error (JSON error object on
stdout when --format json), 2 usage error.
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


def _load_spectrum(args, attr="spectrum") -> SchmidtSpectrum:
    inline = getattr(args, attr, None)
    path = getattr(args, f"{attr}_file", None)
    if inline is not None:
        values = _parse_spectrum_text(inline)
    else:
        values = _read_spectrum_file(path)
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


def _parse_r_grid(text: str) -> tuple[float, ...]:
    """'lo:hi:steps' mapped to an inclusive linspace with `steps` points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected lo:hi:steps, got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return tuple(float(x) for x in np.linspace(lo, hi, steps))


def _emit(record: ExperimentRecord, args) -> None:
    fmt = args.format
    if args.out:
        record.write(args.out, fmt)
    else:
        text = record.to_json_text() if fmt == "json" else record.to_csv_text()
        sys.stdout.write(text)


def _single_row_record(meta: dict, row: dict) -> ExperimentRecord:
    return ExperimentRecord(meta, list(row.keys()), [row])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concentrate",
        description="Exact and asymptotic yield computations for "
        "entanglement concentration protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, spectrum=True, sigma=False):
        if spectrum:
            group = sp.add_mutually_exclusive_group(required=True)
            group.add_argument("--spectrum", help="comma list of probabilities")
            group.add_argument(
                "--spectrum-file", help="file with one probability per line"
            )
        if sigma:
            group = sp.add_mutually_exclusive_group()
            group.add_argument("--sigma", help="second spectrum (comma list)")
            group.add_argument("--sigma-file", help="second spectrum from file")
        sp.add_argument(
            "--renormalize",
            action="store_true",
            help="rescale inputs that do not sum to one",
        )
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--seed", type=int, default=20240501)
        sp.add_argument("--tolerance", type=float, default=None)

    sp = sub.add_parser("info", help="spectrum summary quantities")
    add_common(sp)

    sp = sub.add_parser("finite", help="single-copy concentration plan")
    add_common(sp)
    sp.add_argument("--size", type=int, required=True, help="target size L")

    sp = sub.add_parser("yield", help="one asymptotic yield evaluation")
    add_common(sp)
    sp.add_argument("--r", type=float, required=True, help="exponent r > 0")
    sp.add_argument("--kind", choices=sorted(KIND_MAP), default="direct")

    sp = sub.add_parser("sweep", help="all four yield curves on an r grid")
    add_common(sp)
    sp.add_argument("--r-grid", required=True, help="lo:hi:steps")

    sp = sub.add_parser("converge", help="finite-n exponents vs asymptotics")
    add_common(sp)
    sp.add_argument("--rate", type=float, required=True, help="per-copy rate R")
    sp.add_argument("--n-list", required=True, help="a,b,c or a..b..step")
    sp.add_argument(
        "--max-types",
        type=int,
        default=10**8,
        help="refuse enumerations beyond this many types (resource guard)",
    )

    sp = sub.add_parser("nonadd", help="composite-state yield relations")
    add_common(sp, sigma=True)
    sp.add_argument("--r", type=float, required=True)

    sp = sub.add_parser("fidelity", help="probability/fidelity conversions")
    add_common(sp, spectrum=False)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--spectrum", help="comma list (verify modes)")
    group.add_argument("--spectrum-file")
    group.add_argument("--prob", type=float, help="success probability input")
    group.add_argument("--eps", type=float, help="fidelity defect input")
    group.add_argument("--fid", type=float, help="fidelity input")
    sp.add_argument("--size", type=int, help="exact output size L")
    sp.add_argument("--target-size", type=int, required=True, help="target size T")
    sp.add_argument(
        "--verify",
        choices=("construction", "bound"),
        help="run a constructive verification on the given spectrum",
    )

    sp = sub.add_parser("check", help="seeded property-check suite")
    add_common(sp, spectrum=False)

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
    return _single_row_record({"experiment": "info"}, row)


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
    return _single_row_record({"experiment": "finite"}, row)


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
    return _single_row_record({"experiment": "yield"}, row)


def _cmd_fidelity(args) -> ExperimentRecord:
    if args.verify:
        if args.spectrum is None and args.spectrum_file is None:
            raise ConcentrationError("--verify needs --spectrum or --spectrum-file")
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
        return _single_row_record({"experiment": "fidelity-verify"}, row)
    if args.prob is not None:
        if args.size is None:
            raise ConcentrationError("--prob mode needs --size")
        fid = prob_to_fidelity(args.prob, args.size, args.target_size)
        row = {
            "direction": "prob-to-fidelity",
            "input_size": args.size,
            "input_quality": args.prob,
            "output_size": args.target_size,
            "output_quality_bound": fid,
        }
    elif args.eps is not None:
        size, bound = fidelity_to_prob_params(args.target_size, args.eps)
        row = {
            "direction": "fidelity-to-prob",
            "input_size": args.target_size,
            "input_quality": 1.0 - args.eps,
            "output_size": size,
            "output_quality_bound": bound,
        }
    else:
        value = recovery_bound(args.target_size, args.fid)
        row = {
            "direction": "fidelity-to-prob-bound",
            "input_size": args.target_size,
            "input_quality": args.fid,
            "output_size": args.target_size,
            "output_quality_bound": value,
        }
    return _single_row_record({"experiment": "fidelity"}, row)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "info":
            record = _cmd_info(args)
        elif args.command == "finite":
            record = _cmd_finite(args)
        elif args.command == "yield":
            record = _cmd_yield(args)
        elif args.command == "sweep":
            cfg = ExperimentConfig(
                spectrum=_load_spectrum(args),
                r_grid=_parse_r_grid(args.r_grid),
                seed=args.seed,
                tolerance=args.tolerance,
            )
            record = run_sweep(cfg)
        elif args.command == "converge":
            cfg = ExperimentConfig(
                spectrum=_load_spectrum(args),
                rate=args.rate,
                n_list=_parse_n_list(args.n_list),
                seed=args.seed,
                tolerance=args.tolerance,
                max_types=args.max_types,
            )
            record = run_convergence(cfg)
        elif args.command == "nonadd":
            sigma = None
            if args.sigma is not None or args.sigma_file is not None:
                sigma = _load_spectrum(args, attr="sigma")
            cfg = ExperimentConfig(
                spectrum=_load_spectrum(args),
                sigma=sigma,
                r=args.r,
                seed=args.seed,
                tolerance=args.tolerance,
            )
            record = run_nonadditivity(cfg)
        elif args.command == "fidelity":
            record = _cmd_fidelity(args)
        elif args.command == "check":
            cfg = ExperimentConfig(seed=args.seed, tolerance=args.tolerance)
            record = run_check_suite(cfg)
        else:  # pragma: no cover - argparse enforces choices
            parser.error(f"unknown command {args.command}")
    except ConcentrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(args, "format", "csv") == "json":
            payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            sys.stdout.write(json.dumps(payload) + "\n")
        return 1
    except (ValueError, OSError) as exc:
        # malformed flag values and unreadable inputs are usage errors
        parser.error(str(exc))
    _emit(record, args)
    return 0 if record.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
