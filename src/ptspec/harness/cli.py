"""Command-line entry point.

Subcommands:
    spectrum     -- one (family, A, L, N) run; print or persist raw eigenvalues
    classify     -- one run with classification, pairing, and transition search
    sweep        -- multi-L experiment from a config file and/or flags
    extrapolate  -- Richardson/level-spacing fit of a bound-state sequence
    reproduce    -- benchmark-reproduction suite (exit code 1 on any failure)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from ..extrapolate import build_table, estimate_balmer, load_bound_sequence
from ..potentials import FAMILIES
from ..spectrum import ClassificationPolicy
from .config import ExperimentConfig, load_config, serialize_config
from .plotdata import PLOT_KINDS, emit_plot_data
from .reproduce import SELECTORS, full_scale_config, reproduce
from .runner import persist, run_experiment, write_records


def _add_run_flags(parser: argparse.ArgumentParser, multi_l: bool,
                   required: bool = True) -> None:
    parser.add_argument("--family", required=required, choices=FAMILIES)
    parser.add_argument("--strength", type=float, required=required,
                        help="imaginary amplitude A of the potential")
    if multi_l:
        parser.add_argument("--L", type=float, action="append", dest="half_widths",
                            help="interval half-width; repeatable")
    else:
        parser.add_argument("--L", type=float, required=True, dest="half_width",
                            help="interval half-width")
    parser.add_argument("--N", type=int, default=1023, dest="n_intervals",
                        help="number of grid intervals (default 1023)")
    parser.add_argument("--precision", choices=("double", "extended"),
                        default="double")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: print to stdout)")
    parser.add_argument("--tail-threshold", type=float, default=None,
                        help="override the strict bound-state tail threshold")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _config_from_args(args, half_widths) -> ExperimentConfig:
    policy = ClassificationPolicy()
    if args.tail_threshold is not None:
        policy = dataclasses.replace(policy,
                                     bound_tail_threshold=args.tail_threshold)
    return ExperimentConfig(
        family=args.family,
        strength=args.strength,
        half_widths=tuple(half_widths),
        n_intervals=args.n_intervals,
        precision_mode={"double": "double64", "extended": "extended128"}[args.precision],
        output_dir=str(args.out) if args.out else "runs",
        output_format=args.format,
        policy=policy,
    )


def _cmd_single(args, include_labels: bool) -> int:
    config = _config_from_args(args, [args.half_width])
    artifact = run_experiment(config)
    if args.half_width in artifact.failures:
        print(f"error: {artifact.failures[args.half_width]}", file=sys.stderr)
        return 1
    result = artifact.results[args.half_width]
    if args.out is not None:
        run_dir = persist(artifact, out_dir=args.out)
        for kind in PLOT_KINDS:
            emit_plot_data(result, kind,
                           run_dir / f"L{args.half_width:g}" / f"{kind}.csv")
        print(run_dir)
    else:
        write_records(result, sys.stdout, args.format,
                      labels=include_labels)
    if include_labels:
        print(f"# bound_pairs {result.bound_pairs} "
              f"transition {result.transition_point}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    if args.config is not None:
        config = load_config(args.config)
        if args.out is not None:
            config = dataclasses.replace(config, output_dir=str(args.out))
    else:
        if not args.half_widths or args.family is None or args.strength is None:
            print("error: sweep needs --config or --family/--strength "
                  "plus at least one --L", file=sys.stderr)
            return 2
        config = _config_from_args(args, sorted(args.half_widths))
    artifact = run_experiment(config)
    run_dir = persist(artifact)
    for half_width, result in artifact.results.items():
        for kind in PLOT_KINDS:
            emit_plot_data(result, kind,
                           run_dir / f"L{half_width:g}" / f"{kind}.csv")
    print(run_dir)
    for half_width, message in sorted(artifact.failures.items()):
        print(f"L={half_width:g} failed: {message}", file=sys.stderr)
    return 1 if artifact.failures else 0


def _cmd_extrapolate(args) -> int:
    sequence = load_bound_sequence(args.input)
    estimate = estimate_balmer(sequence)
    if args.format == "json":
        json.dump({
            "alpha": estimate.alpha,
            "beta": estimate.beta,
            "alpha_by_order": list(estimate.alpha_by_order),
            "beta_by_order": list(estimate.beta_by_order),
            "alpha_spread": estimate.alpha_spread,
            "beta_spread": estimate.beta_spread,
        }, sys.stdout, indent=1)
        print()
        return 0
    print(f"alpha {estimate.alpha:.6f} (spread {estimate.alpha_spread:.2e})")
    print(f"beta  {estimate.beta:.6f} (spread {estimate.beta_spread:.2e})")
    if args.table:
        import numpy as np
        k = np.arange(1, len(sequence) + 1, dtype=float)
        for name, seq in (
            ("k^2 Re E_k", k ** 2 * np.array([z.real for z in sequence])),
            ("k^3 |Im E_k|", k ** 3 * np.array([abs(z.imag) for z in sequence])),
        ):
            table = build_table(seq)
            print(f"# {name}")
            for order in sorted(table.columns):
                entries = " ".join(f"{v:.6g}" for v in table.columns[order])
                print(f"  order {order}: {entries}")
    return 0


def _cmd_reproduce(args) -> int:
    if args.full_scale:
        config = full_scale_config()
        print("# full-scale configuration (opt-in; the extended matrix alone "
              "needs ~68 GB, and its Schur form at least 1.2 years of compute):")
        print(serialize_config(config))
        artifact = run_experiment(config)
        persist(artifact, out_dir=args.out or Path("runs"))
        return 1 if artifact.failures else 0
    results = reproduce(args.selector)
    for check in results:
        print(check.line())
    failures = [c for c in results if not c.passed]
    if failures:
        report = {"failed": [dataclasses.asdict(c) for c in failures]}
        print(json.dumps(report), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptspec",
        description="Spectra of 1-D PT-symmetric Schrodinger operators "
                    "with decaying imaginary-odd potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spectrum = sub.add_parser("spectrum", help="compute raw eigenvalues")
    _add_run_flags(p_spectrum, multi_l=False)
    p_spectrum.set_defaults(func=lambda a: _cmd_single(a, include_labels=False))

    p_classify = sub.add_parser(
        "classify", help="compute, classify, and locate the transition")
    _add_run_flags(p_classify, multi_l=False)
    p_classify.set_defaults(func=lambda a: _cmd_single(a, include_labels=True))

    p_sweep = sub.add_parser("sweep", help="run a multi-L experiment")
    _add_run_flags(p_sweep, multi_l=True, required=False)
    p_sweep.add_argument("--config", type=Path, default=None,
                         help="INI experiment config (flags override --out only)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ex = sub.add_parser(
        "extrapolate", help="Balmer-like fit of a bound-state sequence")
    p_ex.add_argument("input", type=Path,
                      help="two-column (Re, Im) text file, deepest state first")
    p_ex.add_argument("--table", action="store_true",
                      help="also print the full extrapolant tables")
    p_ex.add_argument("--format", choices=("text", "json"), default="text")
    p_ex.set_defaults(func=_cmd_extrapolate)

    p_rep = sub.add_parser("reproduce", help="run the benchmark suite")
    p_rep.add_argument("--selector", choices=SELECTORS, default="desk")
    p_rep.add_argument("--full-scale", action="store_true",
                       help="run the full published long-range configuration "
                            "instead of the desk-scale checks")
    p_rep.add_argument("--out", type=Path, default=None)
    p_rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
