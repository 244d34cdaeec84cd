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

from ..potentials import FAMILIES
from ..spectrum import ClassificationPolicy
from .config import ExperimentConfig, parse_config, serialize_config
from .runner import RunArtifact, exact_label, persist, render, run_experiment


class _Selectors:
    """``reproduce.SELECTORS`` as the choices of ``--selector``, read when
    argparse first asks: ``reproduce`` and with it ``refdata`` serve no
    other subcommand, so they are imported only then."""

    def __contains__(self, name) -> bool:
        from .reproduce import SELECTORS

        return name in SELECTORS

    def __iter__(self):
        from .reproduce import SELECTORS

        return iter(SELECTORS)


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


class _UsageError(ValueError):
    """An input the subcommand cannot use: a config the flags or
    ``--config`` describe that cannot be read or built, a ``sweep`` with
    neither, an ``extrapolate`` file that cannot be read or fitted, or
    ``reproduce --out`` without ``--full-scale``; ``main`` reports it as a
    usage error."""


def _config_from_args(args, half_widths) -> ExperimentConfig:
    try:
        policy = ClassificationPolicy()
        if args.tail_threshold is not None:
            policy = dataclasses.replace(
                policy, bound_tail_threshold=args.tail_threshold)
        return ExperimentConfig(
            family=args.family,
            strength=args.strength,
            half_widths=tuple(half_widths),
            n_intervals=args.n_intervals,
            precision_mode=args.precision,
            output_dir=str(args.out) if args.out else "runs",
            output_format=args.format,
            policy=policy,
        )
    except ValueError as exc:
        raise _UsageError(exc) from None


def _run(config: ExperimentConfig, stdout: bool = False,
         labels: bool = True) -> RunArtifact:
    """Run every half-width of ``config``, then persist the run and print
    its directory, or with ``stdout`` print each L's eigenvalues file
    instead (only re, im without ``labels``); each failed L is reported on
    stderr."""
    artifact = run_experiment(config)
    if stdout:
        name = f"eigenvalues.{config.output_format}"
        for half_width, result in artifact.results.items():
            files = (artifact.files[half_width] if labels
                     else render(result, config.output_format, labels=False))
            sys.stdout.write(files[name])
    else:
        print(persist(artifact))
    for half_width, message in sorted(artifact.failures.items()):
        print(f"L={exact_label(half_width)} failed: {message}", file=sys.stderr)
    return artifact


def _cmd_single(args, include_labels: bool) -> int:
    config = _config_from_args(args, [args.half_width])
    artifact = _run(config, stdout=args.out is None, labels=include_labels)
    if include_labels and not artifact.failures:
        result = artifact.results[args.half_width]
        print(f"# bound_pairs {result.bound_pairs} "
              f"transition {result.transition_point}", file=sys.stderr)
    return 1 if artifact.failures else 0


def _cmd_sweep(args) -> int:
    if args.config is not None:
        try:
            config = parse_config(args.config)
        except (OSError, ValueError) as exc:
            raise _UsageError(exc) from None
        if args.out is not None:
            config = dataclasses.replace(config, output_dir=str(args.out))
    else:
        if not args.half_widths or args.family is None or args.strength is None:
            raise _UsageError("sweep needs --config or --family/--strength "
                              "plus at least one --L")
        config = _config_from_args(args, sorted(args.half_widths))
    return 1 if _run(config).failures else 0


def _cmd_extrapolate(args) -> int:
    # only this subcommand fits a sequence, so only it imports the module
    from ..extrapolate import estimate_balmer, load_bound_sequence

    try:
        estimate = estimate_balmer(load_bound_sequence(args.input))
    except (OSError, ValueError) as exc:  # InsufficientDataError among them
        raise _UsageError(exc) from None
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
        for name, table in (("k^2 Re E_k", estimate.re_table),
                            ("k^3 |Im E_k|", estimate.im_table)):
            print(f"# {name}")
            for order in sorted(table.columns):
                entries = " ".join(f"{v:.6g}" for v in table.columns[order])
                print(f"  order {order}: {entries}")
    return 0


def _cmd_reproduce(args) -> int:
    from .reproduce import full_scale_config, reproduce

    if args.out is not None and not args.full_scale:
        raise _UsageError("--out needs --full-scale: the desk-scale checks "
                          "write no files")
    if args.full_scale:
        config = full_scale_config()
        if args.out is not None:
            config = dataclasses.replace(config, output_dir=str(args.out))
        print("# full-scale configuration (opt-in; the extended matrix alone "
              "needs ~68 GB, and its Schur form at least four months of compute):")
        print(serialize_config(config))
        return 1 if _run(config).failures else 0
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
    # a metavar, so that add_argument does not list the choices itself
    p_rep.add_argument("--selector", choices=_Selectors(), default="desk",
                       metavar="SELECTOR",
                       help="one of %(choices)s (default %(default)s)")
    p_rep.add_argument("--full-scale", action="store_true",
                       help="run the full published long-range configuration "
                            "instead of the desk-scale checks")
    p_rep.add_argument("--out", type=Path, default=None,
                       help="where --full-scale persists its run")
    p_rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    """Run the subcommand ``argv`` names; an input it cannot use
    (``_UsageError``) is a usage error (exit code 2)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
