"""Command-line front end.

Subcommands: ``factorize`` (one decode, printed), ``sweep`` (capacity
sweep to CSV/JSON), ``capacity`` (sweep plus the derived operational
capacity), ``oracle-check`` (cross-check decodes against exhaustive
search), ``presets`` (inspect the tuned hyperparameter table).

Flags are the only input.  Progress and diagnostics go to standard
error, data to standard output or files.  Exit codes: 0 success, 1
runtime or I/O failure, 2 usage or validation error (argparse's own
usage errors included).
"""

from __future__ import annotations

import argparse
import sys

from .bench import SweepConfig, decode_instance, oracle_agreement, run_sweep
from .factorizer import VARIANT_KINDS, FactorizerConfig, VariantSpec
from .presets import COLUMNS, load_preset_table, lookup_preset
from .report import emit_report


def _variant(args) -> VariantSpec:
    """The variant named by ``--variant`` and its knobs."""
    return VariantSpec(args.variant, sigma=args.sigma, flip_rate=args.flip_rate,
                       activation_threshold=args.activation_threshold)


def _parse_sizes(text: str) -> tuple:
    try:
        return tuple(int(float(token)) for token in text.split(",") if token.strip())
    except (ValueError, OverflowError):
        raise ValueError(f"--sizes must be comma-separated numbers, got {text!r}") from None


def _add_variant_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=VARIANT_KINDS, required=True,
                   help="decoder variant")
    p.add_argument("--sigma", type=float, help="attention noise std (imf)")
    p.add_argument("--flip-rate", type=float, help="reconstruction bit-flip rate (acf)")
    p.add_argument(
        "--activation-threshold", type=float, help="zero attentions at or below this"
    )


def _add_problem_flags(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    p.add_argument("-F", "--factors", dest="F", type=int, required=True,
                   help="number of factors")
    # A sweep derives the codebook size from each swept size, and --preset may supply D.
    if not sweep:
        p.add_argument("-M", "--codebook-size", dest="M", type=int, required=True,
                       help="codevectors per factor")
    p.add_argument("-D", "--dim", dest="D", type=int, required=not sweep,
                   help="vector dimension")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, help="iteration budget (default min(M^F, 10000))")
    p.add_argument(
        "--convergence-threshold", type=float, default=0.8,
        help="attention level that ends a run (default 0.8)",
    )


def cmd_factorize(args) -> int:
    cfg = FactorizerConfig(_variant(args), F=args.F, M=args.M, D=args.D,
                           max_iters=args.max_iters,
                           convergence_threshold=args.convergence_threshold)
    _, _, truth, result = decode_instance(args.seed, cfg)
    correct = result.indices == truth
    print("decoded:", " ".join(str(i) for i in result.indices))
    print("truth:  ", " ".join(str(i) for i in truth))
    print(f"iterations: {result.iterations}")
    print(f"converged: {'yes' if result.converged else 'no'}")
    print(f"correct: {'yes' if correct else 'no'}")
    return 0 if correct else 1


def _sweep_config(args) -> SweepConfig:
    return SweepConfig(
        F=args.F,
        variant_kind=args.variant,
        search_space_sizes=_parse_sizes(args.sizes),
        trials_per_size=args.trials_per_size,
        D=args.D,
        sigma=args.sigma,
        flip_rate=args.flip_rate,
        activation_threshold=args.activation_threshold,
        use_presets=args.preset is not None,
        convergence_threshold=args.convergence_threshold,
        max_iters=args.max_iters,
        master_seed=args.master_seed,
        parallelism=args.parallelism,
    )


def _progress_line(row) -> str:
    return (
        f"[{row.variant}] F={row.F} size={row.search_space} M={row.M} "
        f"accuracy={row.accuracy:.4f} ci=({row.ci_low:.4f},{row.ci_high:.4f}) "
        f"mean_iters={row.mean_iterations:.1f}"
    )


def _run_sweep(args):
    return run_sweep(_sweep_config(args),
                     progress=lambda row: print(_progress_line(row), file=sys.stderr))


def cmd_sweep(args) -> int:
    emit_report(_run_sweep(args), args.format, args.output)
    return 0


def cmd_capacity(args) -> int:
    report = _run_sweep(args)
    if args.output is not None:
        emit_report(report, args.format, args.output)
    cap = report.operational_capacity
    print(f"operational capacity: {cap if cap is not None else 'not reached'}")
    return 0


def cmd_oracle_check(args) -> int:
    check = oracle_agreement(
        M=args.M, F=args.F, D=args.D, variant=_variant(args), n_trials=args.trials,
        master_seed=args.seed, max_iters=args.max_iters,
        convergence_threshold=args.convergence_threshold,
    )
    rate = check.agreements / check.converged if check.converged else 1.0
    print(f"trials: {check.trials}")
    print(f"converged: {check.converged}")
    print(f"agreements: {check.agreements}")
    print(f"agreement rate: {rate:.4f}")
    return 0 if check.all_agree else 1


def cmd_presets(args) -> int:
    if args.size is not None:
        if args.F is None or args.variant is None:
            raise ValueError("--size lookup needs --factors and --variant")
        hit = lookup_preset(args.F, args.size, args.variant)
        print(f"F: {hit.row.F}")
        print(f"requested size: {args.size}")
        print(f"matched size: {hit.row.search_space}")
        print(f"exact: {'yes' if hit.exact else 'no'}")
        print(f"D: {hit.D}")
        if hit.variant.sigma is not None:
            print(f"sigma: {hit.variant.sigma:g}")
        if hit.variant.flip_rate is not None:
            print(f"flip_rate: {hit.variant.flip_rate:g}")
        print(f"activation_threshold: {hit.variant.activation_threshold:g}")
        return 0
    print(",".join(COLUMNS))
    for r in load_preset_table():
        if args.F is None or r.F == args.F:
            values = (getattr(r, c) for c in COLUMNS)
            print(",".join(format(v, "g") if isinstance(v, float) else str(v) for v in values))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resfact",
        description="Factorize bipolar product vectors and benchmark decoder capacity.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("factorize", help="decode one seeded instance")
    _add_problem_flags(p)
    _add_variant_flags(p)
    _add_run_flags(p)
    p.add_argument("--seed", type=int, default=0, help="instance seed (default 0)")
    p.set_defaults(func=cmd_factorize)

    for name, handler, help_text in (
        ("sweep", cmd_sweep, "run a capacity sweep and write the report"),
        ("capacity", cmd_capacity, "run a sweep and print the operational capacity"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_problem_flags(p, sweep=True)
        _add_variant_flags(p)
        _add_run_flags(p)
        p.add_argument("--sizes", required=True,
                       help="comma-separated target search-space sizes")
        p.add_argument("--trials", dest="trials_per_size", type=int, default=200,
                       help="trials per size (default 200)")
        p.add_argument(
            "--preset",
            choices=("paper",),
            help="resolve D and variant hyperparameters from the tuned preset table",
        )
        p.add_argument("--master-seed", type=int, default=0)
        p.add_argument("--parallelism", type=int, default=1)
        p.add_argument(
            "-o", "--output", default="-" if name == "sweep" else None,
            help="report destination ('-' for stdout)",
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=handler)

    p = sub.add_parser("oracle-check", help="compare decodes against exhaustive search")
    _add_problem_flags(p)
    _add_variant_flags(p)
    _add_run_flags(p)
    p.add_argument("--trials", type=int, default=50, help="number of seeded trials (default 50)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("presets", help="print the tuned hyperparameter table")
    p.add_argument("-F", "--factors", dest="F", type=int, help="only this factor count")
    p.add_argument("--size", type=int, help="resolve one size (needs --factors and --variant)")
    p.add_argument("--variant", choices=VARIANT_KINDS)
    p.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
