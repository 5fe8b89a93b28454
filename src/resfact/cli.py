"""Command-line front end.

Subcommands: ``factorize`` (one decode, printed), ``sweep`` (capacity
sweep to CSV/JSON), ``capacity`` (sweep plus the derived operational
capacity), ``oracle-check`` (cross-check decodes against exhaustive
search), ``presets`` (inspect the tuned hyperparameter table).

Options may come from a JSON config file (``--config``); flags override
file values, and keys in the file use the same snake_case names as the
report columns.  Progress and diagnostics go to standard error, data to
standard output or files.  Exit codes: 0 success, 1 runtime or I/O
failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .bench import DEFAULT_ORACLE_CAP, SweepConfig, decode_instance, oracle_agreement, run_sweep
from .factorizer import VariantSpec
from .presets import load_preset_table, lookup_preset
from .report import emit_report


#: The types a config-file key's value may have, compared exactly: a JSON true is no int.
_CONFIG_TYPES = {
    **dict.fromkeys(("F", "M", "D", "trials", "trials_per_size", "max_iters", "seed",
                     "master_seed", "parallelism", "cap"), (int,)),
    **dict.fromkeys(("sigma", "flip_rate", "activation_threshold", "convergence_threshold"),
                    (int, float)),
    **dict.fromkeys(("variant", "preset", "presets_path"), (str,)), "use_presets": (bool,),
}


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return doc


def _pick(args, config: dict, dest: str, *aliases, default=None):
    """Flag value if given, else config-file value (of its key's JSON type), else default."""
    value = getattr(args, dest, None)
    if value is not None:
        return value
    for key in (dest,) + aliases:
        if config.get(key) is not None:
            value = config[key]
            kinds = _CONFIG_TYPES.get(key, (type(value),))
            if type(value) not in kinds:
                raise ValueError(f"{key} must be {' or '.join(k.__name__ for k in kinds)} "
                                 f"in the config file, got {value!r}")
            return value
    return default


def _require(value, name: str):
    if value is None:
        raise ValueError(f"{name} is required (flag or config file)")
    return value


def _variant(args, config: dict) -> VariantSpec:
    """The variant named by ``--variant`` and its knobs, from flags or the config file."""
    return VariantSpec(
        _require(_pick(args, config, "variant"), "variant"),
        sigma=_pick(args, config, "sigma"),
        flip_rate=_pick(args, config, "flip_rate"),
        activation_threshold=_pick(args, config, "activation_threshold"),
    )


def _parse_sizes(value) -> tuple:
    if isinstance(value, (list, tuple)):
        value = ",".join(str(v) for v in value)
    return tuple(int(float(token)) for token in str(value).split(",") if token.strip())


def _add_variant_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=("brn", "imf", "acf"), help="decoder variant")
    p.add_argument("--sigma", type=float, help="attention noise std (imf)")
    p.add_argument("--flip-rate", type=float, help="reconstruction bit-flip rate (acf)")
    p.add_argument(
        "--activation-threshold", type=float, help="zero attentions at or below this"
    )


def _add_problem_flags(p: argparse.ArgumentParser, codebook_size: bool = True) -> None:
    p.add_argument("-F", "--factors", dest="F", type=int, help="number of factors")
    if codebook_size:
        p.add_argument("-M", "--codebook-size", dest="M", type=int, help="codevectors per factor")
    p.add_argument("-D", "--dim", dest="D", type=int, help="vector dimension")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, help="iteration budget (default min(M^F, 10000))")
    p.add_argument(
        "--convergence-threshold", type=float, help="attention level that ends a run (default 0.8)"
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file supplying defaults for this subcommand")
    p.add_argument("-v", "--verbose", action="count", default=0)


def cmd_factorize(args) -> int:
    config = _load_config(args.config)
    F = _require(_pick(args, config, "F"), "F")
    M = _require(_pick(args, config, "M"), "M")
    D = _require(_pick(args, config, "D"), "D")
    _, _, truth, result = decode_instance(
        _pick(args, config, "seed", default=0), M, F, D, _variant(args, config),
        max_iters=_pick(args, config, "max_iters"),
        convergence_threshold=_pick(args, config, "convergence_threshold", default=0.8),
    )
    correct = result.indices == truth
    print("decoded:", " ".join(str(i) for i in result.indices))
    print("truth:  ", " ".join(str(i) for i in truth))
    print(f"iterations: {result.iterations}")
    print(f"converged: {'yes' if result.converged else 'no'}")
    print(f"correct: {'yes' if correct else 'no'}")
    return 0 if correct else 1


def _sweep_config(args) -> SweepConfig:
    config = _load_config(args.config)
    kind = _require(_pick(args, config, "variant"), "variant")
    sizes = _require(
        _pick(args, config, "sizes", "search_space_sizes"), "sizes (search_space_sizes)"
    )
    preset_choice = _pick(args, config, "preset")
    use_presets = bool(_pick(args, config, "use_presets", default=False)) or (
        preset_choice is not None
    )
    return SweepConfig(
        F=_require(_pick(args, config, "F"), "F"),
        variant_kind=kind,
        search_space_sizes=_parse_sizes(sizes),
        trials_per_size=_pick(args, config, "trials_per_size", "trials", default=200),
        D=_pick(args, config, "D"),
        sigma=_pick(args, config, "sigma"),
        flip_rate=_pick(args, config, "flip_rate"),
        activation_threshold=_pick(args, config, "activation_threshold"),
        use_presets=use_presets,
        presets_path=_pick(args, config, "presets_path"),
        convergence_threshold=_pick(args, config, "convergence_threshold", default=0.8),
        max_iters=_pick(args, config, "max_iters"),
        master_seed=_pick(args, config, "master_seed", default=0),
        parallelism=_pick(args, config, "parallelism", default=1),
    )


def _progress_line(row) -> str:
    return (
        f"[{row.variant}] F={row.F} size={row.search_space} M={row.M} "
        f"accuracy={row.accuracy:.4f} ci=({row.ci_low:.4f},{row.ci_high:.4f}) "
        f"mean_iters={row.mean_iterations:.1f}"
    )


def _run_sweep(args):
    cfg = _sweep_config(args)
    if args.verbose:
        print(f"sweep config: {cfg}", file=sys.stderr)
    return run_sweep(cfg, progress=lambda row: print(_progress_line(row), file=sys.stderr))


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
    config = _load_config(args.config)
    F = _require(_pick(args, config, "F"), "F")
    M = _require(_pick(args, config, "M"), "M")
    D = _require(_pick(args, config, "D"), "D")
    check = oracle_agreement(
        M=M,
        F=F,
        D=D,
        variant=_variant(args, config),
        n_trials=_pick(args, config, "trials", default=50),
        master_seed=_pick(args, config, "seed", "master_seed", default=0),
        cap=_pick(args, config, "cap", default=DEFAULT_ORACLE_CAP),
        max_iters=_pick(args, config, "max_iters"),
        convergence_threshold=_pick(args, config, "convergence_threshold", default=0.8),
    )
    rate = check.agreements / check.converged if check.converged else 1.0
    print(f"trials: {check.trials}")
    print(f"converged: {check.converged}")
    print(f"agreements: {check.agreements}")
    print(f"agreement rate: {rate:.4f}")
    return 0 if check.all_agree else 1


def cmd_presets(args) -> int:
    table = load_preset_table(args.presets_path)
    if args.size is not None:
        if args.F is None or args.variant is None:
            raise ValueError("--size lookup needs --factors and --variant")
        hit = lookup_preset(args.F, args.size, args.variant, table=table)
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
    rows = [r for r in table if args.F is None or r.F == args.F]
    print(
        "F,search_space,D,acf_flip_rate,acf_activation_threshold,"
        "imf_sigma,imf_activation_threshold"
    )
    for r in rows:
        print(
            f"{r.F},{r.search_space},{r.D},{r.acf_flip_rate:g},"
            f"{r.acf_activation_threshold:g},{r.imf_sigma:g},{r.imf_activation_threshold:g}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resfact",
        description="Factorize bipolar product vectors and benchmark decoder capacity.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("factorize", help="decode one seeded instance")
    _add_common(p)
    _add_problem_flags(p)
    _add_variant_flags(p)
    _add_run_flags(p)
    p.add_argument("--seed", type=int, help="instance seed (default 0)")
    p.set_defaults(func=cmd_factorize)

    for name, handler, help_text in (
        ("sweep", cmd_sweep, "run a capacity sweep and write the report"),
        ("capacity", cmd_capacity, "run a sweep and print the operational capacity"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        # the codebook size follows from each swept size
        _add_problem_flags(p, codebook_size=False)
        _add_variant_flags(p)
        _add_run_flags(p)
        p.add_argument("--sizes", help="comma-separated target search-space sizes")
        p.add_argument("--trials", dest="trials_per_size", type=int, help="trials per size")
        p.add_argument(
            "--preset",
            choices=("paper",),
            help="resolve D and variant hyperparameters from the tuned preset table",
        )
        p.add_argument("--presets-path", help="CSV file replacing the built-in preset table")
        p.add_argument("--master-seed", type=int)
        p.add_argument("--parallelism", type=int)
        p.add_argument(
            "-o", "--output", default="-" if name == "sweep" else None,
            help="report destination ('-' for stdout)",
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=handler)

    p = sub.add_parser("oracle-check", help="compare decodes against exhaustive search")
    _add_common(p)
    _add_problem_flags(p)
    _add_variant_flags(p)
    _add_run_flags(p)
    p.add_argument("--trials", type=int, help="number of seeded trials (default 50)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--cap", type=int, help=f"oracle size cap (default {DEFAULT_ORACLE_CAP})")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("presets", help="print the tuned hyperparameter table")
    p.add_argument("-F", "--factors", dest="F", type=int, help="only this factor count")
    p.add_argument("--size", type=int, help="resolve one size (needs --factors and --variant)")
    p.add_argument("--variant", choices=("brn", "imf", "acf"))
    p.add_argument("--presets-path", help="CSV file replacing the built-in preset table")
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
