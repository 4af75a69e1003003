"""Command line front end.

Subcommands: sweep (grid evaluation with CSV/JSON output), verify
appendix (integral closed forms vs quadrature), verify theorems
(ordering chain, bounds, gap function), figure2 (two-panel SVG of the
closed-form curves).  Exit codes: 0 success, 1 verification failure,
2 invalid configuration or I/O problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .experiments import (
    DEFAULT_SIGMA_GRID,
    FIGURE_CODES,
    ConfigError,
    SweepConfig,
    check_ordering,
    closed_form_rows,
    emit_figure2,
    run_sweep,
    verify_appendix,
    verify_theorems,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoqec",
        description="Closed forms and Monte Carlo checks for isotropic "
                    "errors on encoded quantum states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser(
        "sweep", help="evaluate a (code, sigma) grid and write CSV/JSON")
    p_sweep.add_argument("--config", default=None,
                         help="JSON config file (default: built-in grid)")
    p_sweep.add_argument("--csv", dest="csv_path", default=None,
                         help="CSV output path (overrides config)")
    p_sweep.add_argument("--json", dest="json_path", default=None,
                         help="JSON report output path (overrides config)")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="override the RNG seed")
    p_sweep.add_argument("--samples", dest="n_samples", type=int,
                         default=None,
                         help="override the per-estimate sample count")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker threads for Monte Carlo chunks")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a verification report")
    vsub = p_verify.add_subparsers(dest="report", required=True)
    p_appendix = vsub.add_parser(
        "appendix", help="integral closed forms vs adaptive quadrature")
    p_appendix.set_defaults(func=_cmd_verify_appendix)
    p_theorems = vsub.add_parser(
        "theorems", help="ordering chain, variance bounds, gap function")
    p_theorems.set_defaults(func=_cmd_verify_theorems)

    p_figure = sub.add_parser(
        "figure2", help="emit the two-panel closed-form comparison figure")
    p_figure.add_argument("--out", required=True, help="SVG output path")
    p_figure.set_defaults(func=_cmd_figure2)

    return parser


def _cmd_sweep(args) -> int:
    if args.config is not None:
        config = SweepConfig.from_json(args.config)
    else:
        config = SweepConfig.default()
    # each override flag's dest is the SweepConfig field it sets
    overrides = {name: getattr(args, name) for name in (
        "seed", "n_samples", "workers", "csv_path", "json_path")
        if getattr(args, name) is not None}
    config = dataclasses.replace(config, **overrides)
    rows = run_sweep(config)
    violations = check_ordering(rows)
    print(f"{len(rows)} cells evaluated "
          f"({len(config.code_list)} codes x "
          f"{len(config.sigma_grid)} sigma values, "
          f"{config.n_samples} samples per estimate)")
    if config.csv_path is not None:
        print(f"wrote {config.csv_path}")
    if config.json_path is not None:
        print(f"wrote {config.json_path}")
    if violations:
        print(f"{len(violations)} ordering violations beyond 3 combined SE "
              f"or with a NaN estimate:")
        for v in violations:
            print(f"  ({v['n']},{v['m']}) sigma_c={v['sigma_c']:g} "
                  f"{v['pair']}: gap {v['gap']:.3e} > "
                  f"allowed {v['allowed']:.3e}")
        return 1
    print("fidelity ordering holds at every cell (3 combined SE)")
    return 0


def _print_report(report) -> int:
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.passed else 1


def _cmd_verify_appendix(args) -> int:
    return _print_report(verify_appendix())


def _cmd_verify_theorems(args) -> int:
    return _print_report(verify_theorems())


def _cmd_figure2(args) -> int:
    rows = closed_form_rows(FIGURE_CODES, DEFAULT_SIGMA_GRID)
    emit_figure2(rows, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
