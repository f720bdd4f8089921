"""Command line driver.

    splitburg run <config> [--out DIR] [--jobs N] [--quiet]
    splitburg validate <config>

Exit codes: 0 success, 1 configuration error, 2 runtime failure in any cell.
The output directory resolves as --out, then the SPLITBURG_OUT environment
variable, then the config's output_dir.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import parse_config_file
from .errors import ConfigError
from .runner import CsvWriter, run_matrix

OUT_ENV_VAR = "SPLITBURG_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitburg",
        description="Operator-splitting ensemble studies of the stochastic "
                    "Burgers' equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="execute the scheme x dt x seed matrix and write CSV outputs"
    )
    run.add_argument("config", help="path to a YAML run configuration")
    run.add_argument("--out", default=None,
                     help=f"output directory (overrides {OUT_ENV_VAR} and the config)")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes, at most one per usable CPU; "
                          "1 runs in-process (default)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress the summary report on stdout")

    validate = sub.add_parser(
        "validate", help="parse and cross-check a configuration without running"
    )
    validate.add_argument("config", help="path to a YAML run configuration")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        cfg = parse_config_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(
            f"configuration OK: {len(cfg.cells())} scheme cell(s) x "
            f"{len(cfg.dt_ladder)} dt level(s) x {len(cfg.seeds)} seed(s)"
        )
        return 0

    out_dir = args.out or os.environ.get(OUT_ENV_VAR) or cfg.output_dir
    try:
        # only this process writes: the pool's outcomes come back to it
        writer = CsvWriter(out_dir, cfg.make_grid().centers)
        rows, _, stats = run_matrix(cfg, jobs=args.jobs, on_outcome=writer.write)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    # reported whenever the matrix ran, so a run without a summary says why
    for label, dt, seed, message in stats.failures:
        print(f"cell failure: {label} dt={dt:g} seed={seed}: {message}",
              file=sys.stderr)
    for label, why in stats.empty_cells:
        print(f"cell without usable samples: {label}: {why}", file=sys.stderr)
    try:
        summary_path = writer.finish(rows)
    except Exception as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        print(f"wrote {summary_path} with {len(rows)} row(s)")
        print(f"total integrated steps: {stats.total_steps}")
    return 0 if stats.clean else 2


if __name__ == "__main__":
    sys.exit(main())
