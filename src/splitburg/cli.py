"""Command line driver.

    splitburg run <config> [--out DIR] [--jobs N] [--quiet]
    splitburg validate <config>

Exit codes, for both subcommands: 0 success (and --help); 1 a configuration
or usage error (such as an unknown subcommand or `--jobs x`), printed as
`config error: ...` or by argparse; 2 any other failure, printed as
`<command> failed: <Type>: <message>`, or a `run` with a failed cell or a
cell without usable samples.  The output directory is --out when given, else
the config's output_dir.
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config_file
from .errors import ConfigError
from .runner import CsvWriter, reference_endpoint, run_matrix


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
                     help="output directory (overrides the config's output_dir)")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes, at most one per usable CPU; "
                          "1 runs in-process (default)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress the summary report on stdout")

    validate = sub.add_parser(
        "validate", help="parse and cross-check a configuration, its noise-free "
                         "baselines included, without running the matrix"
    )
    validate.add_argument("config", help="path to a YAML run configuration")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 means a failed cell here
        return 1 if exc.code else 0

    # one failure path for both commands: a ConfigError exits 1, anything
    # else exits 2 with its type, and neither prints a traceback
    try:
        cfg = parse_config_file(args.config)
        if args.command == "validate":
            # the noise-free baselines `run` measures against refuse an
            # unstable dt, so `validate` builds them too
            for dt in cfg.dt_ladder:
                reference_endpoint(cfg, dt)
            print(
                f"configuration OK: {len(cfg.cells())} scheme cell(s) x "
                f"{len(cfg.dt_ladder)} dt level(s) x {len(cfg.seeds)} seed(s)"
            )
            return 0
        # only this process writes: the pool's outcomes come back to it
        writer = CsvWriter(args.out or cfg.output_dir)
        rows, _, stats = run_matrix(cfg, jobs=args.jobs, on_outcome=writer.write)
        # reported whenever the matrix ran, so a run without a summary says why
        for label, dt, seed, message in stats.failures:
            print(f"cell failure: {label} dt={dt:g} seed={seed}: {message}",
                  file=sys.stderr)
        for label, why in stats.empty_cells:
            print(f"cell without usable samples: {label}: {why}", file=sys.stderr)
        summary_path = writer.finish(rows)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        print(f"wrote {summary_path} with {len(rows)} row(s)")
        print(f"total integrated steps: {stats.total_steps}")
    return 0 if stats.clean else 2


if __name__ == "__main__":
    sys.exit(main())
