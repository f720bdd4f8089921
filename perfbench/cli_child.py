"""Run `splitburg.cli.main` in this interpreter, as the `splitburg` script would.

    python3 cli_child.py MARKER.json run CONFIG --out DIR --jobs N

The package is not installed as a script and has no `__main__`, so this is
how the benchmark runs the real CLI.  Everything after the first argument is
passed to the CLI unchanged.  The first argument names a JSON file this
wrapper writes after the CLI returns: the CLOCK_MONOTONIC time at which
`parse_config_file` returned (the end of set-up) and the peak resident memory
of this process.  The wrapper imports nothing the CLI does not, so set-up,
run time and memory are the program's own.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import splitburg.cli as cli


def main() -> int:
    marker, argv = sys.argv[1], sys.argv[2:]
    parsed_at: list[float] = []
    parse = cli.parse_config_file

    def timed_parse(path):
        cfg = parse(path)
        parsed_at.append(time.monotonic())
        return cfg

    cli.parse_config_file = timed_parse
    code = cli.main(argv)
    with open(marker, "w", encoding="utf-8") as fh:
        json.dump({
            "parsed_at": parsed_at[0] if parsed_at else None,
            "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
