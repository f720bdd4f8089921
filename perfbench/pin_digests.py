"""Record the correctness digests of every workload at given seeds in digests.json.

    python3 perfbench/pin_digests.py --seeds 0 1 2

Runs the CLI once at --jobs 1 for each workload of BENCHMARK.json and each
seed, and stores the sha256 digests of summary.csv (without wall_time),
profiles/ and residuals/.  The file holds pins for one set of numerics (numpy
and scipy versions and SIMD targets); pinning under other numerics replaces
every pin, so then pass every seed that should stay pinned.  Re-pin only for
a change that is meant to alter the outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    pins = json.loads(run.PINS.read_text())
    made_with = run.numerics()
    if pins["numerics"] != made_with:
        print(f"numerics changed from {pins['numerics']!r}; dropping every old pin")
        pins = {"numerics": made_with, "digests": {}}
    run.RUNS.mkdir(exist_ok=True)
    for workload in (w["name"] for w in run.load_spec()["workloads"]):
        for seed in args.seeds:
            work = Path(tempfile.mkdtemp(dir=run.RUNS, prefix="pin-"))
            try:
                cfg = run.make_config(workload, seed, work)
                out = work / "out"
                done = run.run_cli(["run", str(cfg), "--out", str(out), "--jobs", "1"], work)
                if done["code"] != 0:
                    raise SystemExit(f"{workload} seed {seed}: CLI exited "
                                     f"{done['code']}\n{done['stderr']}")
                pins["digests"].setdefault(workload, {})[str(seed)] = \
                    run.output_digests(out)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"pinned {workload} seed {seed}")
    run.PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
