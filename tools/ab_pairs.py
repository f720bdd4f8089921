"""Alternating A/B pairs of the pinned benchmark between two checkouts.

    python3 tools/ab_pairs.py PARENT CHANGE --workload adaptive --seed 1 --pairs 10

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in each checkout, each checkout with its own run.py and sources; which
side runs first alternates from pair to pair, and each good pair's line is
followed by both sides' values of every end-to-end metric, so every run is
reported.  T is --seconds, 0 unless given.  At 0 run.py makes one round of
CLI runs, two at --jobs 1 and one at --jobs 2; a longer T lets it make more
rounds, so each side's `study_s_jobs2` is a median over several runs too.
For every end-to-end metric of the parent's BENCHMARK.json it then prints
both sides' medians, their ratio (change / parent), the parent's
interquartile range, and how many pairs the change won in the metric's
better direction (ties count for neither side).

A metric is flagged `resolved` only when at least ten pairs ran, the
change won at least nine tenths of them, and the medians differ by more
than the parent's interquartile range.  `within bound` says whether the
change's median is no worse than the parent's by more than the metric's
relative bound.  A pair fails when either run exits without its JSON line
or prints `"correct": false`, and its line then names each failed side, its
exit code and the last line of its stderr; so does a run that outlives its
time limit, RUN_TIMEOUT_S past its --seconds, named as `timed out after N
s`.  Such a run is killed with the CLI study it started and that study's
pool workers, so the pairs after it do not share the host with them.  A
failed pair gives neither side a value and counts as a pair the change
did not win.  Nothing under either checkout's perfbench/ is edited;
run.py keeps its scratch runs in its own checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

#: the limit on one run.py invocation, past its --seconds
RUN_TIMEOUT_S = 1200


def _run(argv: list[str], cwd: Path, timeout: float) -> subprocess.CompletedProcess:
    """`subprocess.run(argv, cwd=cwd, timeout=timeout)` with the output
    captured as text, except that a timeout kills the whole run.  run.py
    starts each CLI study in a session of its own, where the study's pool
    workers also live, so killing run.py alone would leave the study
    running.  run.py is stopped, its children are read from Linux's
    /proc/PID/task/*/children, and run.py's process group and each child's
    are killed.  Where /proc is missing only run.py's group is killed."""
    with subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGSTOP)  # so it starts no child past this read
            children = [int(pid) for f in Path(f"/proc/{proc.pid}/task").glob("*/children")
                        for pid in f.read_text().split()]
            for group in (proc.pid, *children):
                try:
                    os.killpg(group, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict | str:
    """One untraced benchmark run: its metric values, or if it failed, why:
    its exit code and the last line of its stderr, or the time limit it
    ran past (`_run` then kills it)."""
    timeout = RUN_TIMEOUT_S + seconds
    try:
        proc = _run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"timed out after {timeout:g} s"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is not None and result.get("correct") is True:
        return {name: m["value"] for name, m in result["metrics"].items()}
    stderr = (proc.stderr or "").strip().splitlines()
    return (f"{'no JSON line' if result is None else 'not correct'}, exit "
            f"{proc.returncode}, "
            + (f"last stderr line {stderr[-1]!r}" if stderr else "no stderr"))


def _show(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="run length passed to each run.py (default 0)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    pairs: list[tuple[dict, dict] | None] = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        got = {side: run_once(getattr(args, side), args.workload, args.seed,
                              args.seconds)
               for side in order}
        failed = [f"{side}: {why}" for side, why in got.items() if isinstance(why, str)]
        pairs.append(None if failed else (got["parent"], got["change"]))
        print(f"pair {k + 1}/{args.pairs} ({order[0]} first): "
              f"{'FAILED, ' + '; '.join(failed) if failed else 'ok'}")
        if not failed:
            for metric in spec["end_to_end"]:
                name = metric["name"]
                print(f"  {name:<18} parent {_show(got['parent'].get(name)):>12} "
                      f"change {_show(got['change'].get(name)):>12}")
        sys.stdout.flush()

    good = [p for p in pairs if p is not None]
    print(f"\nworkload {args.workload}, seed {args.seed}, --seconds "
          f"{args.seconds:g}: {len(good)} of {args.pairs} pairs ok")
    print(f"{'metric':<18} {'parent':>12} {'change':>12} {'ratio':>7} "
          f"{'parent IQR':>11} {'wins':>6}  verdict")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(a[name], b[name]) for a, b in good
                if a.get(name) is not None and b.get(name) is not None]
        if not both:
            print(f"{name:<18} {'n/a':>12}")
            continue
        before = [a for a, _ in both]
        after = [b for _, b in both]
        wins = sum((b < a) if lower else (b > a) for a, b in both)
        med_a, med_b = statistics.median(before), statistics.median(after)
        spread = quartile_spread(before)
        resolved = (args.pairs >= 10 and wins >= 0.9 * args.pairs
                    and abs(med_b - med_a) > spread)
        worse = (med_b - med_a) if lower else (med_a - med_b)
        within = worse <= metric["bound"] * abs(med_a)
        print(f"{name:<18} {med_a:>12.6g} {med_b:>12.6g} "
              f"{med_b / med_a if med_a else float('nan'):>7.4f} "
              f"{spread:>11.4g} {wins:>3}/{args.pairs:<2}  "
              f"{'resolved' if resolved else 'unresolved'}, "
              f"{'within' if within else 'OUTSIDE'} bound {metric['bound']:g}")
    return 0 if len(good) == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
