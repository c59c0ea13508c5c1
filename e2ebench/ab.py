"""Same-session A/B of the end-to-end benchmark: BASE_REF against HEAD.

    python3 e2ebench/ab.py BASE_REF [--pairs 10] [--seconds 25] [--seed 1]
                                    [--workloads dense-closed,...]

``BASE_REF``'s ``src/`` is exported with ``git archive`` into
``.e2ebench/ab/<sha>/`` (no worktree bookkeeping is left in ``.git``);
HEAD is the working tree's ``src/``.  Both sides run *this* checkout's
benchmark code — ``e2e.py --src <side>`` — one process at a time.  Pair
``i`` runs both sides on seed ``--seed + i``, alternating which side goes
first, with the workloads interleaved inside each pair round.

For every end-to-end metric × workload it prints each side's median and
quartiles, HEAD/BASE, and the fraction of pairs HEAD won (ties count for
neither).  The verdict follows the benchmark's rules: ``gain`` when HEAD
wins at least 9/10 of the pairs and the medians differ by more than
BASE's interquartile range; ``regression`` when HEAD's median is worse by
more than the metric's bound; ``unresolved`` when BASE's own spread
exceeds the bound (unless HEAD won every pair); ``no change`` otherwise.
The default seeds start at 1, so the seed-0 pins never decide a verdict.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def export_src(ref: str) -> str:
    """``ref``'s ``src/`` tree under ``.e2ebench/ab/<sha>``; returns its ``src``."""
    sha = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", f"{ref}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    dest = os.path.join(ROOT, ".e2ebench", "ab", sha)
    src = os.path.join(dest, "src")
    if not os.path.isdir(src):
        blob = subprocess.run(
            ["git", "-C", ROOT, "archive", "--format=tar", sha, "src"],
            capture_output=True, check=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(dest, filter="data")
    return src


def run_side(src: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "e2e.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--src", src],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if not result.get("correct"):
        print(f"  {workload} seed {seed} on {src}: FAILED ({proc.stderr.strip()[-300:]})",
              file=sys.stderr)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: dict, base: list, head: list) -> tuple:
    lower = metric["better"] == "lower"
    frac = sum((h < b) if lower else (h > b) for b, h in zip(base, head)) / len(base)
    q1, med_b, q3 = quartiles(base)
    med_h = statistics.median(head)
    worse = (med_h - med_b) / med_b if lower else (med_b - med_h) / med_b
    all_better = max(head) < min(base) if lower else min(head) > max(base)
    if frac >= 0.9 and abs(med_h - med_b) > q3 - q1:
        return frac, "gain"
    if (q3 - q1) / med_b > metric["bound"] and not all_better:
        return frac, "unresolved"
    if worse > metric["bound"]:
        return frac, "regression"
    return frac, "no change"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_ref")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma list (default: all)")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    sides = {"base": export_src(args.base_ref), "head": os.path.join(ROOT, "src")}
    results = {w: {"base": [], "head": []} for w in workloads}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for w in workloads:
            for side in order:
                results[w][side].append(run_side(sides[side], w, args.seed + i, seconds))
            print(f"pair {i + 1}/{args.pairs} {w} done", file=sys.stderr)
    failed = 0
    for w in workloads:
        runs = results[w]
        ok = [j for j in range(args.pairs)
              if runs["base"][j].get("correct") and runs["head"][j].get("correct")]
        failed += args.pairs - len(ok)
        print(f"\n{w}: {len(ok)}/{args.pairs} pairs correct on both sides")
        print(f"  {'metric':<16} {'base median [q1, q3]':>32} {'head median [q1, q3]':>32}"
              f" {'head/base':>9} {'won':>5}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = [runs["base"][j]["metrics"][name]["value"] for j in ok]
            head = [runs["head"][j]["metrics"][name]["value"] for j in ok]
            if not base:
                continue
            bq, hq = quartiles(base), quartiles(head)
            frac, word = verdict(metric, base, head)
            print(f"  {name:<16} {bq[1]:>12.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
                  f" {hq[1]:>12.5g} [{hq[0]:.5g}, {hq[2]:.5g}] {hq[1] / bq[1]:>9.3f}"
                  f" {frac:>5.2f}  {word}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
