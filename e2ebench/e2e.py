"""End-to-end benchmark of the repro pipeline: four workloads, host-time
and simulated metrics, and an outside-in per-layer ledger.

One command::

    python3 e2ebench/e2e.py [--seed S]

runs every workload round-robin — 5 untraced rounds, then one traced
round — checks every run, prints each metric with its unit (median, max,
sample count), and writes ``.e2ebench/results.json``.  One workload for a
fixed time, printing one JSON result as the last line::

    python3 e2ebench/e2e.py --workload W --seed S --seconds N --trace 0|1

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.  Every
repetition is a fresh ``pipeline.py`` process, one at a time.  The exit
code is non-zero when any check failed.  ``--pin`` rewrites the seed-0
expectations in ``expected.json``; ``--src`` points the children at
another source tree (``ab.py`` uses it).

This process never imports the program under test: only the children do,
from ``--src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from pipeline import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(ROOT, ".e2ebench")
#: a repetition (at most ~10 s, traced) that takes longer than this has
#: hung; small enough that a hung run still ends well inside 180 s
CHILD_TIMEOUT_S = 60
#: the simulated outcome reported as per-layer ``sim.*`` metrics
SIM_KEYS = ("competitive_ratio", "p99_latency_steps", "goodput", "miss_frac")
#: children stay single-threaded and hash-deterministic
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def host_meta() -> dict:
    """Host stamp; the same fields ``benchmarks/_util.host_meta`` records."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.system().lower(),
    }


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_expected() -> dict:
    try:
        with open(EXPECTED_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"seed": None, "workloads": {}}


class Runs:
    """Every repetition of one workload at one seed, and their checks."""

    def __init__(self, name: str, seed: int, src: str, expected: dict) -> None:
        self.name = name
        self.seed = seed
        self.src = src
        pinned = expected["workloads"].get(name) if expected.get("seed") == seed else None
        self.pinned: Optional[dict] = pinned
        self.reference: Optional[dict] = None
        self.plain: List[dict] = []
        self.traced: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._outcome: Optional[dict] = None

    def child(self, mode: str, *, digest: bool = False, save_trace: Optional[str] = None) -> dict:
        cmd = [
            sys.executable, os.path.join(HERE, "pipeline.py"), "--src", self.src,
            "--workload", self.name, "--seed", str(self.seed), "--mode", mode,
        ]
        if digest:
            cmd.append("--digest")
        if save_trace:
            cmd += ["--save-trace", save_trace]
        if mode == "traced" and not self.traced:
            os.makedirs(OUT_DIR, exist_ok=True)
            cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{self.name}-seed{self.seed}.jsonl")]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                env={**os.environ, **CHILD_ENV}, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            return {"mode": mode, "failures": [f"timed out after {CHILD_TIMEOUT_S}s"]}
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"mode": mode, "failures": [f"exited {proc.returncode}: {' | '.join(tail)}"]}
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def _check(self, rep: dict) -> dict:
        """Count the repetition; record every failed check."""
        self.attempted += 1
        problems = list(rep.get("failures", ()))
        reference = self.reference or {}
        outcome = rep.get("outcome")
        if outcome is not None:
            ref = reference.get("outcome", {})
            if any(outcome.get(k) != v for k, v in ref.items()):
                problems.append(f"outcome {outcome} disagrees with the reference run {ref}")
            # The counters-mode reference reports the engine outcome only.
            if rep.get("mode") != "counters":
                if self._outcome is None:
                    self._outcome = outcome
                elif outcome != self._outcome:
                    problems.append(f"outcome {outcome} differs from an earlier repetition")
            if self.pinned is not None and outcome != {
                k: self.pinned["outcome"][k] for k in outcome
            }:
                problems.append(f"outcome {outcome} != pinned {self.pinned['outcome']}")
        for field in ("digest", "steps"):
            want = (self.pinned or reference).get(field)
            if field in rep and want is not None and rep[field] != want:
                problems.append(f"{field} {rep[field]} != expected {want}")
        if problems:
            self.failed += 1
            self.problems += [f"{self.name} seed {self.seed} {rep.get('mode', '?')}: {p}"
                              for p in problems]
        return rep

    def run_reference(self) -> None:
        """Untimed run with a CountersProbe: engine steps, trace digest."""
        self.reference = self._check(self.child("counters", digest=True))

    def rep(self, mode: str) -> dict:
        digest = mode == "plain" and not self.plain
        rep = self._check(self.child(mode, digest=digest))
        if "wall_s" in rep:
            (self.plain if mode == "plain" else self.traced).append(rep)
        return rep

    def replay_check(self) -> None:
        """Cross-check through the CLI: ``repro replay`` re-certifies an
        archived trace of this workload, regenerates its workload from it
        and replays the schedule; makespan and transaction count must
        match, with no deadline miss."""
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{self.name}-seed{self.seed}.json")
        rep = self._check(self.child("plain", save_trace=path))
        if "outcome" not in rep:
            return
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "replay", "--topology",
             WORKLOADS[self.name]["topology"], "--trace", path, "--json"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            env={**os.environ, **CHILD_ENV, "PYTHONPATH": self.src}, cwd=ROOT,
        )
        want = {"archived_makespan": rep["outcome"]["makespan"],
                "replayed_makespan": rep["outcome"]["makespan"],
                "txns": rep["outcome"]["txns"], "deadline_misses": 0}
        try:
            got = json.loads(proc.stdout) if proc.returncode == 0 else {}
        except json.JSONDecodeError:
            got = {}
        failures = []
        if {k: got.get(k) for k in want} != want:
            failures.append(f"repro replay gave {got or proc.stderr.strip()}, expected {want}")
        self._check({"mode": "replay", "failures": failures})

    # -- metrics ------------------------------------------------------
    def end_to_end(self) -> Dict[str, List[float]]:
        steps = (self.reference or {}).get("steps", 0)
        return {
            "wall_s": [r["wall_s"] for r in self.plain],
            "setup_s": [r["setup_s"] for r in self.plain],
            "txns_per_s": [r["committed"] / r["wall_s"] for r in self.plain],
            "sim_steps_per_s": [steps / r["phases"]["engine"] for r in self.plain],
            "peak_rss_mib": [r["rss_mib"] for r in self.plain],
        }

    def per_layer(self) -> Dict[str, List[float]]:
        samples: Dict[str, List[float]] = {}
        for rep in self.traced:
            for key, value in rep["layers"].items():
                samples.setdefault(key, []).append(value)
            for key in SIM_KEYS:
                samples.setdefault(f"sim.{key}", []).append(rep["outcome"].get(key) or 0.0)
        if self.traced and self.plain:
            overhead = (
                statistics.median(r["wall_s"] for r in self.traced)
                / statistics.median(r["wall_s"] for r in self.plain)
            )
            samples["tracing_overhead"] = [overhead]
        return samples


def run_rounds(runs: Dict[str, Runs], modes, *, rounds: Optional[int] = None,
               seconds: Optional[float] = None) -> None:
    """Round-robin repetitions: one per workload and mode per round.

    With ``seconds`` a new round starts only while the last round's
    duration still fits in the remaining time; at least one round runs."""
    start = time.perf_counter()
    done = 0
    while True:
        t0 = time.perf_counter()
        for r in runs.values():
            for mode in modes:
                r.rep(mode)
        done += 1
        if rounds is not None and done >= rounds:
            return
        if seconds is not None:
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                return


def summarize(samples: Dict[str, List[float]], units: Dict[str, str]) -> Dict[str, dict]:
    """Median, max and sample count of every metric in ``units``."""
    out = {}
    for name, unit in units.items():
        values = samples.get(name, [])
        if values:
            out[name] = {
                "value": statistics.median(values), "max": max(values),
                "n": len(values), "unit": unit,
            }
    return out


def layer_units(bench: dict, samples: Dict[str, List[float]]) -> Dict[str, str]:
    """Units of the per-layer metrics, plus the layer times that
    ``BENCHMARK.json`` leaves out because they read exactly 0 on the
    workloads that bypass the layer (``service.self_s`` and the like)."""
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    units.update({k: "s" for k in samples if k.endswith("_s") and k not in units})
    return units


def print_table(title: str, rows: Dict[str, dict]) -> None:
    print(f"\n{title}")
    width = max((len(k) for k in rows), default=10)
    print(f"  {'metric':<{width}}  {'median':>14}  {'max':>14}  {'n':>3}  unit")
    for name, m in rows.items():
        print(f"  {name:<{width}}  {m['value']:>14.6g}  {m['max']:>14.6g}  {m['n']:>3}  {m['unit']}")


def pin(src: str, seed: int) -> int:
    """Rewrite ``expected.json`` from fresh runs at ``seed``."""
    doc = {"seed": seed, "workloads": {}}
    for name in WORKLOADS:
        runs = Runs(name, seed, src, {"workloads": {}})
        runs.run_reference()
        runs.rep("plain")
        if runs.failed or not runs.plain:
            print("\n".join(runs.problems), file=sys.stderr)
            return 1
        doc["workloads"][name] = {
            "digest": runs.reference["digest"],
            "steps": runs.reference["steps"],
            "outcome": runs.plain[0]["outcome"],
        }
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload for --seconds (default: all, in rounds)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="source tree whose repro package is measured")
    ap.add_argument("--pin", action="store_true", help="rewrite expected.json and exit")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    if args.pin:
        return pin(src, args.seed)
    bench = load_benchmark()
    expected = load_expected()
    load_before = os.getloadavg()[0]
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = {n: Runs(n, args.seed, src, expected) for n in names}
    for r in runs.values():
        r.run_reference()
    if args.workload:
        modes = ("plain", "traced") if args.trace else ("plain",)
        run_rounds(runs, modes, seconds=args.seconds)
    else:
        run_rounds(runs, ("plain",), rounds=5)
        run_rounds(runs, ("traced",), rounds=1)
        if args.seed == expected.get("seed"):
            runs["dense-closed"].replay_check()
    load_after = os.getloadavg()[0]

    attempted = sum(r.attempted for r in runs.values())
    failed = sum(r.failed for r in runs.values())
    results = {}
    for name, r in runs.items():
        layer_samples = r.per_layer()
        results[name] = {
            "end_to_end": summarize(
                r.end_to_end(), {m["name"]: m["unit"] for m in bench["end_to_end"]}
            ),
            "per_layer": summarize(layer_samples, layer_units(bench, layer_samples)),
            "failed_frac": r.failed / max(1, r.attempted),
            "attempted": r.attempted,
        }
        if not args.workload or not args.trace:
            print_table(f"{name} (seed {args.seed}) end-to-end", results[name]["end_to_end"])
        if not args.workload or args.trace:
            print_table(f"{name} (seed {args.seed}) per-layer", results[name]["per_layer"])
        print(f"  failed_frac {results[name]['failed_frac']:.3g} "
              f"({r.failed}/{r.attempted} runs)")
    problems = [p for r in runs.values() for p in r.problems]
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    meta = {"host": host_meta(), "loadavg_1m": [load_before, load_after], "seed": args.seed}
    print(f"\nhost {meta['host']}  1-min load {load_before:.2f} -> {load_after:.2f}")

    if not args.workload:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "results.json")
        with open(path, "w") as fh:
            json.dump({**meta, "workloads": results, "problems": problems}, fh, indent=2)
        print(f"wrote {path}")
        return 1 if failed else 0

    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    measured = results[args.workload]["per_layer" if args.trace else "end_to_end"]
    missing = [name for name in wanted if name not in measured]
    if missing:
        print(f"FAILED metrics not measured: {missing}", file=sys.stderr)
    correct = not failed and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": measured[name]["value"], "unit": measured[name]["unit"]}
            for name in wanted if name in measured
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
