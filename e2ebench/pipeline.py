"""One timed repetition of the end-to-end pipeline, run in a fresh process.

``e2e.py`` starts this script once per repetition, so every repetition
pays the interpreter-level cost a user pays on each ``python -m repro
run``: importing the package.  The script calls the same public functions
``repro run`` / ``repro serve`` call, each timed on its own:

* ``parse_topology`` and the workload constructor,
* ``Simulator(...)`` and ``.run()``,
* ``certify_trace`` (closed workloads),
* ``competitive_ratio`` + ``summarize`` (closed) or ``slo_summary`` (open).

It prints one JSON object: the phase times, peak RSS, the simulated
outcome (the fingerprint every repetition of one seed must reproduce),
the correctness-check failures, and — in ``traced`` mode — the per-layer
ledger from :mod:`layers`.

Usage (normally driven by ``e2e.py``)::

    python3 e2ebench/pipeline.py --src src --workload dense-closed --seed 0 \
        --mode plain|counters|traced [--digest] [--spans PATH] [--save-trace PATH]

``counters`` mode is the untimed reference run: a ``CountersProbe`` for
the engine step count, and no certifier or analysis.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

#: The four workloads.  Closed workloads draw a *fixed* number of
#: transactions per step at distinct seeded-random homes: the mean of the
#: Bernoulli process ``repro run --workload bernoulli`` uses, without its
#: binomial count noise.  Run cost grows faster than linearly with the
#: transaction count (the backlog grows), so count noise would otherwise
#: dominate the seed-to-seed spread of every host-time metric.
WORKLOADS = {
    # Every step active, 8 objects shared by a growing backlog: tracker +
    # scheduler dominate.
    "dense-closed": dict(
        topology="clique:64", objects=8, k=2, per_step=19, horizon=64,
    ),
    # n = 10^4 nodes, 10 transactions a step: network oracle + ratio
    # analysis do almost all the work, tracker/scheduler almost none.
    "sparse-huge": dict(
        topology="grid:100x100", objects=64, k=2, per_step=10, horizon=12,
    ),
    # Reads beside writes on Zipf-hot objects: long scheduled columns and
    # many read copies, so the certifier is a large share.
    "hot-readmix": dict(
        topology="clique:64", objects=32, k=3, per_step=13, horizon=80,
        zipf=1.2, read_fraction=0.5,
    ),
    # Open loop at about twice the greedy stability rate, deadline-EDF
    # admission: spine, transport and the service front-end run hot.
    "serve-overload": dict(
        topology="grid:5x5", objects=8, k=2, lam=4.0, policy="deadline-edf",
        queue_cap=32, deadline=40, until=1200, warmup=300,
    ),
}

CLOSED = ("dense-closed", "sparse-huge", "hot-readmix")


class Phases:
    """Wall time per pipeline phase; opens a layer span when traced."""

    def __init__(self) -> None:
        self.seconds = {}
        self.tracer = None

    @contextmanager
    def __call__(self, name: str, layer: str):
        span = self.tracer.span(layer, name) if self.tracer is not None else None
        if span is not None:
            span.__enter__()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start
            if span is not None:
                span.__exit__(None, None, None)


def fixed_rate_workload(graph, spec: dict, seed: int):
    """Exactly ``per_step`` transactions per step for ``horizon`` steps."""
    import numpy as np

    from repro.workloads import (
        OnlineWorkload,
        TxnSpec,
        UniformChooser,
        ZipfChooser,
        place_objects_uniform,
    )

    rng = np.random.default_rng(seed)
    placement = place_objects_uniform(graph, spec["objects"], rng)
    zipf = spec.get("zipf", 0.0)
    chooser = (
        ZipfChooser(spec["objects"], zipf) if zipf > 0 else UniformChooser(spec["objects"])
    )
    read_fraction = spec.get("read_fraction", 0.0)
    specs = []
    for t in range(spec["horizon"]):
        homes = rng.choice(graph.num_nodes, size=spec["per_step"], replace=False)
        for home in sorted(int(h) for h in homes):
            objs = chooser.choose(home, spec["k"], rng)
            writes, reads = [], []
            for o in objs:
                (reads if read_fraction > 0 and rng.random() < read_fraction else writes).append(o)
            specs.append(TxnSpec(t, home, tuple(writes), reads=tuple(reads)))
    return OnlineWorkload(placement, specs)


def trace_digest(trace) -> str:
    from repro.sim.serialize import trace_to_dict

    blob = json.dumps(trace_to_dict(trace), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def trace_rows(trace) -> int:
    return sum(
        len(getattr(trace, name, ()))
        for name in ("txns", "legs", "copy_legs", "sheds", "expiries")
    )


def run_pipeline(name: str, seed: int, mode: str, phases: Phases):
    """Import, build, run, certify and analyse one workload instance;
    returns the result record and the trace."""
    spec = WORKLOADS[name]
    if mode == "traced":
        import layers

        phases.tracer = layers.Tracer()
    with phases("import", "import"):
        from repro.analysis.metrics import summarize
        from repro.analysis.ratios import competitive_ratio
        from repro.analysis.slo import slo_summary
        from repro.cli import make_scheduler, parse_topology
        from repro.obs import CountersProbe
        from repro.service import ServiceConfig
        from repro.sim.config import SimConfig
        from repro.sim.engine import Simulator
        from repro.sim.validate import certify_trace
        from repro.workloads import WorkloadSpec

        if phases.tracer is not None:
            phases.tracer.install()
    with phases("topology", "network"):
        graph = parse_topology(spec["topology"])
    with phases("workload", "workloads"):
        if name in CLOSED:
            workload = fixed_rate_workload(graph, spec, seed)
        else:
            workload = WorkloadSpec.make(
                "poisson-open", seed=seed, objects=spec["objects"], k=spec["k"],
                lam=spec["lam"],
            ).build(graph)
    probe = CountersProbe() if mode in ("counters", "traced") else None
    with phases("simulator", "engine"):
        scheduler, speed = make_scheduler("greedy", graph)
        service = None
        if name not in CLOSED:
            service = ServiceConfig(
                policy=spec["policy"], queue_cap=spec["queue_cap"],
                deadline=spec["deadline"], seed=seed,
            )
        sim = Simulator(
            graph, scheduler, workload,
            config=SimConfig(object_speed_den=speed, probe=probe, service=service),
        )
    setup_s = time.perf_counter() - T0
    failures = []
    with phases("engine", "engine"):
        if name in CLOSED:
            trace = sim.run()
        else:
            trace = sim.run(until=spec["until"], warmup=spec["warmup"])
    # The counters-mode reference run only needs the engine's outcome.
    analyse = mode != "counters"
    ratio_samples = 0
    if name in CLOSED:
        committed = len(trace.txns)
        outcome = {"txns": committed, "makespan": trace.makespan()}
        if analyse:
            with phases("certify", "certifier"):
                issues = certify_trace(graph, trace, raise_on_failure=False)
            failures += [f"certify: {issue}" for issue in issues[:5]]
            with phases("analysis", "analysis"):
                ratio, points = competitive_ratio(graph, trace)
                metrics = summarize(trace)
            outcome["competitive_ratio"] = ratio
            outcome["p99_latency_steps"] = metrics.p99_latency
            ratio_samples = len(points)
    else:
        svc = trace.meta["service"]
        opened = trace.meta["open"]
        committed = opened["committed"]
        outcome = {
            "generated": opened["generated"],
            "committed": committed,
            "shed": svc["shed"],
            "expired": svc["expired"],
            "miss_frac": (svc["shed"] + svc["expired"]) / max(1, svc["submitted"]),
        }
        if svc["submitted"] != svc["admitted"] + svc["shed"] + svc["queue_final"]:
            failures.append(f"conservation: submitted != admitted + shed + queue_final ({svc})")
        if opened["generated"] != committed + svc["expired"] + opened["backlog"]:
            failures.append(f"conservation: generated != committed + expired + backlog ({opened})")
        if committed != len(trace.txns) or svc["expired"] != len(trace.expiries):
            failures.append("conservation: meta totals disagree with trace records")
        if analyse:
            with phases("analysis", "analysis"):
                slo = slo_summary(trace)
            outcome["goodput"] = slo.goodput
            outcome["p99_latency_steps"] = slo.p99
    wall_s = time.perf_counter() - T0
    out = {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "phases": phases.seconds,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "committed": committed,
        "outcome": outcome,
        "failures": failures,
    }
    if probe is not None:
        out["steps"] = probe.counters.get("steps", 0)
    if phases.tracer is not None:
        import layers

        svc = trace.meta.get("service") or {}
        out["layers"] = phases.tracer.ledger(
            wall_s=wall_s,
            steps=out["steps"],
            extra={
                "scheduler.scheduled": phases.tracer.calls("Simulator.commit_schedule"),
                "trace.rows": trace_rows(trace),
                "service.admitted": svc.get("admitted", 0),
                "service.shed": svc.get("shed", 0),
                "service.expired": svc.get("expired", 0),
                "service.queue_peak": svc.get("queue_peak", 0),
                "analysis.ratio_samples": ratio_samples,
                "workloads.specs": (
                    len(workload.arrivals()) if name in CLOSED
                    else phases.tracer.calls("arrival_stream.next")
                ),
            },
        )
        failures += phases.tracer.check(
            out["layers"], layers.expected_layers(name in CLOSED), wall_s
        )
    return out, trace


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the repro package")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "counters", "traced"), default="plain")
    ap.add_argument("--digest", action="store_true", help="add the trace sha256 (untimed)")
    ap.add_argument("--spans", help="write the traced run's spans here as JSONL")
    ap.add_argument("--save-trace", help="archive the trace here (untimed)")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    phases = Phases()
    out, trace = run_pipeline(args.workload, args.seed, args.mode, phases)
    if args.digest:
        out["digest"] = trace_digest(trace)
    if args.save_trace:
        from repro.sim.serialize import save_trace

        save_trace(trace, args.save_trace)
    if args.spans and phases.tracer is not None:
        phases.tracer.write_spans(args.spans)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
