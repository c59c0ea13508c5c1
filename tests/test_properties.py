"""End-to-end property tests: random instances, invariant certification.

The central invariant of the whole library: *every* scheduler, on *any*
workload, produces a schedule the independent certifier accepts — objects
physically reach every transaction by its execution time, per-object
serialization respects travel times, and committed execution times are
never revised.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import competitive_ratio, run_experiment
from repro.analysis.lower_bounds import live_set_lower_bound
from repro.analysis.ratios import RatioPoint, _ObjectTimeline
from repro.baselines import FifoSerialScheduler, TspTourScheduler
from repro.core import BucketScheduler, DistributedBucketScheduler, GreedyScheduler
from repro.network import topologies
from repro.offline import ColoringBatchScheduler
from repro.sim.trace import ExecutionTrace, TxnRecord
from repro.sim.transactions import Transaction, TxnSpec
from repro.workloads import ManualWorkload
from repro.sim import SimConfig

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_instances(draw, reads=False):
    """A random small graph + object placement + online arrival sequence.

    With ``reads=True`` each transaction's objects are split at a drawn
    point into a write set and a read set."""
    kind = draw(st.sampled_from(["line", "clique", "grid", "star", "ring"]))
    if kind == "line":
        g = topologies.line(draw(st.integers(3, 12)))
    elif kind == "clique":
        g = topologies.clique(draw(st.integers(3, 10)))
    elif kind == "grid":
        g = topologies.grid([draw(st.integers(2, 4)), draw(st.integers(2, 4))])
    elif kind == "star":
        g = topologies.star_graph(draw(st.integers(2, 4)), draw(st.integers(1, 3)))
    else:
        g = topologies.ring(draw(st.integers(3, 10)))
    n = g.num_nodes
    num_objects = draw(st.integers(1, 5))
    placement = {
        o: draw(st.integers(0, n - 1)) for o in range(num_objects)
    }
    num_txns = draw(st.integers(1, 12))
    specs = []
    t = 0
    for _ in range(num_txns):
        t += draw(st.integers(0, 6))
        home = draw(st.integers(0, n - 1))
        k = draw(st.integers(1, num_objects))
        objs = draw(
            st.lists(
                st.integers(0, num_objects - 1), min_size=k, max_size=k, unique=True
            )
        )
        cut = draw(st.integers(0, len(objs))) if reads else len(objs)
        specs.append(TxnSpec(t, home, tuple(objs[:cut]), reads=tuple(objs[cut:])))
    return g, ManualWorkload(placement, specs)


class TestFeasibilityInvariant:
    @given(random_instances())
    @SETTINGS
    def test_greedy_always_feasible(self, inst):
        g, wl = inst
        res = run_experiment(g, GreedyScheduler(), wl)  # certifier raises on failure
        assert res.trace.num_txns == wl.num_txns

    @given(random_instances())
    @SETTINGS
    def test_bucket_always_feasible(self, inst):
        g, wl = inst
        res = run_experiment(g, BucketScheduler(ColoringBatchScheduler()), wl)
        assert res.trace.num_txns == wl.num_txns

    @given(random_instances())
    @SETTINGS
    def test_distributed_always_feasible(self, inst):
        g, wl = inst
        res = run_experiment(
            g,
            DistributedBucketScheduler(ColoringBatchScheduler(), seed=0),
            wl,
            config=SimConfig(object_speed_den=2),
        )
        assert res.trace.num_txns == wl.num_txns

    @given(random_instances())
    @SETTINGS
    def test_baselines_always_feasible(self, inst):
        g, wl = inst
        r1 = run_experiment(g, FifoSerialScheduler(), wl)
        r2 = run_experiment(g, TspTourScheduler(), wl)
        assert r1.trace.num_txns == r2.trace.num_txns == wl.num_txns


class TestScheduleSemantics:
    @given(random_instances())
    @SETTINGS
    def test_exec_strictly_after_generation(self, inst):
        g, wl = inst
        res = run_experiment(g, GreedyScheduler(), wl)
        for rec in res.trace.txns.values():
            assert rec.exec_time > rec.gen_time

    @pytest.mark.parametrize("order", ["arrival", "degree"])
    @given(inst=random_instances())
    @SETTINGS
    def test_lemma1_color_within_bound(self, order, inst):
        """Lemma 1 on every generated instance: each color is at most the
        logged ``1 + 2*Gamma' - Delta'`` bound of its constraint set."""
        g, wl = inst
        sched = GreedyScheduler(order=order)
        run_experiment(g, sched, wl)
        assert len(sched.color_log) == wl.num_txns
        for tid, color, bound in sched.color_log:
            assert color <= bound, (tid, color, bound)

    @given(random_instances())
    @SETTINGS
    def test_greedy_schedules_at_generation_step(self, inst):
        g, wl = inst
        res = run_experiment(g, GreedyScheduler(), wl)
        for rec in res.trace.txns.values():
            assert rec.schedule_time == rec.gen_time

    @given(random_instances())
    @SETTINGS
    def test_object_exclusivity(self, inst):
        """Per object, acquisition order matches execution order and each
        handover leaves enough travel time (certifier rule re-checked here
        against the engine's committed times)."""
        g, wl = inst
        res = run_experiment(g, GreedyScheduler(), wl)
        by_obj = {}
        for rec in res.trace.txns.values():
            for oid in rec.objects:
                by_obj.setdefault(oid, []).append(rec)
        for oid, recs in by_obj.items():
            recs.sort(key=lambda r: (r.exec_time, r.tid))
            for a, b in zip(recs, recs[1:]):
                assert b.exec_time - a.exec_time >= g.distance(a.home, b.home)


def rescan_competitive_ratio(graph, trace, *, sample_times=None):
    """``competitive_ratio`` as it was before the sweep, verbatim: every
    sample rescans all records for the live set, rebuilds a
    ``Transaction`` per live record and calls ``live_set_lower_bound``."""
    records = list(trace.txns.values())
    if not records:
        return 0.0, []
    legs_by_obj = {oid: [] for oid in trace.initial_placement}
    for leg in trace.legs:
        legs_by_obj.setdefault(leg.oid, []).append(leg)
    timelines = {
        oid: _ObjectTimeline(start, legs_by_obj.get(oid, []))
        for oid, start in trace.initial_placement.items()
    }
    if sample_times is None:
        sample_times = sorted({r.gen_time for r in records})
    points = []
    for t in sample_times:
        live = [r for r in records if r.gen_time <= t < r.exec_time or (r.gen_time == t == r.exec_time)]
        if not live:
            continue
        positions = {oid: tl.position(t) for oid, tl in timelines.items()}
        live_txns = [
            Transaction(r.tid, r.home, frozenset(r.objects), r.gen_time, reads=frozenset(r.reads))
            for r in live
        ]
        lb = live_set_lower_bound(graph, positions, live_txns, trace.object_speed_den)
        worst = max(r.exec_time - t for r in live)
        points.append(RatioPoint(t, len(live), worst, lb))
    overall = max((p.ratio for p in points), default=0.0)
    return overall, points


class TestRatioSweep:
    """The one-pass ``competitive_ratio`` sweep against the per-sample
    rescan it replaced, point for point."""

    @given(random_instances(reads=True), st.data())
    @SETTINGS
    def test_sweep_matches_rescan(self, inst, data):
        g, wl = inst
        speed = data.draw(st.sampled_from([1, 2]))
        trace = run_experiment(
            g, GreedyScheduler(), wl, config=SimConfig(object_speed_den=speed),
            compute_ratios=False,
        ).trace
        assert competitive_ratio(g, trace) == rescan_competitive_ratio(g, trace)
        # Caller-supplied times: unsorted, duplicated, before the first
        # arrival and past the makespan.
        gens = sorted({r.gen_time for r in trace.txns.values()})
        end = trace.makespan()
        extra = data.draw(st.lists(st.integers(-2, end + 2), max_size=8))
        times = data.draw(st.permutations([gens[0] - 1, end + 1, *gens, *gens[:2], *extra]))
        got = competitive_ratio(g, trace, sample_times=times)
        assert got == rescan_competitive_ratio(g, trace, sample_times=times)

    def test_instant_records_live_only_at_their_step(self):
        # gen == exec records are live at exactly that step; a record
        # leaves the live set at its exec_time otherwise.
        g = topologies.line(6)
        trace = ExecutionTrace("line(6)", {0: 0, 1: 5})
        trace.txns[0] = TxnRecord(0, 1, (0,), 0, 0, 0)
        trace.txns[1] = TxnRecord(1, 4, (0,), 0, 0, 3)
        trace.txns[2] = TxnRecord(2, 2, (), 2, 2, 2, reads=(1,))
        trace.txns[3] = TxnRecord(3, 3, (1,), 2, 2, 5, reads=(0,))
        trace.txns[4] = TxnRecord(4, 0, (9,), 1, 1, 4)  # object without a position
        times = [6, -1, 0, 0, 1, 2, 3, 3, 4, 5, 2]
        got = competitive_ratio(g, trace, sample_times=times)
        assert got == rescan_competitive_ratio(g, trace, sample_times=times)
        assert [(p.time, p.live) for p in got[1]] == [
            (0, 2), (0, 2), (1, 2), (2, 4), (3, 2), (3, 2), (4, 1), (2, 4),
        ]
