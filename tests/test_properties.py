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

from repro.analysis import run_experiment
from repro.baselines import FifoSerialScheduler, TspTourScheduler
from repro.core import BucketScheduler, DistributedBucketScheduler, GreedyScheduler
from repro.network import topologies
from repro.offline import ColoringBatchScheduler
from repro.sim.transactions import TxnSpec
from repro.workloads import ManualWorkload
from repro.sim import SimConfig

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_instances(draw):
    """A random small graph + object placement + online arrival sequence."""
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
        specs.append(TxnSpec(t, home, tuple(objs)))
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
