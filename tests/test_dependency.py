"""Unit tests for dependency graphs H_t / H'_t, plus the independent
oracle for the engine's incrementally maintained structures.

:func:`run_under_oracle` runs one bundled scheduler on one workload mode
with every fast path checked against a slow recomputation from
``sim.live`` (the scheduler-by-mode matrix lives in
``tests/test_incremental.py``):

* every :meth:`DependencyTracker.constraints_for` answer equals
  :func:`_constraints_scan` on the same state, as a sorted multiset;
* after every step, ``PendingIndex._unscheduled`` and the
  ``sched_writers``/``sched_readers`` columns equal their definitions
  (the invariants stated in ``core/pending.py``);
* for plain greedy (``order="arrival"`` and ``"degree"``), every
  on-step ``commit_schedule`` time equals ``t + min_valid_color`` of the
  scan taken just before that commit — this pins the degree order's
  reuse of its sort-key constraint lists.
"""

from repro.cli import make_scheduler
from repro.core import GreedyScheduler
from repro.core.base import OnlineScheduler
from repro.core.coloring import min_valid_color
from repro.core.dependency import (
    _constraints_scan,
    build_extended_dependency_graph,
    constraints_for,
    holder_key,
)
from repro.faults import CrashWindow, FaultPlan, PartitionWindow
from repro.network import topologies
from repro.service.config import ServiceConfig
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.transactions import TxnSpec
from repro.workloads import ManualWorkload, OnlineWorkload, hotspot_workload
from repro.workloads.streaming import PoissonOpenWorkload


class Recorder(OnlineScheduler):
    """Captures constraints at scheduling time, then schedules greedily."""

    def __init__(self):
        super().__init__()
        self.snapshots = {}

    def on_step(self, t, new_txns):
        from repro.core.coloring import min_valid_color

        for txn in new_txns:
            cons = constraints_for(self.sim, txn, now=t)
            self.snapshots[txn.tid] = cons
            self.sim.commit_schedule(txn, t + min_valid_color(cons))


def test_holder_key_states():
    wl = ManualWorkload({0: 2}, [TxnSpec(0, 5, (0,))])
    sched = Recorder()
    sim = Simulator(topologies.line(8), sched, wl)
    assert holder_key(sim, 0) == ("free", 0)
    sim.run()
    assert holder_key(sim, 0) == ("txn", 0)


def test_free_object_constraint_is_distance():
    wl = ManualWorkload({0: 2}, [TxnSpec(0, 5, (0,))])
    sched = Recorder()
    Simulator(topologies.line(8), sched, wl).run()
    # single constraint: holder color 0, weight = distance 3
    assert sched.snapshots[0] == [(0, 3)]


def test_scheduled_conflict_constraint():
    # txn A at node 1 (t=0), txn B at node 6 (t=0): B sees A's color.
    wl = ManualWorkload({0: 1}, [TxnSpec(0, 1, (0,)), TxnSpec(0, 6, (0,))])
    sched = Recorder()
    Simulator(topologies.line(8), sched, wl).run()
    cons_b = dict()  # colors -> weights
    for color, w in sched.snapshots[1]:
        cons_b[color] = w
    # A got color 1 (object local), B sees (1, dist=5) plus holder (0, 5)
    assert cons_b[1] == 5
    assert cons_b[0] == 5


def test_in_transit_artificial_constraint():
    # A at node 4 takes the object from node 0; B arrives at node 0 while
    # the object is in transit toward node 4.
    specs = [TxnSpec(0, 4, (0,)), TxnSpec(2, 0, (0,))]
    wl = ManualWorkload({0: 0}, specs)
    sched = Recorder()
    Simulator(topologies.line(8), sched, wl).run()
    cons_b = sched.snapshots[1]
    # B at t=2: A scheduled at 4 -> color 2, weight 4.  Holder in transit,
    # 2 steps left to node 4, then 4 back to node 0 -> bound 6.
    assert (2, 4) in cons_b
    assert (0, 6) in cons_b


def test_duplicate_conflicts_merged():
    # two shared objects with the same opponent -> single constraint
    specs = [TxnSpec(0, 1, (0, 1)), TxnSpec(0, 6, (0, 1))]
    wl = ManualWorkload({0: 1, 1: 1}, specs)
    sched = Recorder()
    Simulator(topologies.line(8), sched, wl).run()
    schedule_cons = [c for c in sched.snapshots[1] if c[0] != 0]
    assert len(schedule_cons) == 1


def test_extended_graph_structure():
    specs = [TxnSpec(0, 1, (0,)), TxnSpec(0, 6, (0,)), TxnSpec(0, 3, (1,))]
    wl = ManualWorkload({0: 1, 1: 7}, specs)

    class Snapshot(OnlineScheduler):
        def __init__(self):
            super().__init__()
            self.h = None

        def on_step(self, t, new_txns):
            if self.h is None:
                self.h = build_extended_dependency_graph(self.sim, now=t)
            for txn in new_txns:
                from repro.core.coloring import min_valid_color

                self.sim.commit_schedule(
                    txn, t + min_valid_color(constraints_for(self.sim, txn, now=t))
                )

    sched = Snapshot()
    Simulator(topologies.line(8), sched, wl).run()
    h = sched.h
    # txn 0 and 1 conflict (object 0); txn 2 is connected only to object 1's
    # free holder.
    assert (("txn", 0), ("txn", 1)) in h.edges
    assert h.edges[(("txn", 0), ("txn", 1))] == 5
    assert h.degree(("txn", 2)) == 1
    assert h.weighted_degree(("txn", 2)) == 4  # |7-3|
    # Theorem 1 bound for txn 0: edges to txn1 (5) and holder (0) -> the
    # holder edge weight is 0 (object local), so Gamma=5, Delta counts both.
    assert h.theorem1_bound(("txn", 0)) >= h.weighted_degree(("txn", 0))


class _DifferentialScheduler(OnlineScheduler):
    """Greedy scheduler that, every step, checks the incremental tracker
    against both reference paths: constraint multisets vs the full scan
    (for every live transaction) and ``snapshot()`` vs the full H'_t
    rebuild."""

    def __init__(self):
        super().__init__()
        self.steps_checked = 0

    def on_step(self, t, new_txns):
        from repro.core.coloring import min_valid_color

        sim = self.sim
        for txn in sim.live.values():
            fast = sorted(sim.deps.constraints_for(txn, now=t))
            slow = sorted(_constraints_scan(sim, txn, now=t))
            assert fast == slow, (t, txn.tid, fast, slow)
        snap = sim.deps.snapshot(now=t)
        full = build_extended_dependency_graph(sim, now=t)
        assert snap.nodes == full.nodes, (t, snap.nodes ^ full.nodes)
        assert snap.edges == full.edges, t
        self.steps_checked += 1
        for txn in new_txns:
            sim.commit_schedule(txn, t + min_valid_color(constraints_for(sim, txn, now=t)))


def _run_differential(graph, workload, config=None):
    sched = _DifferentialScheduler()
    trace = Simulator(graph, sched, workload, config=config).run()
    assert sched.steps_checked > 0
    return trace


def test_tracker_matches_scan_line_mixed_reads():
    specs = [
        TxnSpec(0, 1, (0,), reads=(2,)),
        TxnSpec(0, 6, (0, 1)),
        TxnSpec(1, 3, (1,), reads=(0,)),
        TxnSpec(2, 7, (2,), reads=(1,)),
        TxnSpec(4, 0, (0, 2)),
        TxnSpec(6, 5, (), reads=(0, 1, 2)),
    ]
    wl = ManualWorkload({0: 1, 1: 7, 2: 4}, specs)
    _run_differential(topologies.line(8), wl)


def test_tracker_matches_scan_hotspot_grid():
    g = topologies.grid([4, 4])
    wl = hotspot_workload(g, num_cold_objects=4, k_cold=1, seed=11)
    trace = _run_differential(g, wl)
    assert len(trace.txns) == g.num_nodes


def test_tracker_matches_scan_half_speed_cluster():
    g = topologies.cluster_graph(3, 3, 5)
    wl = hotspot_workload(g, num_cold_objects=2, k_cold=1, seed=3)
    _run_differential(g, wl, SimConfig(object_speed_den=2))


def test_tracker_empty_after_quiescence():
    g = topologies.ring(6)
    wl = hotspot_workload(g, seed=0)
    sched = _DifferentialScheduler()
    sim = Simulator(g, sched, wl)
    sim.run()
    assert all(not nbrs for nbrs in sim.deps.adj.values())


# -- independent oracle ---------------------------------------------------

class Oracle:
    """Checks a simulator's fast paths against recomputation, in place.

    Installs instance-level wrappers (the classes stay untouched) around
    the tracker's ``constraints_for``, the engine's per-step driver, and —
    for plain greedy — ``commit_schedule``."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.queries = 0
        self.steps = 0
        self.greedy_commits = 0
        fast = sim.deps.constraints_for

        def checked_constraints(txn, *, now):
            got = fast(txn, now=now)
            want = _constraints_scan(sim, txn, now=now)
            assert sorted(got) == sorted(want), (now, txn.tid, got, want)
            self.queries += 1
            return got

        sim.deps.constraints_for = checked_constraints

        step = sim._step

        def checked_step(t):
            step(t)
            self.check_pending()
            self.steps += 1

        sim._step = checked_step

        greedy = sim.scheduler
        if not isinstance(greedy, GreedyScheduler):
            greedy = getattr(greedy, "delegate", None)  # adaptive
        if (
            isinstance(greedy, GreedyScheduler)
            and greedy.uniform_beta is None
            and not greedy.weight_slack
        ):
            self._check_greedy_commits(greedy)

    def _check_greedy_commits(self, greedy: GreedyScheduler) -> None:
        sim = self.sim
        on_step = greedy.on_step
        commit = sim.commit_schedule
        in_step = []

        def flagged_on_step(t, new_txns):
            in_step.append(t)
            try:
                on_step(t, new_txns)
            finally:
                in_step.pop()

        def checked_commit(txn, exec_time):
            # Recovery (on_reschedule) clamps to a backoff floor: only
            # the coloring commits made inside on_step are Algorithm 1's.
            if in_step:
                t = sim.now
                want = t + min_valid_color(_constraints_scan(sim, txn, now=t))
                assert exec_time == want, (t, txn.tid, exec_time, want)
                self.greedy_commits += 1
            commit(txn, exec_time)

        greedy.on_step = flagged_on_step
        sim.commit_schedule = checked_commit

    def check_pending(self) -> None:
        sim = self.sim
        index = sim.pending
        live = sim.live
        unscheduled = {tid for tid, txn in live.items() if txn.exec_time is None}
        assert set(index._unscheduled) == unscheduled, sim.now
        scheduled = [txn for txn in live.values() if txn.exec_time is not None]
        for oid, obj in sim.objects.items():
            writers = {txn.tid for txn in scheduled if oid in txn.objects}
            readers = {txn.tid for txn in scheduled if oid in txn.reads}
            assert set(index.sched_writers[obj.index]) == writers, (sim.now, oid)
            assert set(index.sched_readers[obj.index]) == readers, (sim.now, oid)


def run_under_oracle(name: str, *, seed: int, mode: str) -> Oracle:
    """One ``make_scheduler(name)`` run on a 2x3 grid in ``mode``
    (closed / streaming / faulty / service), every fast path checked."""
    g = topologies.grid([2, 3])
    sched, speed = make_scheduler(name, g)
    config = SimConfig(object_speed_den=speed)
    until = None
    if mode in ("closed", "faulty"):
        wl = OnlineWorkload.bernoulli(g, 6, 2, rate=0.2, horizon=10, seed=seed)
        if mode == "faulty":
            edge = next(iter(g.edges()))
            config = config.replace(
                faults=FaultPlan(
                    seed=seed,
                    drop_prob=0.15,
                    crashes=(CrashWindow(1, 3, 8),),
                    partitions=(PartitionWindow(((edge[0], edge[1]),), 5, 10),),
                )
            )
    elif mode == "streaming":
        wl = PoissonOpenWorkload(g, 0.6, num_objects=6, k=2, seed=seed)
        until = 24
    elif mode == "service":
        wl = PoissonOpenWorkload(g, 0.8, num_objects=6, k=2, seed=seed)
        config = config.replace(
            service=ServiceConfig(policy="deadline-edf", deadline=20, queue_cap=8)
        )
        until = 24
    else:  # pragma: no cover - parametrization guard
        raise AssertionError(mode)
    sim = Simulator(g, sched, wl, config=config)
    oracle = Oracle(sim)
    sim.run(until=until)
    assert oracle.steps > 0
    return oracle


def test_oracle_sees_greedy_commits_in_both_orders():
    """The commit check actually fires: arrival and degree order both
    color every generated transaction through it."""
    for name in ("greedy", "greedy-degree"):
        oracle = run_under_oracle(name, seed=0, mode="closed")
        assert oracle.greedy_commits == len(oracle.sim.trace.txns) > 0
        assert oracle.queries >= oracle.greedy_commits


def test_degree_order_reuse_on_contended_batch():
    """A same-step batch on one hot object: every member after the first
    conflicts with an earlier-colored one, so reuse must recompute — the
    commit check fails if a stale sort-key list is used."""
    g = topologies.line(8)
    specs = [TxnSpec(0, home, (0,) if home % 2 else (0, 1)) for home in range(8)]
    specs += [TxnSpec(0, 3, (2,), reads=(1,))]
    wl = ManualWorkload({0: 0, 1: 7, 2: 4}, specs)
    sim = Simulator(g, GreedyScheduler(order="degree"), wl)
    oracle = Oracle(sim)
    sim.run()
    assert oracle.greedy_commits == len(specs)
