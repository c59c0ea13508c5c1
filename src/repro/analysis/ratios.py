"""Empirical competitive-ratio estimation from execution traces.

Implements the paper's Definition 1 measurement: at each time ``t`` where
transactions were generated, ``r_S(t) = max_{T in T_t} (t_T - t) / t*``
with ``t*`` replaced by the certified lower bound of
:func:`repro.analysis.lower_bounds.live_set_lower_bound` — so every
reported ratio is an *upper* bound on the true competitive ratio.

Object positions at time ``t`` are replayed from the trace legs: the
object is at a leg's source until it departs and at its destination from
arrival; while mid-leg we charge its destination (the same artificial-node
convention the schedulers use, which can only *lower* the bound — again
the conservative direction).

:func:`competitive_ratio` makes one time-ordered sweep: a record joins the
live set at its generation time and leaves through a heap keyed by its
execution time, while per-object multisets of writer and reader homes
follow it incrementally.  A sample costs the per-object bounds of the
live objects only — ``sum_o s_o^2`` distance queries for ``s_o`` distinct
homes of object ``o`` — with no rescan of the records and no O(n)
distance row.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro._types import NodeId, ObjectId, Time
from repro.analysis.lower_bounds import batch_lower_bound, object_bound
from repro.network.graph import Graph
from repro.sim.trace import ExecutionTrace
from repro.sim.transactions import Transaction


@dataclass(frozen=True)
class RatioPoint:
    """Competitive ratio sample at one generation time."""

    time: Time
    live: int
    worst_duration: Time
    lower_bound: Time

    @property
    def ratio(self) -> float:
        return self.worst_duration / max(1, self.lower_bound)


class _ObjectTimeline:
    """Object position as a step function of time, from trace legs."""

    def __init__(self, start: NodeId, legs) -> None:
        self._times: List[Time] = []
        self._nodes: List[NodeId] = [start]
        for leg in sorted(legs, key=lambda l: l.depart_time):
            # After departing at depart_time the object is charged to its
            # destination (artificial-node convention).
            self._times.append(leg.depart_time)
            self._nodes.append(leg.dst)

    def position(self, t: Time) -> NodeId:
        i = bisect.bisect_right(self._times, t)
        return self._nodes[i]


def _count(
    homes_by_obj: Dict[ObjectId, Dict[NodeId, int]],
    oids: Iterable[ObjectId],
    home: NodeId,
    delta: int,
) -> None:
    """Add ``delta`` to the multiplicity of ``home`` in each object's home
    multiset, dropping entries that reach zero."""
    for oid in oids:
        homes = homes_by_obj.setdefault(oid, {})
        count = homes.get(home, 0) + delta
        if count:
            homes[home] = count
        else:
            del homes[home]
            if not homes:
                del homes_by_obj[oid]


def competitive_ratio(
    graph: Graph,
    trace: ExecutionTrace,
    *,
    sample_times: Optional[Sequence[Time]] = None,
) -> Tuple[float, List[RatioPoint]]:
    """Overall ratio ``sup_t r_S(t)`` and the per-time samples.

    ``sample_times`` defaults to all distinct generation times.  Points
    come back in ``sample_times`` order, one per occurrence (duplicates
    repeat); a time with an empty live set yields no point.  A record is
    live at ``t`` when ``gen_time <= t < exec_time``, or when
    ``gen_time == t == exec_time``.
    """
    records = list(trace.txns.values())
    if not records:
        return 0.0, []
    legs_by_obj: Dict[ObjectId, list] = {oid: [] for oid in trace.initial_placement}
    for leg in trace.legs:
        legs_by_obj.setdefault(leg.oid, []).append(leg)
    timelines = {
        oid: _ObjectTimeline(start, legs_by_obj.get(oid, []))
        for oid, start in trace.initial_placement.items()
    }
    if sample_times is None:
        sample_times = sorted({r.gen_time for r in records})
    speed = trace.object_speed_den
    arrivals = sorted(records, key=lambda r: r.gen_time)
    entered = 0
    # Heap of the live records as (exec_time, generated at exec_time,
    # index into arrivals).
    live: List[Tuple[Time, bool, int]] = []
    writers: Dict[ObjectId, Dict[NodeId, int]] = {}
    readers: Dict[ObjectId, Dict[NodeId, int]] = {}
    samples: Dict[Time, Tuple[int, Time, Time]] = {}
    for t in sorted(set(sample_times)):
        while entered < len(arrivals) and arrivals[entered].gen_time <= t:
            r = arrivals[entered]
            heapq.heappush(live, (r.exec_time, r.gen_time == r.exec_time, entered))
            _count(writers, r.objects, r.home, 1)
            _count(readers, r.reads, r.home, 1)
            entered += 1
        # Retire what executed before t, and what executed at t unless it
        # was also generated at t.
        while live:
            exec_time, instant, i = live[0]
            if exec_time > t or (exec_time == t and instant):
                break
            heapq.heappop(live)
            r = arrivals[i]
            _count(writers, r.objects, r.home, -1)
            _count(readers, r.reads, r.home, -1)
        if not live:
            continue
        lb: Time = 1
        for oid in writers.keys() | readers.keys():
            timeline = timelines.get(oid)
            if timeline is not None:
                lb = max(lb, object_bound(
                    graph, timeline.position(t),
                    list(writers.get(oid, ())), list(readers.get(oid, ())), speed,
                ))
        samples[t] = (len(live), max(live)[0], lb)
    points: List[RatioPoint] = []
    for t in sample_times:
        sample = samples.get(t)
        if sample is not None:
            n_live, last_exec, lb = sample
            points.append(RatioPoint(t, n_live, last_exec - t, lb))
    overall = max((p.ratio for p in points), default=0.0)
    return overall, points


def makespan_ratio(graph: Graph, trace: ExecutionTrace) -> float:
    """Batch-problem ratio: measured makespan over the batch lower bound.

    Only meaningful when all transactions were generated at one time step
    (a batch workload); asserts that precondition.
    """
    records = list(trace.txns.values())
    if not records:
        return 0.0
    gen_times = {r.gen_time for r in records}
    if len(gen_times) != 1:
        raise ValueError("makespan_ratio is only defined for batch workloads")
    t0 = gen_times.pop()
    txns = [
        Transaction(r.tid, r.home, frozenset(r.objects), r.gen_time, reads=frozenset(r.reads))
        for r in records
    ]
    lb = batch_lower_bound(graph, trace.initial_placement, txns, trace.object_speed_den)
    return (trace.makespan() - t0) / max(1, lb)
