"""Certified lower bounds on execution time.

The competitive ratios we report divide measured schedule durations by a
*provable* lower bound on the offline optimum, so measured ratios are
upper bounds on the true competitive ratios — the conservative direction:
if a measured ratio sits below the paper's bound, the true ratio does too.

Bounds implemented (DESIGN.md S12):

* **object-MST bound** — a single object must physically visit its start
  position and the home of every requester; any walk through those nodes
  has length at least the weight of their metric minimum spanning tree.
  Scaled by the object speed, the max over objects lower-bounds makespan.
  (This subsumes the furthest-object bound: an MST contains a path from
  the start to the furthest home.)
* **object-load bound** — ``l_max`` style (Theorem 3's denominator): an
  object requested by ``l`` transactions at pairwise-distinct nodes needs
  at least ``l - 1`` moves of at least the minimum pairwise distance.
  This is dominated by the MST bound but is exposed separately because
  Theorem 3's analysis is phrased in terms of ``l_max``.
* **reader bound** — a copy cannot reach a reader faster than the direct
  distance from the object's position.

:func:`object_bound` is the one per-object formula (object-MST plus
reader bound); the batch and live-set bounds, and the ratio sweep in
:mod:`repro.analysis.ratios`, all take their max over objects of it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro._types import NodeId, ObjectId, Time
from repro.network.graph import Graph
from repro.sim.transactions import Transaction


def object_mst_bound(
    graph: Graph,
    start: NodeId,
    requester_homes: Sequence[NodeId],
    speed: int = 1,
) -> Time:
    """Minimum time for one object at ``start`` to serve all homes."""
    return speed * graph.metric_mst_weight([start, *requester_homes])


def object_load_bound(graph: Graph, requester_homes: Sequence[NodeId], speed: int = 1) -> Time:
    """``(l - 1) * min pairwise distance`` over distinct requester homes."""
    homes = sorted(set(requester_homes))
    if len(homes) < 2:
        return 0
    min_d = min(
        graph.distance(u, v) for i, u in enumerate(homes) for v in homes[i + 1 :]
    )
    return speed * (len(homes) - 1) * min_d


def object_bound(
    graph: Graph,
    pos: NodeId,
    writer_homes: Sequence[NodeId],
    reader_homes: Sequence[NodeId],
    speed: int = 1,
) -> Time:
    """Lower bound from one object at ``pos``: the object-MST bound over
    its writers' homes, and the direct distance to each reader.

    Readers receive copies, which travel independently; still, data at
    ``pos`` cannot reach a reader faster than the direct distance (any
    relay through the moving master obeys the triangle inequality).
    Homes may repeat.
    """
    bound = object_mst_bound(graph, pos, writer_homes, speed)
    if reader_homes:
        bound = max(bound, speed * max(graph.distance(pos, h) for h in reader_homes))
    return bound


def _homes_by_object(
    txns: Sequence[Transaction],
) -> Tuple[Dict[ObjectId, List[NodeId]], Dict[ObjectId, List[NodeId]]]:
    """Per object, the homes of its writers and of its readers."""
    writers: Dict[ObjectId, List[NodeId]] = {}
    readers: Dict[ObjectId, List[NodeId]] = {}
    for txn in txns:
        for oid in txn.objects:
            writers.setdefault(oid, []).append(txn.home)
        for oid in txn.reads:
            readers.setdefault(oid, []).append(txn.home)
    return writers, readers


def batch_lower_bound(
    graph: Graph,
    placement: Mapping[ObjectId, NodeId],
    txns: Sequence[Transaction],
    speed: int = 1,
) -> Time:
    """Lower bound on the makespan of a batch problem.

    Max over objects of :func:`object_bound` at the initial placement,
    clamped to 1 (any non-empty schedule needs at least one step in the
    synchronous model).
    """
    writers, readers = _homes_by_object(txns)
    best: Time = 1 if txns else 0
    for oid in set(writers) | set(readers):
        best = max(
            best,
            object_bound(graph, placement[oid], writers.get(oid, ()), readers.get(oid, ()), speed),
        )
    return best


def live_set_lower_bound(
    graph: Graph,
    object_positions: Mapping[ObjectId, NodeId],
    live_txns: Sequence[Transaction],
    speed: int = 1,
) -> Time:
    """Lower bound on ``t*``: the optimal time to finish the currently
    live transactions given current object positions (Section II's
    competitive-ratio denominator).  Objects without a position are
    skipped."""
    writers, readers = _homes_by_object(live_txns)
    best: Time = 1 if live_txns else 0
    for oid in set(writers) | set(readers):
        pos = object_positions.get(oid)
        if pos is not None:
            best = max(
                best,
                object_bound(graph, pos, writers.get(oid, ()), readers.get(oid, ()), speed),
            )
    return best
