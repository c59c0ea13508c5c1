"""Point-to-point control messages with shortest-path latency.

The distributed bucket scheduler (Algorithm 3) exchanges control messages —
object discovery probes, conflict reports, bucket reports, schedule
notifications.  A message sent from ``src`` to ``dst`` at time ``t`` is
delivered at ``t + d_G(src, dst)`` (control messages travel at full speed;
only *objects* are slowed to half speed under Algorithm 3).

The router is deliberately tiny: an ordered heap of deliveries whose
callbacks run inside the engine's step loop, mirroring how an mpi4py-style
nonblocking ``isend``/callback pattern would look on a real deployment.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro._types import NodeId, Time
from repro.network.graph import Graph

DeliveryCallback = Callable[[Time, "Message"], None]


@dataclass(frozen=True, slots=True)
class Message:
    """An in-flight control message.

    Slotted: distributed-bucket runs create one per probe/report leg, so
    the per-instance ``__dict__`` was measurable allocation volume."""

    src: NodeId
    dst: NodeId
    kind: str
    payload: Any
    sent_at: Time
    deliver_at: Time


class MessageRouter:
    """Delivers messages after their shortest-path latency.

    Statistics (count and total hop-distance) feed the distributed
    scheduler's overhead metrics in experiment E8.
    """

    def __init__(self, graph: Graph, spine=None) -> None:
        #: optional :class:`~repro.sim.events.EventQueue`: when set, every
        #: send pushes a MESSAGE marker so the engine's next-active-time
        #: peek covers deliveries without polling this router
        self._graph = graph
        self._spine = spine
        self._heap: List[Tuple[Time, int, Message, DeliveryCallback]] = []
        self._seq = itertools.count()
        self.sent_count = 0
        self.total_distance: float = 0.0
        #: optional :class:`repro.faults.FaultInjector` (set by the engine
        #: when ``SimConfig.faults`` is active): adds seeded delivery
        #: jitter on send and holds deliveries to crashed destinations
        #: until their restart step
        self.injector = None
        #: optional fault-recording callback, ``(kind, t, node=, extra=)``
        #: — the engine wires :meth:`Simulator.record_fault` here
        self.on_fault = None

    def send(
        self,
        now: Time,
        src: NodeId,
        dst: NodeId,
        kind: str,
        payload: Any,
        on_deliver: DeliveryCallback,
        extra_delay: Time = 0,
    ) -> Message:
        """Queue a message; it is delivered at ``now + d(src,dst) + extra``.

        A zero-distance message (``src == dst``) is delivered at the next
        time step, never instantaneously — local processing still takes a
        step in the synchronous model.
        """
        dist = self._graph.distance(src, dst)
        delay = max(1, dist) + extra_delay
        if self.injector is not None:
            jitter = self.injector.message_delay(src, dst, kind, now)
            if jitter:
                delay += jitter
                if self.on_fault is not None:
                    self.on_fault("msg-delay", now, node=dst, extra=jitter)
        msg = Message(src, dst, kind, payload, now, now + delay)
        heapq.heappush(self._heap, (msg.deliver_at, next(self._seq), msg, on_deliver))
        if self._spine is not None:
            self._spine.push_message(msg.deliver_at)
        self.sent_count += 1
        self.total_distance += dist
        return msg

    def next_delivery_time(self) -> Optional[Time]:
        return self._heap[0][0] if self._heap else None

    def deliver_due(self, now: Time) -> int:
        """Run callbacks for all messages due at or before ``now``.

        Callbacks may send further messages (delivered strictly later).
        Returns the number of messages delivered.  Deliveries addressed
        to a crashed node (:mod:`repro.faults`) are requeued for the
        node's restart step instead of running now; deliveries whose
        sender and destination are separated by an active partition cut
        are requeued for the cut's earliest heal time (``"partition-msg"``
        fault record).
        """
        count = 0
        while self._heap and self._heap[0][0] <= now:
            _, _, msg, cb = heapq.heappop(self._heap)
            if self.injector is not None:
                restart = self.injector.restart_time(msg.dst, now)
                if restart is not None:
                    self._requeue(msg, cb, restart)
                    continue
                if msg.src != msg.dst and self.injector.partition_separates(
                    self._graph, msg.src, msg.dst, now
                ):
                    heal = self.injector.heal_time(now)
                    assert heal is not None  # a cut is active at ``now``
                    self._requeue(msg, cb, heal)
                    if self.on_fault is not None:
                        self.on_fault(
                            "partition-msg", now, node=msg.dst, extra=heal - now
                        )
                    continue
            cb(now, msg)
            count += 1
        return count

    def _requeue(self, msg: Message, cb: DeliveryCallback, at: Time) -> None:
        """Re-deliver ``msg`` at ``at`` (fault hold: crash or partition)."""
        held = Message(msg.src, msg.dst, msg.kind, msg.payload, msg.sent_at, at)
        heapq.heappush(self._heap, (at, next(self._seq), held, cb))
        if self._spine is not None:
            self._spine.push_message(at)

    @property
    def pending(self) -> int:
        return len(self._heap)
