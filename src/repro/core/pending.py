"""Shared pending-transaction index.

:class:`PendingIndex` (``sim.pending``) answers the recurring scheduler
queries about not-yet-executed transactions in O(1) or O(column) instead
of scanning the live set:

* **Unscheduled set** — the live transactions still waiting for an
  execution time, in arrival order.  Invariant: ``_unscheduled`` equals
  ``{tid: txn for tid, txn in sim.live.items() if txn.exec_time is
  None}`` after every engine phase.  ``CoordinatedScheduler.has_pending``
  and the run loop's quiescence check read it in O(1).
* **Per-object wait columns** — for each object (dense index, same
  interning as the engine's live accessor columns): the *scheduled*
  writers and readers still waiting to execute.  These power
  :class:`repro.offline.base.SimStateView` without filtering the full
  live accessor sets per query.  Invariant: ``sched_writers[idx]``
  equals ``{tid: txn for txn in sim.live_requesters(oid) if
  txn.exec_time is not None}``.

The engine feeds the index from the same lifecycle sites that feed the
dependency tracker (generate, schedule, recover, expire, commit), so it
is always consistent with the live set whichever scheduler is bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro._types import NodeId, Time, TxnId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.sim.engine import Simulator
    from repro.sim.transactions import Transaction


class PendingIndex:
    """Per-object wait columns and the unscheduled set (see module
    docstring for the invariants)."""

    __slots__ = ("sim", "_unscheduled", "sched_writers", "sched_readers")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: live transactions without an execution time, arrival order
        self._unscheduled: Dict[TxnId, "Transaction"] = {}
        #: per-object columns of *scheduled* waiting accessors
        self.sched_writers: List[Dict[TxnId, "Transaction"]] = []
        self.sched_readers: List[Dict[TxnId, "Transaction"]] = []

    # -- engine lifecycle hooks ---------------------------------------
    def add_object_slot(self) -> None:
        """Mirror the engine's dense object interning (one column slot)."""
        self.sched_writers.append({})
        self.sched_readers.append({})

    def on_generate(self, txn: "Transaction") -> None:
        self._unscheduled[txn.tid] = txn

    def note_scheduled(self, txn: "Transaction") -> None:
        """``commit_schedule`` fixed ``txn``'s execution time."""
        tid = txn.tid
        self._unscheduled.pop(tid, None)
        objects = self.sim.objects
        for oid in txn.objects:
            self.sched_writers[objects[oid].index][tid] = txn
        for oid in txn.reads:
            self.sched_readers[objects[oid].index][tid] = txn

    def on_unschedule(self, txn: "Transaction") -> None:
        """Recovery revoked ``txn``'s execution time (fault layer)."""
        self._unscheduled[txn.tid] = txn
        self._drop_columns(txn)

    def on_retire(self, txn: "Transaction") -> None:
        """``txn`` left the live set (commit or deadline expiry)."""
        self._unscheduled.pop(txn.tid, None)
        self._drop_columns(txn)

    def _drop_columns(self, txn: "Transaction") -> None:
        tid = txn.tid
        objects = self.sim.objects
        for oid in txn.objects:
            self.sched_writers[objects[oid].index].pop(tid, None)
        for oid in txn.reads:
            self.sched_readers[objects[oid].index].pop(tid, None)

    # -- queries ------------------------------------------------------
    @property
    def has_unscheduled(self) -> bool:
        return bool(self._unscheduled)

    def scheduled_writer_pairs(self, index: int, now: Time) -> List[Tuple[Time, NodeId]]:
        """``(remaining_time, home)`` pairs of scheduled waiting writers
        of the object at dense ``index`` (SimStateView's query shape)."""
        return [
            (txn.exec_time - now, txn.home)
            for txn in self.sched_writers[index].values()
        ]

    def scheduled_reader_pairs(self, index: int, now: Time) -> List[Tuple[Time, NodeId]]:
        """Same as :meth:`scheduled_writer_pairs` for readers."""
        return [
            (txn.exec_time - now, txn.home)
            for txn in self.sched_readers[index].values()
        ]
