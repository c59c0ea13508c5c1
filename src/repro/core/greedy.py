"""Algorithm 1: the online greedy schedule (paper Section III).

Every newly generated transaction is immediately and permanently assigned
an execution time ``t + c(T)``, where ``c(T)`` is a valid color of the
extended dependency graph ``H'_t`` obtained by repeatedly applying Lemma 1
(or Lemma 2 when the graph has uniform edge weights) to the uncolored
transactions.

Guarantees reproduced by the tests and experiment E1/E2/E3:

* Theorem 1: ``T`` executes by ``t + 2*Gamma'_t(T) - Delta'_t(T)``.
* Theorem 2 (uniform weight ``beta``): ``T`` executes by
  ``t + Gamma'_t(T)`` and execution times are multiples of ``beta``.
* Theorem 3: O(k)-competitive on the clique; Section III-D: O(k log n)
  on hypercube / butterfly / log n-dimensional grid.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro._types import ObjectId, Time, Weight
from repro.core.base import OnlineScheduler
from repro.core.coloring import min_valid_color, min_valid_color_multiple
from repro.core.dependency import constraints_for
from repro.sim.transactions import Transaction


class GreedyScheduler(OnlineScheduler):
    """Online greedy coloring scheduler (Algorithm 1).

    Parameters
    ----------
    uniform_beta:
        If set, use the Lemma 2 rule: colors are positive multiples of
        ``beta``.  Correct when every pairwise node distance used by the
        workload is at most ``beta`` (e.g. ``beta = 1`` on the clique,
        ``beta = log2(n)`` on the hypercube).  The scheduler then *treats*
        the graph as a uniform-weight complete graph, exactly as Section
        III-D does for the hypercube.
    order:
        Order in which simultaneously generated transactions are colored:
        ``"arrival"`` (tid order, the default) or ``"degree"`` (smallest
        constraint set first — a practical tweak noted after Theorem 2,
        where Lemma 1 "can give better execution schedule when used in
        practice").
    weight_slack:
        Extra steps added to every positive constraint weight.  The base
        model assumes uncongested links; under the engine's bounded
        egress-capacity extension (Section VI's open question, bench
        E13), a slack of a few steps absorbs the serialization delay of
        objects queueing behind each other at a node.
    """

    def __init__(
        self,
        uniform_beta: Optional[Weight] = None,
        order: str = "arrival",
        weight_slack: Weight = 0,
    ) -> None:
        super().__init__()
        if order not in ("arrival", "degree"):
            raise ValueError(f"unknown coloring order {order!r}")
        if weight_slack < 0:
            raise ValueError("weight_slack must be non-negative")
        self.uniform_beta = uniform_beta
        self.order = order
        self.weight_slack = weight_slack
        #: analysis hook: (tid, color, theorem_bound) per scheduled txn
        self.color_log: List[tuple] = []

    def on_step(self, t: Time, new_txns: List[Transaction]) -> None:
        assert self.sim is not None, "scheduler not bound to a simulator"
        if not new_txns:
            return
        sim = self.sim
        if self.order == "arrival":
            for txn in new_txns:
                self._color(t, txn, constraints_for(sim, txn, now=t))
            return
        # Degree order: the constraint lists computed for the sort key are
        # reused when coloring, unless a batch member colored earlier in
        # this call conflicts with the transaction (writes an object it
        # accesses, or reads an object it writes) — only such a member
        # adds a constraint, so the reused list equals a fresh evaluation.
        cons_of = {txn.tid: constraints_for(sim, txn, now=t) for txn in new_txns}
        written: Set[ObjectId] = set()
        read: Set[ObjectId] = set()
        for txn in sorted(new_txns, key=lambda x: (len(cons_of[x.tid]), x.tid)):
            if (
                written.isdisjoint(txn.objects)
                and written.isdisjoint(txn.reads)
                and read.isdisjoint(txn.objects)
            ):
                cons = cons_of[txn.tid]
            else:
                cons = constraints_for(sim, txn, now=t)
            self._color(t, txn, cons)
            written.update(txn.objects)
            read.update(txn.reads)

    def _color(self, t: Time, txn: Transaction, cons) -> None:
        if self.weight_slack:
            cons = [(c, w + self.weight_slack if w > 0 else w) for c, w in cons]
        if self.uniform_beta is not None:
            color = self._uniform_color(cons, t)
        else:
            color = min_valid_color(cons)
        self.color_log.append((txn.tid, color, self._bound(cons)))
        self.emit("color", t, tid=txn.tid, color=color, constraints=len(cons))
        self.sim.commit_schedule(txn, t + color)

    def _uniform_color(self, cons, t: Time) -> Weight:
        """Lemma 2 online: execution at *absolute* multiples of beta.

        With arrivals at arbitrary times, relative colors are no longer
        multiples of beta across transactions; placing execution times on
        global multiples restores Lemma 2's accounting — every scheduled
        neighbor (itself on a multiple, at distance <= beta) forbids
        exactly one slot.
        """
        beta = self.uniform_beta
        abs_cons = [(t + color, w) for color, w in cons]
        exec_abs = min_valid_color_multiple(abs_cons, beta, floor_multiple=t // beta + 1)
        return exec_abs - t

    def _bound(self, cons) -> Weight:
        """Per-transaction latency bound, recorded for experiment E1.

        Plain mode — Lemma 1 shifted by the color floor of 1:
        ``1 + 2*Gamma' - Delta'``.  Uniform mode — slot counting: one
        alignment slot plus, per constraint of weight ``w``, the
        ``floor((2w-1)/beta) + 1`` multiples its forbidden interval can
        contain (= exactly one slot for a neighbor sitting on a multiple
        at distance <= beta, Lemma 2's case).
        """
        gamma = sum(w for _, w in cons)
        delta = sum(1 for _, w in cons if w > 0)
        if self.uniform_beta is None:
            return max(1, 1 + 2 * gamma - delta)
        beta = self.uniform_beta
        blocked = sum((2 * w - 1) // beta + 1 for _, w in cons if w > 0)
        return beta * (1 + blocked)
