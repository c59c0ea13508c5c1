"""Outside-in per-layer tracer for the end-to-end benchmark.

The tracer never edits the program.  :meth:`Tracer.install` replaces the
public methods of every class defined in a layer's modules with timing
wrappers, *before* ``Simulator(...)`` is built: the engine caches bound
methods such as ``scheduler.has_pending`` at construction, and a class
patched afterwards would be bypassed.

* A span stack gives each layer its *self* time: a wrapper's duration
  minus the part its child spans cover (``scheduler.on_step`` minus the
  tracker calls it makes).
* Point queries (container dunders, ``get``) and the whole network layer
  get count-only wrappers and are never timed: ``Graph.distance`` and
  ``TxnTable.__getitem__`` run millions of times, and timing them would
  cost more than the work.  Their time stays with the calling layer — the
  distance rows ``Graph.metric_mst_weight`` builds are analysis time,
  reported as ``network.row_builds`` / ``network.row_cells``.
* A method that returns a generator hands back a timed iterator, so the
  open workload's lazy arrival pulls are ``workloads`` time.
* Spans that cross a layer boundary are kept in memory (compact arrays,
  capped) and written as JSONL when the run ends.

Methods that do not exist are skipped, so the tracer survives refactors
that delete them; :meth:`Tracer.check` then fails loudly if a layer the
workload needs recorded no call at all.
"""

from __future__ import annotations

import importlib
import itertools
import json
import pkgutil
import time
import types
from array import array
from contextlib import contextmanager
from typing import Dict, List

#: layer -> modules whose classes are wrapped.  ``import`` has no module:
#: the pipeline opens its span around the package import.
LAYERS = {
    "import": (),
    "network": ("repro.network.graph", "repro.network.oracles", "repro.network.topologies"),
    "workloads": (
        "repro.workloads.arrivals", "repro.workloads.generators",
        "repro.workloads.streaming", "repro.workloads.spec",
    ),
    "engine": ("repro.sim.engine",),
    "spine": ("repro.sim.events",),
    "transport": ("repro.sim.transport", "repro.sim.messages"),
    "tracker": ("repro.core.dependency", "repro.core.pending"),
    "scheduler": ("repro.core.*",),  # every other repro.core module
    "trace": ("repro.sim.columnar", "repro.sim.trace"),
    "service": ("repro.service.frontend", "repro.service.admission"),
    "certifier": ("repro.sim.validate",),
    "analysis": (
        "repro.analysis.ratios", "repro.analysis.lower_bounds",
        "repro.analysis.metrics", "repro.analysis.slo",
    ),
}

#: layers whose methods are counted, never timed
COUNT_ONLY_LAYERS = {"network"}
#: per-call point queries: counted, never timed
POINT_QUERIES = {
    "__getitem__", "__setitem__", "__contains__", "__len__", "__bool__",
    "__iter__", "get",
}
#: the only distance-oracle methods wrapped: an oracle's ``distance`` is
#: the per-cell kernel behind both ``Graph.distance`` and ``row``, so
#: counting it would double-count and slow the analysis it runs under
ORACLE_METHODS = {"row"}
#: tracker entry points that return a transaction's constraint list
CONSTRAINT_QUERIES = {"constraints", "constraints_for"}
#: recorded layer-crossing spans beyond this many are counted, not kept
SPAN_CAP = 400_000


def _modules(patterns) -> List[types.ModuleType]:
    """Import the listed modules; ``pkg.*`` expands to the package's
    submodules not claimed by another layer.  Missing modules are skipped."""
    claimed = {m for mods in LAYERS.values() for m in mods if not m.endswith(".*")}
    names = []
    for pattern in patterns:
        if pattern.endswith(".*"):
            pkg = importlib.import_module(pattern[:-2])
            names += [
                f"{pkg.__name__}.{info.name}"
                for info in pkgutil.iter_modules(pkg.__path__)
                if f"{pkg.__name__}.{info.name}" not in claimed
            ]
        else:
            names.append(pattern)
    mods = []
    for name in names:
        try:
            mods.append(importlib.import_module(name))
        except ImportError:
            continue
    return mods


class Tracer:
    """Layer ledger for one traced pipeline run (see module docstring)."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: open frames (see :meth:`_enter`)
        self._stack: List[list] = []
        #: key -> [layer, calls, inclusive s, self s, key index]
        self._agg: Dict[str, list] = {}
        self._keys: List[str] = []
        self._ids = itertools.count()
        self._span = {
            "id": array("q"), "parent": array("q"), "key": array("q"),
            "start": array("d"), "end": array("d"),
        }
        self.spans_dropped = 0
        self.counts: Dict[str, float] = {
            "transport.legs": 0, "transport.deferred": 0,
            "tracker.constraint_queries": 0, "tracker.constraints": 0,
            "network.row_builds": 0, "network.row_cells": 0,
            "analysis.mst_points": 0, "analysis.row_cells": 0,
        }

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap every layer class's public methods and point queries."""
        for layer, patterns in LAYERS.items():
            for mod in _modules(patterns):
                for cls in list(vars(mod).values()):
                    if isinstance(cls, type) and cls.__module__ == mod.__name__:
                        self._wrap_class(layer, cls)

    def _wrap_class(self, layer: str, cls: type) -> None:
        oracle = cls.__module__.endswith(".oracles")
        for name, fn in list(vars(cls).items()):
            if not isinstance(fn, types.FunctionType):
                continue
            if name.startswith("_") and name not in POINT_QUERIES:
                continue
            if oracle and name not in ORACLE_METHODS:
                continue
            key = f"{cls.__name__}.{name}"
            if layer in COUNT_ONLY_LAYERS or name in POINT_QUERIES:
                wrapper = self._counted(layer, key, fn, name)
            else:
                wrapper = self._timed(layer, key, fn, name)
            try:
                setattr(cls, name, wrapper)
            except (AttributeError, TypeError):
                continue

    def _record(self, layer: str, key: str) -> list:
        rec = self._agg.get(key)
        if rec is None:
            rec = self._agg[key] = [layer, 0, 0.0, 0.0, len(self._keys)]
            self._keys.append(key)
        return rec

    def _counted(self, layer: str, key: str, fn, name: str):
        rec = self._record(layer, key)
        counts = self.counts
        stack = self._stack
        if name == "row":
            def wrapper(*args, **kwargs):
                rec[1] += 1
                row = fn(*args, **kwargs)
                counts["network.row_builds"] += 1
                counts["network.row_cells"] += len(row)
                if stack and stack[-1][2] == "analysis":
                    counts["analysis.row_cells"] += len(row)
                return row
        elif name == "metric_mst_weight":
            def wrapper(self_, subset, *args, **kwargs):
                rec[1] += 1
                counts["analysis.mst_points"] += len(set(subset))
                return fn(self_, subset, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                rec[1] += 1
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _enter(self, layer: str) -> list:
        """Push a frame: [start, child s, layer, span id, outer, parent id].
        Only a frame whose caller sits in another layer opens a span."""
        stack = self._stack
        if stack:
            parent_id = stack[-1][3]
            outer = stack[-1][2] != layer
        else:
            parent_id, outer = -1, True
        frame = [0.0, 0.0, layer, next(self._ids) if outer else parent_id, outer, parent_id]
        stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _exit(self, frame: list, rec: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - frame[0]
        rec[1] += 1
        rec[2] += dur
        rec[3] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        if frame[4]:
            span = self._span
            if len(span["id"]) < SPAN_CAP:
                for field, value in zip(
                    ("id", "parent", "key", "start", "end"),
                    (frame[3], frame[5], rec[4], frame[0], end),
                ):
                    span[field].append(value)
            else:
                self.spans_dropped += 1

    def _timed(self, layer: str, key: str, fn, name: str):
        rec = self._record(layer, key)
        enter, exit_ = self._enter, self._exit
        counts = self.counts
        is_plan_leg = name == "plan_leg"
        is_query = layer == "tracker" and name in CONSTRAINT_QUERIES
        tracer = self

        def wrapper(*args, **kwargs):
            frame = enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, rec)
            if frame[4]:
                if is_plan_leg:
                    counts["transport.deferred" if result is None else "transport.legs"] += 1
                elif is_query:
                    counts["tracker.constraint_queries"] += 1
                    counts["tracker.constraints"] += len(result)
            if type(result) is types.GeneratorType:
                return tracer._iterate(layer, f"{key}.next", result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _iterate(self, layer: str, key: str, gen):
        step = self._timed(layer, key, gen.__next__, "__next__")

        class TimedIterator:
            def __iter__(self):
                return self

            def __next__(self):
                return step()

        return TimedIterator()

    @contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the pipeline itself around one public call."""
        rec = self._record(layer, f"pipeline.{name}")
        frame = self._enter(layer)
        try:
            yield
        finally:
            self._exit(frame, rec)

    # -- results ------------------------------------------------------
    def calls(self, suffix: str) -> int:
        """Calls summed over method keys ending in ``suffix``."""
        return sum(rec[1] for key, rec in self._agg.items() if key.endswith(suffix))

    def _layer_sum(self, layer: str, index: int, prefix: str = "") -> float:
        return sum(
            rec[index] for key, rec in self._agg.items()
            if rec[0] == layer and key.split(".", 1)[-1].startswith(prefix)
        )

    def ledger(self, *, wall_s: float, steps: int, extra: Dict[str, float]) -> dict:
        """Flat ``<layer>.<metric>`` mapping for one traced run."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            self_s = self._layer_sum(layer, 3)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = self_s / wall_s
            out[f"{layer}.calls"] = self._layer_sum(layer, 1)
        c = self.counts
        queries = c["tracker.constraint_queries"]
        engine_s = out["engine.self_s"]
        out.update({
            "engine.steps": steps,
            "engine.us_per_step": 1e6 * engine_s / max(1, steps),
            "spine.pushes": self._layer_sum("spine", 1, "push"),
            "spine.pops": self._layer_sum("spine", 1, "pop"),
            "transport.legs": c["transport.legs"],
            "transport.deferred": c["transport.deferred"],
            "tracker.constraint_queries": queries,
            "tracker.constraints_per_query": c["tracker.constraints"] / max(1, queries),
            "tracker.generate_s": self._layer_sum("tracker", 2, "on_generate"),
            "tracker.commit_s": (
                self._layer_sum("tracker", 2, "on_commit")
                + self._layer_sum("tracker", 2, "on_retire")
            ),
            "network.distance_calls": self.calls("Graph.distance"),
            "network.row_builds": c["network.row_builds"],
            "network.row_cells": c["network.row_cells"],
            "workloads.arrival_s": sum(
                rec[2] for key, rec in self._agg.items() if key.endswith("arrival_stream.next")
            ),
            "analysis.mst_points": c["analysis.mst_points"],
            "analysis.cells_per_mst_point": (
                c["analysis.row_cells"] / max(1, c["analysis.mst_points"])
            ),
        })
        out.update(extra)
        return out

    def check(self, ledger: dict, expected: List[str], wall_s: float) -> List[str]:
        """Failures: an expected layer with no call, or self times that do
        not add up to the traced wall time within 5%."""
        failures = [
            f"tracer: layer {layer!r} recorded no call"
            for layer in expected if ledger[f"{layer}.calls"] < 1
        ]
        total = sum(ledger[f"{layer}.self_s"] for layer in LAYERS)
        if abs(total - wall_s) > 0.05 * wall_s:
            failures.append(
                f"tracer: layer self times sum to {total:.3f}s, traced wall is {wall_s:.3f}s"
            )
        return failures

    def write_spans(self, path: str) -> None:
        """Write per-method totals, then every kept span, as JSONL."""
        span = self._span
        keys = self._keys
        layer_of = {key: rec[0] for key, rec in self._agg.items()}
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "kind": "header", "spans": len(span["id"]),
                "spans_dropped": self.spans_dropped,
            }) + "\n")
            for key, (layer, calls, incl, self_s, _) in sorted(self._agg.items()):
                if not calls:
                    continue
                fh.write(json.dumps({
                    "kind": "method", "layer": layer, "name": key, "calls": calls,
                    "inclusive_s": incl, "self_s": self_s,
                }) + "\n")
            origin = self.origin
            for sid, parent, key, start, end in zip(
                span["id"], span["parent"], span["key"], span["start"], span["end"]
            ):
                name = keys[key]
                fh.write(
                    '{"kind":"span","id":%d,"parent":%d,"layer":"%s","name":"%s",'
                    '"start_s":%.9f,"end_s":%.9f}\n'
                    % (sid, parent, layer_of[name], name, start - origin, end - origin)
                )


def expected_layers(closed: bool) -> List[str]:
    """Layers a workload must exercise: the certifier on closed runs, the
    service front-end on the open one."""
    common = [
        "import", "network", "workloads", "engine", "spine", "transport",
        "tracker", "scheduler", "trace", "analysis",
    ]
    return common + (["certifier"] if closed else ["service"])
