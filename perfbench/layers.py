"""Spans around calls into each layer, recorded from outside ``repro``.

:class:`Tracer` replaces a layer's public entry points (class methods
or module functions) with wrappers that record one span per call:
name, start, end and the span that was open when the call began.
Spans are kept in memory as flat arrays and written out when the run
ends.  A layer's self time is its span time minus the time of the spans
nested directly inside it.  ``restore()`` puts every original back.

Wrappers are installed before engines are built, so lookups that bind
methods at construction time also see them.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Any, Callable

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        # Results of wrapped calls that a metric needs (relax rounds).
        self.extra: dict[str, int] = defaultdict(int)

    # -- installing wrappers ---------------------------------------------
    def _span_fn(self, name: str, fn: Callable, on_result=None) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, name_ids = self._stack, self.name_id
        starts, ends, parents = self.start, self.end, self.parent
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, on_result=None) -> None:
        """Wrap ``owner.attr`` (a class method or a module function)."""
        # None when a class inherits ``attr``: restore() then deletes the
        # wrapper instead of pinning the inherited method on the class.
        self._saved.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, self._span_fn(name, getattr(owner, attr), on_result))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    # -- reading spans back ----------------------------------------------
    def arrays(self):
        """The spans as numpy columns ``(name id, start, end, parent)``."""
        return (
            np.array(self.name_id, dtype=np.int32), np.array(self.start, dtype=np.int64),
            np.array(self.end, dtype=np.int64), np.array(self.parent, dtype=np.int32),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_ns`` and ``self_ns``."""
        nid, st, en, par = self.arrays()
        dur = (en - st).astype(np.float64)
        child = np.zeros(len(dur))
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        self_ns = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {
                "calls": int(sel.sum()),
                "total_ns": float(dur[sel].sum()),
                "self_ns": float(self_ns[sel].sum()),
            }
        return out

    def save(self, path) -> None:
        nid, st, en, par = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=nid, start=st, end=en, parent=par
        )


# ----------------------------------------------------------------------
# the layer entry points named by the benchmark
# ----------------------------------------------------------------------
CALLBACKS = (
    "on_init", "on_add", "on_reverse_add", "on_update", "on_delete", "on_reverse_delete",
)


def install(tracer: Tracer, program_classes) -> None:
    """Wrap every layer's public entry points."""
    from repro.comm.des import DiscreteEventLoop
    from repro.runtime import bulk
    from repro.runtime.engine import DynamicEngine
    from repro.serving.server import ServingLayer
    from repro.storage.degaware import DegAwareRHH

    for attr in ("run", "send", "send_many"):
        tracer.wrap(DiscreteEventLoop, attr, f"des.{attr}")
    tracer.wrap(DynamicEngine, "pull_source", "engine.pull_source")
    tracer.wrap(DynamicEngine, "on_message", "engine.on_message")
    for attr in ("insert_edge", "delete_edge", "neighbors_arrays"):
        tracer.wrap(DegAwareRHH, attr, f"storage.{attr}")
    tracer.wrap(ServingLayer, "point", "serving.point")
    tracer.wrap(bulk.BulkIngestor, "process_chunk", "bulk.process_chunk")

    def count_rounds(result) -> None:
        tracer.extra["kernels.rounds"] += int(result[0])

    tracer.wrap(bulk, "relax_to_fixpoint", "kernels.relax_to_fixpoint", count_rounds)
    for cls in program_classes:
        for attr in CALLBACKS:
            if hasattr(cls, attr):
                tracer.wrap(cls, attr, f"algorithms.{cls.name}.{attr}")
