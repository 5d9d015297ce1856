"""Span tracing from outside the program.

The benchmark may not edit ``src/``, so every span is recorded by a
benchmark-owned subclass or proxy wrapped around a *public* layer
boundary and calling straight through to the real thing:

==========================  ==================================================
``scheduler.run``           root: ``Scheduler(...).run()`` (opened by the caller)
``runtime.execute``         ``Runtime.execute`` (pool spin-up/teardown included)
``runtime.compute_dispatch``  the remote runtimes' dispatch seam
``spec.compute``            the task body (in-process runtimes only)
``store.read/write/pin``    every ``BlockStore`` access
==========================  ==================================================

A span is ``[name, t0, t1, parent, run_id, thread]``.  Spans stay in
memory; :func:`write_jsonl` dumps them when the benchmark ends.  A span's
*self time* is its duration minus the part of it its children cover
(the union of the child intervals, so two worker threads computing at
once are not counted twice).
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Iterable

from repro.memory.blockstore import BlockStore
from repro.memory.shm import SharedMemoryBlockStore
from repro.runtime import ClusterRuntime, InlineRuntime, ProcessRuntime, ThreadedRuntime

NAME, T0, T1, PARENT, RUN, THREAD = range(6)


class Tracer:
    """In-memory span recorder; thread-safe without a lock (each thread
    keeps its own open-span stack and ``list.append`` is GIL-atomic)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._local = threading.local()
        # Parent for spans opened on a thread with no open span of its
        # own: the worker threads of a runtime adopt its execute span.
        self._adopt: list | None = None

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def begin(self, name: str, adopt: bool = False) -> list:
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else self._adopt, self.run_id,
               threading.get_ident()]
        stack.append(rec)
        self.spans.append(rec)
        if adopt:
            self._adopt = rec
        rec[T0] = perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[T1] = perf_counter()
        self._local.stack.pop()
        if self._adopt is rec:
            self._adopt = None

    def leaf(self, name: str, t0: float) -> None:
        """Record a childless span that started at ``t0`` and ends now."""
        t1 = perf_counter()
        stack = self._stack()
        self.spans.append(
            [name, t0, t1, stack[-1] if stack else self._adopt, self.run_id, threading.get_ident()]
        )

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _cover(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    covered = 0.0
    edge = lo
    for t0, t1 in sorted(intervals):
        t0 = max(t0, edge)
        t1 = min(t1, hi)
        if t1 > t0:
            covered += t1 - t0
            edge = t1
    return covered


def fold(spans: Iterable[list]) -> dict[str, dict[str, Any]]:
    """Per-name totals of one run's spans:
    ``{name: {"n", "total", "self"}}`` (seconds)."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])].append((s[T0], s[T1]))
    out: dict[str, dict[str, Any]] = {}
    for s in spans:
        dur = s[T1] - s[T0]
        kids = children.get(id(s))
        own = dur - _cover(kids, s[T0], s[T1]) if kids else dur
        agg = out.get(s[NAME])
        if agg is None:
            agg = out[s[NAME]] = {"n": 0, "total": 0.0, "self": 0.0}
        agg["n"] += 1
        agg["total"] += dur
        agg["self"] += own
    return out


def write_jsonl(path: str, spans: Iterable[list]) -> int:
    """One JSON object per span; parents are referenced by line id."""
    spans = list(spans)
    ids = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            parent = ids.get(id(s[PARENT])) if s[PARENT] is not None else None
            fh.write(json.dumps({
                "id": i, "name": s[NAME], "t0": s[T0], "t1": s[T1],
                "parent": parent, "run": s[RUN], "thread": s[THREAD],
            }) + "\n")
    return len(spans)


# ---------------------------------------------------------------------------
# traced proxies and subclasses


class TracedSpec:
    """Delegating proxy over a task-graph spec: a span around ``compute``.

    The structural methods the schedulers call per task are bound once
    to the wrapped spec, so only ``compute`` pays for the indirection.
    """

    def __init__(self, spec: Any, tracer: Tracer) -> None:
        self._spec = spec
        self._tracer = tracer
        for name in ("sink_key", "predecessors", "successors", "inputs", "outputs",
                     "producer", "cost", "pred_index"):
            if hasattr(spec, name):
                setattr(self, name, getattr(spec, name))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._spec, name)

    def compute(self, key: Any, ctx: Any) -> None:
        rec = self._tracer.begin("spec.compute")
        try:
            self._spec.compute(key, ctx)
        finally:
            self._tracer.end(rec)


class _StoreSpans:
    """Mixin ahead of a ``BlockStore`` class: a leaf span per access."""

    tracer: Tracer

    def read(self, ref: Any) -> Any:
        t0 = perf_counter()
        try:
            return super().read(ref)  # type: ignore[misc]
        finally:
            self.tracer.leaf("store.read", t0)

    def write(self, ref: Any, data: Any) -> None:
        t0 = perf_counter()
        try:
            super().write(ref, data)  # type: ignore[misc]
        finally:
            self.tracer.leaf("store.write", t0)

    def pin(self, ref: Any, data: Any) -> None:
        t0 = perf_counter()
        try:
            super().pin(ref, data)  # type: ignore[misc]
        finally:
            self.tracer.leaf("store.pin", t0)


class TracedBlockStore(_StoreSpans, BlockStore):
    pass


class TracedSharedStore(_StoreSpans, SharedMemoryBlockStore):
    pass


def traced_store(app: Any, tracer: Tracer, shared: bool) -> BlockStore:
    """``app.make_store(True, shared)`` with the traced store classes."""
    cls = TracedSharedStore if shared else TracedBlockStore
    store = cls(getattr(app, "ft_policy", None))
    store.tracer = tracer
    seed = getattr(app, "seed_store", None)
    if seed is not None:
        seed(store)
    return store


class _ExecuteSpan:
    tracer: Tracer

    def execute(self, root: Any) -> Any:
        rec = self.tracer.begin("runtime.execute", adopt=True)
        try:
            return super().execute(root)  # type: ignore[misc]
        finally:
            self.tracer.end(rec)


class _DispatchSpan(_ExecuteSpan):
    def compute_dispatch(self, spec: Any, key: Any, ctx: Any, life: int = 0) -> None:
        rec = self.tracer.begin("runtime.compute_dispatch")
        try:
            super().compute_dispatch(spec, key, ctx, life)  # type: ignore[misc]
        finally:
            self.tracer.end(rec)


class TracedInlineRuntime(_ExecuteSpan, InlineRuntime):
    pass


class TracedThreadedRuntime(_ExecuteSpan, ThreadedRuntime):
    pass


class TracedProcessRuntime(_DispatchSpan, ProcessRuntime):
    pass


class TracedClusterRuntime(_DispatchSpan, ClusterRuntime):
    pass


TRACED_RUNTIMES = {
    InlineRuntime: TracedInlineRuntime,
    ThreadedRuntime: TracedThreadedRuntime,
    ProcessRuntime: TracedProcessRuntime,
    ClusterRuntime: TracedClusterRuntime,
}
