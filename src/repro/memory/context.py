"""Compute-context implementation backed by a :class:`BlockStore`.

One context is created per ``COMPUTE`` invocation.  Besides plain I/O it
enforces the footprint declared by the spec: a task may only touch the
block versions it declared (undeclared dependences would silently break
both scheduling correctness and recovery), and it counts the declared
outputs still unwritten, which the compute seam checks on return.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import SchedulerError
from repro.graph.taskspec import BlockRef, Key, TaskGraphSpec
from repro.memory.blockstore import BlockStore


class StoreComputeContext:
    """The object handed to ``spec.compute(key, ctx)``."""

    __slots__ = ("spec", "store", "key", "_inputs", "_outputs", "writes", "unwritten")

    def __init__(
        self,
        spec: TaskGraphSpec,
        store: BlockStore,
        key: Key,
        footprint: tuple[frozenset, frozenset, int] | None = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.key = key
        # BlockRef is a namedtuple, so raw (block, version) tuples from a
        # spec hash/compare equal to wrapped refs; membership tests below
        # need no per-element rewrapping.  Schedulers pass the plan's
        # cached footprint, ``(inputs, outputs, len(outputs))``, so
        # re-executions skip the spec round-trip.
        if footprint is None:
            outputs = frozenset(spec.outputs(key))
            footprint = (frozenset(spec.inputs(key)), outputs, len(outputs))
        # ``unwritten`` counts the declared outputs not yet written, and
        # ``writes`` holds those written, each once: a count the compute
        # seam tests on return, so the check costs no call per task.
        self._inputs, self._outputs, self.unwritten = footprint
        self.writes: tuple[BlockRef, ...] = ()

    def read(self, ref: BlockRef) -> Any:
        if type(ref) is not BlockRef:
            ref = BlockRef(*ref)
        if ref not in self._inputs:
            raise SchedulerError(
                f"task {self.key!r} read undeclared input {ref!r}; "
                f"declared inputs: {sorted(self._inputs, key=repr)!r}"
            )
        return self.store.read(ref)

    def write(self, ref: BlockRef, value: Any) -> None:
        if type(ref) is not BlockRef:
            ref = BlockRef(*ref)
        if ref not in self._outputs:
            raise SchedulerError(
                f"task {self.key!r} wrote undeclared output {ref!r}; "
                f"declared outputs: {sorted(self._outputs, key=repr)!r}"
            )
        self.store.write(ref, value)
        if ref not in self.writes:
            self.writes += (ref,)
            self.unwritten -= 1

    def missing_outputs(self) -> tuple[BlockRef, ...]:
        """Declared outputs not written by this invocation (empty after a
        correct compute; the schedulers fail the run otherwise)."""
        return tuple(r for r in sorted(self._outputs, key=repr) if r not in self.writes)
