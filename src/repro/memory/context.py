"""Compute-context implementation backed by a :class:`BlockStore`.

One context is created per ``COMPUTE`` invocation.  Besides plain I/O it
enforces the footprint declared by the spec (a task may only touch the
block versions it declared -- undeclared dependences would silently break
both scheduling correctness and recovery) and records which inputs were
actually read, which the tracer uses for re-execution accounting.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import SchedulerError
from repro.graph.taskspec import BlockRef, Key, TaskGraphSpec
from repro.memory.blockstore import BlockStore


class StoreComputeContext:
    """The object handed to ``spec.compute(key, ctx)``."""

    __slots__ = ("spec", "store", "key", "_inputs", "_outputs", "reads", "writes")

    def __init__(
        self,
        spec: TaskGraphSpec,
        store: BlockStore,
        key: Key,
        footprint: tuple[frozenset, frozenset] | None = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.key = key
        # BlockRef is a namedtuple, so raw (block, version) tuples from a
        # spec hash/compare equal to wrapped refs; membership tests below
        # need no per-element rewrapping.  Schedulers that already cache
        # the (inputs, outputs) frozensets pass them via ``footprint`` so
        # re-executions skip the spec round-trip.
        if footprint is not None:
            self._inputs, self._outputs = footprint
        else:
            self._inputs = frozenset(spec.inputs(key))
            self._outputs = frozenset(spec.outputs(key))
        self.reads: list[BlockRef] = []
        self.writes: list[BlockRef] = []

    def read(self, ref: BlockRef) -> Any:
        if type(ref) is not BlockRef:
            ref = BlockRef(*ref)
        if ref not in self._inputs:
            raise SchedulerError(
                f"task {self.key!r} read undeclared input {ref!r}; "
                f"declared inputs: {sorted(self._inputs, key=repr)!r}"
            )
        value = self.store.read(ref)
        self.reads.append(ref)
        return value

    def write(self, ref: BlockRef, value: Any) -> None:
        if type(ref) is not BlockRef:
            ref = BlockRef(*ref)
        if ref not in self._outputs:
            raise SchedulerError(
                f"task {self.key!r} wrote undeclared output {ref!r}; "
                f"declared outputs: {sorted(self._outputs, key=repr)!r}"
            )
        self.store.write(ref, value)
        self.writes.append(ref)

    def read_all_inputs(self) -> dict[BlockRef, Any]:
        """Convenience: read every declared input (in spec order)."""
        return {BlockRef(*r): self.read(BlockRef(*r)) for r in self.spec.inputs(self.key)}

    def missing_outputs(self) -> tuple[BlockRef, ...]:
        """Declared outputs not written by this invocation (should be empty
        after a successful compute)."""
        written = set(self.writes)
        return tuple(r for r in sorted(self._outputs, key=repr) if r not in written)
