"""Task-graph specification protocol.

The scheduler never sees application data structures directly; it drives a
:class:`TaskGraphSpec`, which supplies the five pieces of information the
paper elicits from users (Section III):

* **Task key** -- any hashable value uniquely identifying a task.
* **Sink task** -- the task that transitively depends on all others.
* **Predecessors / successors** -- *ordered* lists keyed by task key.  The
  order of the predecessor list is load-bearing for fault tolerance: the
  per-predecessor notification bit vector (Guarantee 3) indexes into it.
* **Compute** -- the user computation, invoked with a
  :class:`ComputeContext` for versioned block I/O.

Specs additionally expose the *data-block footprint* of each task
(:meth:`TaskGraphSpec.inputs` / :meth:`TaskGraphSpec.outputs`) so that the
memory subsystem can track overwrites of reused buffers, and a virtual
:meth:`TaskGraphSpec.cost` used by the discrete-event runtime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, NamedTuple, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:
    from repro.graph.plan import PlanTable

Key = Hashable


class BlockRef(NamedTuple):
    """A reference to one *version* of a data block.

    ``block`` identifies the buffer (e.g. a tile coordinate) and ``version``
    the sequential definition number of its contents.  Under memory reuse a
    later version physically overwrites an earlier one in the same buffer;
    the block store tracks which version a buffer currently holds.
    """

    block: Hashable
    version: int


class ComputeContext(Protocol):
    """I/O interface handed to ``compute`` callbacks.

    Reads raise :class:`repro.core.exceptions.DataCorruptionError` if the
    stored version is marked corrupted, and
    :class:`repro.core.exceptions.OverwrittenError` if the requested version
    is no longer resident (reused buffer).  The fault-tolerant scheduler
    catches both and drives recovery of the producing task.
    """

    def read(self, ref: BlockRef) -> Any: ...

    def write(self, ref: BlockRef, value: Any) -> None: ...


@runtime_checkable
class TaskGraphSpec(Protocol):
    """Structural + computational description of a dynamic task graph."""

    def sink_key(self) -> Key:
        """Key of the unique task with no outgoing dependences."""
        ...

    def predecessors(self, key: Key) -> Sequence[Key]:
        """Ordered immediate predecessors of ``key`` (empty for sources)."""
        ...

    def successors(self, key: Key) -> Sequence[Key]:
        """Ordered immediate successors of ``key`` (empty for the sink)."""
        ...

    def compute(self, key: Key, ctx: ComputeContext) -> None:
        """Execute the task body, reading inputs / writing outputs via ctx."""
        ...

    def inputs(self, key: Key) -> Sequence[BlockRef]:
        """Block versions consumed by ``key``."""
        ...

    def outputs(self, key: Key) -> Sequence[BlockRef]:
        """Block versions produced by ``key``."""
        ...

    def cost(self, key: Key) -> float:
        """Virtual compute cost of ``key`` (arbitrary units, > 0)."""
        ...


class TaskSpecBase:
    """Convenience base supplying defaults for optional spec surface.

    Subclasses must implement ``sink_key``, ``predecessors``, ``successors``
    and ``compute``.  By default a task reads the (sole) output of each
    predecessor and produces one version-0 block named by its own key --
    i.e. single-assignment with a one-to-one task/block correspondence,
    which matches graphs that carry no explicit data-block model.
    """

    def sink_key(self) -> Key:  # pragma: no cover - abstract
        raise NotImplementedError

    def predecessors(self, key: Key) -> Sequence[Key]:  # pragma: no cover - abstract
        raise NotImplementedError

    def successors(self, key: Key) -> Sequence[Key]:  # pragma: no cover - abstract
        raise NotImplementedError

    def compute(self, key: Key, ctx: ComputeContext) -> None:  # pragma: no cover
        raise NotImplementedError

    def inputs(self, key: Key) -> Sequence[BlockRef]:
        return tuple([BlockRef(p, 0) for p in self.predecessors(key)])

    def outputs(self, key: Key) -> Sequence[BlockRef]:
        return (BlockRef(key, 0),)

    def cost(self, key: Key) -> float:
        return 1.0

    # ---- derived helpers shared by all specs -------------------------------

    def producer(self, ref: BlockRef) -> Key:
        """Key of the task that produces ``ref``.

        The default matches the default ``inputs``/``outputs`` convention
        (block id == producing task's key, version 0).  Specs that
        override the block footprint MUST override ``producer`` with the
        matching O(1) inverse map -- the scheduler calls it on every
        availability check and recovery routing decision.
        """
        return ref.block

    @property
    def plans(self) -> "PlanTable":
        """This spec's :class:`~repro.graph.plan.PlanTable`: each task's
        static facts, derived on first use and kept for the spec's
        lifetime (a spec is immutable once built)."""
        try:
            return self.__dict__["_plans"]
        except KeyError:
            from repro.graph.plan import PlanTable

            # setdefault is one GIL-atomic step: racing first readers
            # all end up with the same table.
            return self.__dict__.setdefault("_plans", PlanTable(self))

    def __getstate__(self) -> dict:
        # The plan table is derived state that scheduler threads may be
        # filling while a remote runtime pickles the spec.
        state = self.__dict__.copy()
        state.pop("_plans", None)
        return state

    def pred_index(self, key: Key, pkey: Key) -> int:
        """Index of ``pkey`` in ``key``'s ordered predecessor list (first
        occurrence); the task's *own* key maps to the self-notification
        slot at index ``len(predecessors)``.  Read off the task's plan."""
        return self.plans[key].bit_of[pkey].bit_length() - 1

    def walk_from_sink(self) -> Iterator[Key]:
        """Yield every task reachable backward from the sink (BFS order)."""
        from collections import deque

        seen = {self.sink_key()}
        frontier = deque(seen)
        while frontier:
            key = frontier.popleft()
            yield key
            for p in self.predecessors(key):
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)


class CallableSpec(TaskSpecBase):
    """Adapter building a spec from plain callables.

    Useful for quick experimentation::

        spec = CallableSpec(
            sink="c",
            preds=lambda k: {"c": ["a", "b"]}.get(k, []),
            succs=lambda k: {"a": ["c"], "b": ["c"]}.get(k, []),
            compute=lambda k, ctx: ctx.write(BlockRef(k, 0), k.upper()),
        )
    """

    def __init__(
        self,
        sink: Key,
        preds: Callable[[Key], Sequence[Key]],
        succs: Callable[[Key], Sequence[Key]],
        compute: Callable[[Key, ComputeContext], None],
        cost: Callable[[Key], float] | None = None,
    ) -> None:
        self._sink = sink
        self._preds = preds
        self._succs = succs
        self._compute = compute
        self._cost = cost

    def sink_key(self) -> Key:
        return self._sink

    def predecessors(self, key: Key) -> Sequence[Key]:
        return tuple(self._preds(key))

    def successors(self, key: Key) -> Sequence[Key]:
        return tuple(self._succs(key))

    def compute(self, key: Key, ctx: ComputeContext) -> None:
        self._compute(key, ctx)

    def cost(self, key: Key) -> float:
        return 1.0 if self._cost is None else float(self._cost(key))
