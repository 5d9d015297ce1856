"""Per-task compiled plans: a spec's static facts, derived once.

A :class:`~repro.graph.taskspec.TaskGraphSpec` is immutable by contract
(the paper's graphs are *discovered* dynamically, never rewired), so
everything the schedulers derive from it per task -- the ordered
predecessor list, each predecessor's notification-bit mask, the wrapped
input refs, the footprint frozensets, the producer -> refs availability
map -- is a pure function of ``(spec, key)``.  A :class:`TaskPlan` holds
those facts; a :class:`PlanTable` builds each plan on first use and keeps
it for the spec's lifetime, so a spec that is run more than once pays the
derivation in its first run only.

The table of a :class:`~repro.graph.taskspec.TaskSpecBase` hangs off the
spec (:attr:`TaskSpecBase.plans`) but is **not** part of its pickled
state: remote runtimes pickle the spec while scheduler threads are still
filling the table.  :func:`plans_of` gives any other spec a table owned
by the caller.

Concurrency: plans are immutable once built and a build race stores two
equal plans under one key, so the table needs no lock.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.graph.taskspec import BlockRef

Key = Hashable


class _BitOf(dict):
    """``predecessor -> mask`` for one task; a miss names both keys."""

    __slots__ = ("key",)
    key: Key

    def __missing__(self, pkey: Key) -> int:
        raise KeyError(f"{pkey!r} is not a predecessor of {self.key!r}")


class TaskPlan:
    """The static facts of one task of one spec."""

    __slots__ = ("preds", "masks", "bit_of", "inputs", "footprint", "needs")

    def __init__(self, spec: Any, key: Key) -> None:
        preds = tuple(spec.predecessors(key))
        bit_of = _BitOf()
        bit_of.key = key
        masks = []
        bit = 1
        for p in preds:
            masks.append(bit_of.setdefault(p, bit))  # a duplicate keeps its first bit
            bit <<= 1
        self.preds = preds
        """Ordered predecessor keys."""
        self.masks = tuple(masks)
        """Notification-bit mask of each entry of ``preds``."""
        # By convention (CONVERTPREDKEYTOINDEX in the paper) a task's own
        # key maps to the extra self-notification slot after its
        # predecessors; see the schedulers' join-counter protocol.
        bit_of[key] = bit
        self.bit_of = bit_of
        """``predecessor (or own key) -> mask``."""
        inputs = tuple([r if type(r) is BlockRef else BlockRef(*r) for r in spec.inputs(key)])
        self.inputs = inputs
        """Consumed block versions, in spec order, as :class:`BlockRef`."""
        outputs = frozenset(spec.outputs(key))
        self.footprint = (frozenset(inputs), outputs, len(outputs))
        """``(inputs, outputs, len(outputs))`` for
        ``StoreComputeContext(footprint=...)``."""
        needs: dict[Key, tuple[BlockRef, ...]] = {}
        producer_of = spec.producer
        for ref in inputs:
            producer = producer_of(ref)
            needs[producer] = needs.get(producer, ()) + (ref,)
        self.needs = needs
        """``producer key -> the refs this task consumes from it``."""


class PlanTable(dict):
    """``key -> TaskPlan`` for one spec, filled on first lookup."""

    __slots__ = ("spec",)
    spec: Any

    def __init__(self, spec: Any) -> None:
        self.spec = spec

    def __missing__(self, key: Key) -> TaskPlan:
        plan = self[key] = TaskPlan(self.spec, key)
        return plan

    def n_preds(self, key: Key) -> int:
        """``TaskMap``'s ``n_preds_of``."""
        return len(self[key].preds)


def plans_of(spec: Any) -> PlanTable:
    """The spec's own plan table, or a fresh one for a spec without."""
    plans = getattr(spec, "plans", None)
    return plans if isinstance(plans, PlanTable) else PlanTable(spec)
