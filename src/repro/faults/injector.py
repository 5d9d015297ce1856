"""Run-time fault injector: fires planned faults at scheduler hook points.

Mirrors the paper's methodology exactly: "to simulate faults, we a priori
identify the tasks that would fail and the point in their lifetimes where
they would fail.  When a fault is injected, a flag is set to mark the
fault, which is then observed by a thread accessing that task."

The injector implements :class:`repro.core.hooks.SchedulerHooks`.  At each
lifecycle hook it checks whether a planned event matches ``(key, phase,
life)`` and, if so, strikes the task: :func:`flag_fault` sets the
record's corruption flag and (for post-compute phases) marks the task's
output block versions corrupted in the store.  Each event fires at most
once.  The pending events are one ``key -> events by life`` table per
phase, so a hook on a task with no planned event costs one dict probe
and no lock.  The plan-driven firing (the pending tables, ``fired``,
``unfired``) lives here once; a subclass changes only the strike
(:class:`~repro.detect.silent.SilentFaultInjector` mutates bytes), and
:class:`~repro.faults.random_injector.RandomInjector` strikes with
:func:`flag_fault` on its own trigger.

Thread-safe; usable on the threaded runtime.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable

from repro.core.records import TaskRecord
from repro.faults.model import FaultEvent, FaultPhase, FaultPlan
from repro.graph.taskspec import BlockRef, TaskGraphSpec
from repro.memory.blockstore import BlockStore
from repro.obs.events import EventKind, EventLog
from repro.runtime.tracing import ExecutionTrace, note_and_emit

# The hooks run on every task of a faulted run: read the phases as module
# globals, not Enum members.
_BEFORE_COMPUTE = FaultPhase.BEFORE_COMPUTE
_AFTER_COMPUTE = FaultPhase.AFTER_COMPUTE
_AFTER_NOTIFY = FaultPhase.AFTER_NOTIFY

#: A phase's pending events: key -> the events not fired yet, by life.
Pending = dict[Hashable, list[FaultEvent]]


def flag_fault(
    injector: Any, record: TaskRecord, phase: FaultPhase,
    descriptor: bool = True, outputs: bool = True,
) -> None:
    """The paper's injected fault, struck by ``injector`` (anything with
    ``spec``, ``store``, ``trace`` and ``event_log``): flag ``record``
    (``descriptor``), mark its output versions corrupted in the store
    (``outputs``), and note ``FAULT_INJECTED``."""
    if descriptor:
        record.corrupted = True
    if outputs:
        for raw in injector.spec.outputs(record.key):
            injector.store.mark_corrupted(BlockRef(*raw))
    note_and_emit(injector.trace, injector.event_log, EventKind.FAULT_INJECTED, record.key,
                  record.life, phase=phase.value)


class FaultInjector:
    """SchedulerHooks implementation driven by a :class:`FaultPlan`."""

    def __init__(
        self,
        plan: FaultPlan,
        spec: TaskGraphSpec,
        store: BlockStore,
        trace: ExecutionTrace | None = None,
        event_log: EventLog | None = None,
    ) -> None:
        self.plan = plan
        self.spec = spec
        self.store = store
        self.trace = trace
        self.event_log = event_log
        """Observability log for FAULT_INJECTED events.  Left ``None``,
        the FT scheduler shares its own log at construction time, so
        injected faults land in the same stream as their recoveries."""
        self._lock = threading.Lock()
        # One pending table per phase, bound once: a hook probes its own.
        tables: dict[FaultPhase, Pending] = {phase: {} for phase in FaultPhase}
        # (table, key) in plan order, for ``unfired``.
        self._slots: list[tuple[Pending, Hashable]] = []
        for event in plan:
            table = tables[event.phase]
            if event.key not in table:
                table[event.key] = []
                self._slots.append((table, event.key))
            table[event.key].append(event)
        for table, key in self._slots:
            table[key].sort(key=lambda e: e.life)
        self._waiting = tables[_BEFORE_COMPUTE]
        self._computed = tables[_AFTER_COMPUTE]
        self._notified = tables[_AFTER_NOTIFY]
        self.fired: list[FaultEvent] = []

    # -- hook dispatch -----------------------------------------------------------------
    # The membership probe is unlocked: a key leaves its table only once
    # its last event fired, so a miss is final, and a hit is re-read
    # under the lock.

    def on_task_waiting(self, record: TaskRecord) -> None:
        if record.key in self._waiting:
            self._maybe_fire(record, self._waiting, _BEFORE_COMPUTE)

    def on_after_compute(self, record: TaskRecord) -> None:
        if record.key in self._computed:
            self._maybe_fire(record, self._computed, _AFTER_COMPUTE)

    def on_after_notify(self, record: TaskRecord) -> None:
        if record.key in self._notified:
            self._maybe_fire(record, self._notified, _AFTER_NOTIFY)

    # -- internals ----------------------------------------------------------------------

    def _maybe_fire(self, record: TaskRecord, table: Pending, phase: FaultPhase) -> None:
        with self._lock:
            events = table.get(record.key)
            if not events or events[0].life != record.life:
                return
            event = events.pop(0)
            if not events:
                del table[record.key]
            self.fired.append(event)
        self._strike(record, phase, event)

    def _strike(self, record: TaskRecord, phase: FaultPhase, event: FaultEvent) -> None:
        """What a fired event does to its task (outside the lock)."""
        flag_fault(self, record, phase, event.corrupt_descriptor, event.corrupt_outputs)

    # -- verification -----------------------------------------------------------------------

    @property
    def unfired(self) -> list[FaultEvent]:
        """Planned events that never fired (e.g. after-notify faults whose
        task was never revisited cannot *observe* anything, but fire they
        must -- an unfired event means the lifecycle point was not reached,
        which for life=1 plans indicates a planner/scheduler mismatch)."""
        with self._lock:
            return [e for table, key in self._slots for e in table.get(key, ())]

    def all_fired(self) -> bool:
        return not self.unfired
