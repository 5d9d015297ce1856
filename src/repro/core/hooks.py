"""Scheduler lifecycle hooks -- the seam where faults are injected.

The paper injects faults by a-priori selecting tasks and the point in
their lifetime where the fault fires; "when a fault is injected, a flag is
set to mark the fault, which is then observed by a thread accessing that
task" (Section VI.B).  The scheduler therefore exposes the three lifetime
points of the paper's taxonomy and calls the bound hook object at each;
:mod:`repro.faults` provides the real injector.  Off is ``hooks=None``,
the default: the schedulers cache ``hooks is not None`` once, so a
fault-free run pays one local boolean test per hook point.

Hooks only *mark* corruption (record flags, block-store flags); detection
happens later at access sites, exactly like the paper's methodology.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.records import TaskRecord


class SchedulerHooks(Protocol):
    """Callbacks at the three fault-injection points of Section VI.B."""

    def on_task_waiting(self, record: TaskRecord) -> None:
        """*before compute*: the task finished traversing its predecessors
        and is waiting to be scheduled."""
        ...

    def on_after_compute(self, record: TaskRecord) -> None:
        """*after compute*: COMPUTE returned; successors not yet notified."""
        ...

    def on_after_notify(self, record: TaskRecord) -> None:
        """*after notify*: every enqueued successor has been notified."""
        ...


class CompositeHooks:
    """Fan one hook seam out to several implementations, in order.

    The detection subsystem needs this: a silent-fault injector and a
    replication detector both attach at the same lifecycle points, and
    their order is semantic -- the injector listed first corrupts the
    just-published outputs *before* the detector compares them, exactly
    the window a real SDC would occupy.

    The ``event_log`` / ``trace`` properties mirror the single-hook
    convention the schedulers rely on: the getter reports ``None`` while
    *any* child still has an unwired slot (so the scheduler shares its
    own), and the setter fills exactly those children, leaving ones the
    caller wired explicitly untouched.
    """

    def __init__(self, *hooks: SchedulerHooks) -> None:
        self.hooks: tuple[SchedulerHooks, ...] = tuple(h for h in hooks if h is not None)

    def on_task_waiting(self, record: TaskRecord) -> None:
        for h in self.hooks:
            h.on_task_waiting(record)

    def on_after_compute(self, record: TaskRecord) -> None:
        for h in self.hooks:
            h.on_after_compute(record)

    def on_after_notify(self, record: TaskRecord) -> None:
        for h in self.hooks:
            h.on_after_notify(record)

    def _shared(self, attr: str):
        found = None
        for h in self.hooks:
            if not hasattr(h, attr):
                continue
            value = getattr(h, attr)
            if value is None:
                return None  # at least one child still needs wiring
            if found is None:
                found = value
        return found

    @property
    def event_log(self):
        return self._shared("event_log")

    @event_log.setter
    def event_log(self, log) -> None:
        for h in self.hooks:
            if hasattr(h, "event_log") and h.event_log is None:
                h.event_log = log

    @property
    def trace(self):
        return self._shared("trace")

    @trace.setter
    def trace(self, trace) -> None:
        for h in self.hooks:
            if hasattr(h, "trace") and h.trace is None:
                h.trace = trace
