"""Execution tracing: the N(A) accounting the paper's analysis is built on.

Section V's bounds are *a posteriori*: they depend on how many times each
task actually executed.  :class:`ExecutionTrace` counts that, and every
fact the harness and the injection check read, as a fold of the event
vocabulary: one count per :class:`~repro.obs.events.EventKind`, plus
per-key counts for the kinds N(A) is stated in.  A live run notes each
event as it happens; :mod:`repro.obs.replay` folds a recorded log
through the same :meth:`ExecutionTrace.note`.  Thread-safe.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

from repro.obs.events import EventKind

#: Reported counter name -> the event kind it counts, in ``summary()``
#: order.  Every scalar counter a report, gauge or attribute read names
#: is a row here; a kind with no row is still counted, just not reported.
COUNTERS: dict[str, EventKind] = {
    "recovery_skips": EventKind.RECOVERY_SKIPPED,
    "resets": EventKind.RESET,
    "notify_reinits": EventKind.REINIT,
    "reinit_scans": EventKind.REINIT_SCAN,
    "notifications": EventKind.NOTIFY,
    "stale_notifications": EventKind.NOTIFY_STALE,
    "stale_frames": EventKind.STALE_FRAME,
    "faults_observed": EventKind.FAULT_OBSERVED,
    "faults_injected": EventKind.FAULT_INJECTED,
    "sdc_injected": EventKind.SDC_INJECTED,
    "sdc_detected": EventKind.SDC_DETECTED,
    "sdc_escaped": EventKind.SDC_ESCAPED,
    "replica_runs": EventKind.REPLICA_RUN,
}


@dataclass(eq=False)
class ExecutionTrace:
    """Event counts for one task-graph execution."""

    computes: Counter = field(default_factory=Counter)
    """key -> COMPUTE_BEGIN events: times COMPUTE ran for the task."""

    compute_failures: Counter = field(default_factory=Counter)
    """key -> COMPUTE_FAULT events: invocations that raised a detected fault."""

    recoveries: Counter = field(default_factory=Counter)
    """key -> RECOVERY events: REPLACETASK incarnations beyond the first."""

    counts: dict = field(default_factory=dict.fromkeys(EventKind, 0).copy)
    """kind -> events of that kind noted (every kind, reported or not)."""

    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    _serial: bool = field(default=False, repr=False)
    """True when frames run on one thread at a time: notes skip the lock."""

    SCALAR_COUNTERS = frozenset(COUNTERS)

    def __post_init__(self) -> None:
        self._by_key = {
            EventKind.COMPUTE_BEGIN: self.computes,
            EventKind.COMPUTE_FAULT: self.compute_failures,
            EventKind.RECOVERY: self.recoveries,
        }

    # -- mutation (scheduler side) -------------------------------------------------

    def assume_serial(self) -> None:
        """Declare that all future notes come from one thread at a time
        (runtimes with ``concurrent_frames = False``: inline, simulated)."""
        self._serial = True

    def assume_concurrent(self) -> None:
        """Re-arm the lock (a threaded runtime is about to mutate)."""
        self._serial = False

    def note(self, kind: EventKind, key: Hashable = None) -> None:
        """Count one event of ``kind``; a per-key kind also against its ``key``
        (tested last: the per-edge NOTIFY site passes none)."""
        if self._serial:
            self.counts[kind] += 1
            if key is not None and kind in self._by_key:
                self._by_key[kind][key] += 1
            return
        with self._lock:
            self.counts[kind] += 1
            if key is not None and kind in self._by_key:
                self._by_key[kind][key] += 1

    def fold(self, events: Iterable[Any]) -> ExecutionTrace:
        """Note every event (anything with ``kind`` and ``key``); returns self."""
        for event in events:
            self.note(event.kind, event.key)
        return self

    # -- analysis (harness side) ---------------------------------------------------

    def executions(self) -> dict[Hashable, int]:
        """The paper's N: key -> execution count (only keys that computed)."""
        return dict(self.computes)

    @property
    def tasks_computed(self) -> int:
        """Distinct tasks whose COMPUTE ran at least once."""
        return len(self.computes)

    @property
    def total_computes(self) -> int:
        return sum(self.computes.values())

    @property
    def reexecutions(self) -> int:
        """Extra COMPUTE invocations beyond one per task -- the paper's
        "number of re-executed tasks" metric (Table II)."""
        return self.total_computes - self.tasks_computed

    @property
    def max_executions(self) -> int:
        """The paper's script-N: max over tasks of N(A)."""
        return max(self.computes.values(), default=0)

    @property
    def total_recoveries(self) -> int:
        return sum(self.recoveries.values())

    def summary(self) -> dict[str, int]:
        return {
            "tasks_computed": self.tasks_computed,
            "total_computes": self.total_computes,
            "reexecutions": self.reexecutions,
            "max_executions": self.max_executions,
            "recoveries": self.total_recoveries,
            **{name: self.counts[kind] for name, kind in COUNTERS.items()},
        }


# ``trace.resets`` and friends: a read-only view of the table's rows.
for _name, _kind in COUNTERS.items():
    setattr(ExecutionTrace, _name, property(lambda self, k=_kind: self.counts[k]))
del _name, _kind


def note_and_emit(trace: ExecutionTrace | None, log: Any, kind: EventKind,
                  key: Hashable = None, life: int = 0, **data: Any) -> None:
    """Note one event on ``trace`` and emit it into ``log`` if live (either
    may be ``None``): the fault-path sites.  The per-task and per-edge
    sites keep two statements, the emit behind the caller's cached guard."""
    if trace is not None:
        trace.note(kind, key)
    if log is not None and log.enabled:
        log.emit(kind, key, life, **data)
