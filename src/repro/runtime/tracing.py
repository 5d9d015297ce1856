"""Execution tracing: the N(A) accounting the paper's analysis is built on.

Section V's bounds are *a posteriori*: they depend on how many times each
task actually executed.  :class:`ExecutionTrace` counts that, and every
fact the harness and the injection check read, as a fold of the event
vocabulary: one count per :class:`~repro.obs.events.EventKind`, plus
per-key counts for the kinds N(A) is stated in.  A live run notes each
cold-path event as it happens, and the scheduler hands each task
incarnation's lifecycle to :meth:`ExecutionTrace.record` once, when it
completes (its NOTIFYs and its COMPUTE_BEGIN, folded in one call).  A
recorded log replays through :meth:`ExecutionTrace.fold`, and
:func:`verify_consistency` diffs the two.  Thread-safe.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

from repro.obs.events import EventKind

_NOTIFY = EventKind.NOTIFY

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

    def record(self, rec: Any) -> None:
        """The counting sink: fold one completed task incarnation -- the
        notifications its arming counted and did not hand on yet
        (``n_preds + 1 - join - handed``) and its compute -- into the
        counts.  The scheduler's one call per task when no log is attached."""
        if self._serial:
            self.counts[_NOTIFY] += rec.n_preds + 1 - rec.join - rec.handed
            self.computes[rec.key] += 1
            return
        with self._lock:
            self.counts[_NOTIFY] += rec.n_preds + 1 - rec.join - rec.handed
            self.computes[rec.key] += 1

    def record_part(self, key: Hashable, notifications: int, computed: bool) -> None:
        """Fold what an incarnation that did not complete got through (a
        compute fault, a replacement, an aborted run): the cold twin of
        :meth:`record`."""
        if self._serial:
            self.counts[_NOTIFY] += notifications
            if computed:
                self.computes[key] += 1
            return
        with self._lock:
            self.counts[_NOTIFY] += notifications
            if computed:
                self.computes[key] += 1

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
    """Note one event on ``trace`` and emit it into ``log`` (either may
    be ``None``): the fault-path sites.  Lifecycle phases are not
    events at the site: they ride the task record (:meth:`ExecutionTrace.record`)."""
    if trace is not None:
        trace.note(kind, key)
    if log is not None:
        log.emit(kind, key, life, **data)


#: The per-key maps compared key by key (the paper's N(A) and its faults).
_PER_KEY = ("computes", "compute_failures", "recoveries")


def verify_consistency(events: Iterable[Any], trace: ExecutionTrace) -> dict[str, tuple[int, int]]:
    """Diff the counters a decoded log folds to against a live trace.

    Returns ``{counter: (from_events, from_trace)}`` for every mismatch
    -- empty means the log and the counters agree exactly.  Every
    reported counter is compared, and each per-key map key by key: a
    differing map is reported as ``"map[key]"`` for its first differing
    key, with that key's two counts.
    """
    derived = ExecutionTrace().fold(events)
    ours, theirs = derived.summary(), trace.summary()
    diff = {name: (a, theirs[name]) for name, a in ours.items() if a != theirs[name]}
    for name in _PER_KEY:
        a, b = getattr(derived, name), getattr(trace, name)
        for key in (*a, *b):
            if a[key] != b[key]:
                diff[f"{name}[{key!r}]"] = (a[key], b[key])
                break
    return diff


def assert_consistent(log: Any, trace: ExecutionTrace) -> None:
    """Raise ``AssertionError`` if ``log`` does not fold to ``trace``.

    Accepts an :class:`~repro.obs.events.EventLog` (so it can refuse a
    lossy ring buffer) or any iterable of events.
    """
    dropped = getattr(log, "dropped", 0)
    if dropped:
        raise AssertionError(
            f"event log dropped {dropped} records (ring buffer); counters are not derivable"
        )
    events = log.events if hasattr(log, "events") else list(log)
    diff = verify_consistency(events, trace)
    if diff:
        detail = ", ".join(
            f"{name}: events={a} trace={b}" for name, (a, b) in sorted(diff.items())
        )
        raise AssertionError(f"event log and ExecutionTrace disagree: {detail}")
