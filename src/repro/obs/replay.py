"""Derive :class:`ExecutionTrace` counters from the structured event log.

The event log and the aggregate counters describe the same execution;
keeping them consistent means the counters stay *derivable* and the log
stays *complete* -- one source of truth.  ``replay_summary`` rebuilds
exactly the dict :meth:`ExecutionTrace.summary` reports, and
``verify_consistency`` diffs the two (used as a test-time invariant and
by ``python -m repro trace --check``).

Only valid for an **unbounded** log: a ring buffer that dropped events
cannot replay them (``verify_consistency`` refuses in that case).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.obs.events import Event, EventKind
from repro.runtime.tracing import ExecutionTrace

#: Counter-name -> event kind for the scalar counters (the per-key
#: counters ``computes``/``compute_failures``/``recoveries`` are handled
#: separately because summary() reports derived aggregates of them).
_SCALAR_KINDS: dict[str, EventKind] = {
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


#: Kinds replayed through the per-key ``count_*`` methods (they feed the
#: derived aggregates in ``summary()``, not a scalar counter).
_PER_KEY_KINDS = frozenset(
    {EventKind.COMPUTE_BEGIN, EventKind.COMPUTE_FAULT, EventKind.RECOVERY}
)

#: Kinds deliberately *not* replayed into any counter.  Each entry is a
#: conscious decision, enforced at test time by
#: ``tests/obs/test_replay_parity.py`` -- a new EventKind member must be
#: routed into a counter here or listed below, or that test fails.
#:
#: * TASK_CREATED / COMPUTE_END / TASK_COMPUTED / TASK_COMPLETED are
#:   lifecycle *milestones*: their counts are implied by the counters
#:   already replayed (created tasks == map inserts, ends == begins minus
#:   faults) and ExecutionTrace never tracked them.
#: * STEAL / PARK / UNPARK / WORKER_DOWN / WORKER_UP belong to the
#:   work-stealing / process-pool substrate; the runtime reports them in
#:   :class:`~repro.runtime.api.RunResult`, which has its own event
#:   parity check in ``repro.obs.metrics``.
#: * SPAN is pure telemetry (durations), consumed by
#:   :mod:`repro.obs.attribution`; it never moves a logical counter.
#: * CONNECT / DISCONNECT / FETCH describe the comm substrate under
#:   ClusterRuntime (channel lifecycle and lazy block shipping); like
#:   the pool events above they never move a logical scheduler counter
#:   -- a lost connection's *consequence* is the WORKER_DOWN /
#:   COMPUTE_FAULT / RECOVERY triple that follows it, which replays.
REPLAY_IGNORED = frozenset(
    {
        EventKind.TASK_CREATED,
        EventKind.COMPUTE_END,
        EventKind.TASK_COMPUTED,
        EventKind.TASK_COMPLETED,
        EventKind.STEAL,
        EventKind.PARK,
        EventKind.UNPARK,
        EventKind.WORKER_DOWN,
        EventKind.WORKER_UP,
        EventKind.CONNECT,
        EventKind.DISCONNECT,
        EventKind.FETCH,
        EventKind.SPAN,
    }
)

#: Every kind the replay accounts for, one way or another.
REPLAY_HANDLED = _PER_KEY_KINDS | frozenset(_SCALAR_KINDS.values())


def replay_trace(events: Iterable[Event]) -> ExecutionTrace:
    """Reconstruct an :class:`ExecutionTrace` equivalent to the one the
    instrumented run mutated, purely from its event log."""
    trace = ExecutionTrace()
    kinds = Counter()
    for event in events:
        if event.kind is EventKind.COMPUTE_BEGIN:
            trace.count_compute(event.key)
        elif event.kind is EventKind.COMPUTE_FAULT:
            trace.count_compute_failure(event.key)
        elif event.kind is EventKind.RECOVERY:
            trace.count_recovery(event.key)
        else:
            kinds[event.kind] += 1
    for name, kind in _SCALAR_KINDS.items():
        if kinds[kind]:
            trace.bump(name, kinds[kind])
    return trace


def replay_summary(events: Iterable[Event]) -> dict[str, int]:
    """The event-log-derived equivalent of :meth:`ExecutionTrace.summary`."""
    return replay_trace(events).summary()


def verify_consistency(events: Iterable[Event], trace: ExecutionTrace) -> dict[str, tuple[int, int]]:
    """Diff the event-log-derived counters against a live trace.

    Returns ``{counter: (from_events, from_trace)}`` for every mismatch
    -- empty means the log and the counters agree exactly.  Also checks
    the per-key execution counts (the paper's N(A)), not just the
    aggregates.
    """
    events = list(events)
    derived = replay_trace(events)
    diff: dict[str, tuple[int, int]] = {}
    for name, a in derived.summary().items():
        b = trace.summary()[name]
        if a != b:
            diff[name] = (a, b)
    if derived.executions() != trace.executions():
        diff["executions"] = (derived.total_computes, trace.total_computes)
    if dict(derived.recoveries) != dict(trace.recoveries):
        diff["recoveries_by_key"] = (derived.total_recoveries, trace.total_recoveries)
    return diff


def assert_consistent(log, trace: ExecutionTrace) -> None:
    """Raise ``AssertionError`` if ``log`` cannot replay to ``trace``.

    Accepts an :class:`~repro.obs.events.EventLog` (so it can refuse
    lossy ring buffers) or any iterable of events.
    """
    dropped = getattr(log, "dropped", 0)
    if dropped:
        raise AssertionError(
            f"event log dropped {dropped} events (ring buffer); counters are not derivable"
        )
    events = log.events if hasattr(log, "events") else list(log)
    diff = verify_consistency(events, trace)
    if diff:
        detail = ", ".join(
            f"{name}: events={a} trace={b}" for name, (a, b) in sorted(diff.items())
        )
        raise AssertionError(f"event log and ExecutionTrace disagree: {detail}")
