"""Derive :class:`ExecutionTrace` counters from the structured event log.

The counters are a fold of the log: ``replay_trace`` notes every event
into a fresh trace through the same :meth:`ExecutionTrace.note` a live
run calls, so no kind table here follows the vocabulary.
``verify_consistency`` diffs the replayed trace against the live one.
Only valid for an **unbounded** log (``assert_consistent`` refuses a
ring buffer that dropped events).
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.events import Event
from repro.runtime.tracing import ExecutionTrace

#: The per-key maps compared key by key (the paper's N(A) and its faults).
_PER_KEY = ("computes", "compute_failures", "recoveries")


def replay_trace(events: Iterable[Event]) -> ExecutionTrace:
    """The :class:`ExecutionTrace` an instrumented run would have noted,
    rebuilt purely from its event log."""
    return ExecutionTrace().fold(events)


def replay_summary(events: Iterable[Event]) -> dict[str, int]:
    """The event-log-derived equivalent of :meth:`ExecutionTrace.summary`."""
    return replay_trace(events).summary()


def verify_consistency(events: Iterable[Event], trace: ExecutionTrace) -> dict[str, tuple[int, int]]:
    """Diff the event-log-derived counters against a live trace.

    Returns ``{counter: (from_events, from_trace)}`` for every mismatch
    -- empty means the log and the counters agree exactly.  Every
    reported counter is compared, and each per-key map key by key: a
    differing map is reported as ``"map[key]"`` for its first differing
    key, with that key's two counts.
    """
    derived = replay_trace(events)
    ours, theirs = derived.summary(), trace.summary()
    diff = {name: (a, theirs[name]) for name, a in ours.items() if a != theirs[name]}
    for name in _PER_KEY:
        a, b = getattr(derived, name), getattr(trace, name)
        for key in (*a, *b):
            if a[key] != b[key]:
                diff[f"{name}[{key!r}]"] = (a[key], b[key])
                break
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
