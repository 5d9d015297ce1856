"""Unit tests for execution tracing (the N accounting)."""

import sys
import threading

from repro.obs.events import EventKind, EventLog
from repro.runtime.tracing import COUNTERS, ExecutionTrace, note_and_emit


class TestCounters:
    def test_compute_counts(self):
        t = ExecutionTrace()
        t.note(EventKind.COMPUTE_BEGIN, "a")
        t.note(EventKind.COMPUTE_BEGIN, "a")
        t.note(EventKind.COMPUTE_BEGIN, "b")
        assert t.executions() == {"a": 2, "b": 1}
        assert t.tasks_computed == 2
        assert t.total_computes == 3
        assert t.reexecutions == 1
        assert t.max_executions == 2

    def test_empty_trace(self):
        t = ExecutionTrace()
        assert t.reexecutions == 0
        assert t.max_executions == 0
        assert t.tasks_computed == 0

    def test_recoveries(self):
        t = ExecutionTrace()
        t.note(EventKind.RECOVERY, "x")
        t.note(EventKind.RECOVERY, "x")
        t.note(EventKind.RECOVERY, "y")
        assert t.total_recoveries == 3
        assert t.recoveries == {"x": 2, "y": 1}

    def test_typed_increments_cover_every_scalar_counter(self):
        """Every row of the one table is a readable attribute fed by its kind."""
        t = ExecutionTrace()
        for i, kind in enumerate(COUNTERS.values()):
            for _ in range(i + 1):
                t.note(kind)
        for i, name in enumerate(COUNTERS):
            assert getattr(t, name) == i + 1, name
        assert t.resets == 2 and t.replica_runs == len(COUNTERS)

    def test_summary_keys(self):
        t = ExecutionTrace()
        t.note(EventKind.COMPUTE_BEGIN, "a")
        t.note(EventKind.COMPUTE_FAULT, "a")
        s = t.summary()
        assert s["tasks_computed"] == 1
        assert s["reexecutions"] == 0
        assert t.compute_failures == {"a": 1}
        for key in ("recoveries", "resets", "notify_reinits", "faults_observed"):
            assert key in s

    def test_summary_reports_every_scalar_counter(self):
        # Regression: reinit_scans and stale_frames used to be silently
        # dropped from summary(), so harness reports lost them.
        t = ExecutionTrace()
        for _ in range(7):
            t.note(EventKind.REINIT_SCAN)
        t.note(EventKind.STALE_FRAME)
        s = t.summary()
        assert s["reinit_scans"] == 7
        assert s["stale_frames"] == 1
        assert list(s)[5:] == list(COUNTERS)
        assert ExecutionTrace.SCALAR_COUNTERS == set(COUNTERS)

    def test_unreported_kinds_are_counted_not_reported(self):
        t = ExecutionTrace()
        t.note(EventKind.TASK_CREATED, "a")
        t.note(EventKind.STEAL)
        assert t.counts[EventKind.TASK_CREATED] == 1
        assert t.counts[EventKind.STEAL] == 1
        assert t.summary() == ExecutionTrace().summary()

    def test_fold_is_note_per_event(self):
        log = EventLog()
        log.emit(EventKind.COMPUTE_BEGIN, "a", 1)
        log.emit(EventKind.NOTIFY, "b", 1, src="a")
        t = ExecutionTrace()
        assert t.fold(log.events) is t
        assert t.computes == {"a": 1} and t.notifications == 1

    def test_note_and_emit_counts_and_logs_the_same_event(self):
        t, log = ExecutionTrace(), EventLog()
        note_and_emit(t, log, EventKind.RESET, "a", 2)
        note_and_emit(None, log, EventKind.RESET, "b", 1)
        note_and_emit(t, None, EventKind.RECOVERY, "a")
        assert t.resets == 1 and t.recoveries == {"a": 1}
        assert [(e.kind, e.key, e.life) for e in log.events] == [
            (EventKind.RESET, "a", 2), (EventKind.RESET, "b", 1)]

    def test_thread_safety_smoke(self):
        t = ExecutionTrace()

        def work():
            for i in range(20_000):
                t.note(EventKind.COMPUTE_BEGIN, i % 7)
                t.note(EventKind.NOTIFY)

        # A short switch interval makes a lost update in note() likely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert t.total_computes == 120_000
        assert t.notifications == 120_000
