"""The EventLog's record/decode split: emission appends flat records and
allocates nothing the collector tracks; reading decodes them into
:class:`Event` objects exactly once, a reader racing an emitter never
sees part of a record, and a read in the middle of a run sees whole
task incarnations only."""

import gc
import sys
import threading
import time
from collections import Counter

from repro.core import FTScheduler
from repro.graph.builders import grid_graph
from repro.obs.events import EventKind, EventLog
from repro.runtime import InlineRuntime
from repro.verify.invariants import check_events


class TestEmissionAllocatesNoTrackedObjects:
    def test_dataless_emits_leave_nothing_for_the_collector(self):
        """A data-less emission must not leave an ``Event``, a dict or a
        tuple behind: with the collector off, the tracked-object census
        stays flat over N emits (one ``Event`` per emit would add N)."""
        n = 5000
        log = EventLog()
        log.emit(EventKind.NOTIFY, ("k", 0), 1)  # registers the thread buffer
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            for _ in range(n):
                log.emit(EventKind.NOTIFY, "k", 1)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert grown < n // 50, f"{grown} tracked objects survived {n} emits"
        assert len(log) == n + 1
        assert [e.seq for e in log.events] == list(range(n + 1))


class TestReaderRacingEmitter:
    def test_concurrent_reads_see_whole_gap_free_prefix_stable_events(self):
        """One thread emits in a tight loop while another reads
        ``log.events`` over and over.  Every snapshot is made of whole
        records (each field in its own slot), gap-free from seq 0, and
        extends the previous snapshot with the very same Event objects."""
        log = EventLog()
        stop = threading.Event()
        emitted = 0

        def emitter():
            nonlocal emitted
            i = 0
            while not stop.is_set():
                if i % 3:
                    log.emit(EventKind.NOTIFY, ("k", i), i + 1)
                else:
                    log.emit(EventKind.SPAN, ("k", i), i + 1, phase="kernel", wall=float(i))
                i += 1
            emitted = i

        worker = threading.Thread(target=emitter)
        previous: list = []
        reads = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            worker.start()
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline and (reads < 50 or len(previous) < 2000):
                snapshot = log.events
                assert len(snapshot) >= len(previous)
                assert all(a is b for a, b in zip(snapshot, previous))
                for i, e in enumerate(snapshot[len(previous):], start=len(previous)):
                    assert e.seq == i
                    assert e.key == ("k", i) and e.life == i + 1 and e.worker == 0
                    if i % 3:
                        assert e.kind is EventKind.NOTIFY and e.data == {}
                    else:
                        assert e.kind is EventKind.SPAN
                        assert e.data == {"phase": "kernel", "wall": float(i)}
                previous = snapshot
                reads += 1
        finally:
            stop.set()
            worker.join(5.0)
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert reads >= 2 and emitted > 0
        final = log.events
        assert len(final) == emitted == log.total_emitted
        assert all(a is b for a, b in zip(final, previous))
        assert [e.seq for e in final] == list(range(emitted))


class _ReadMidRun:
    """Reads the log once, from inside the run, after ``after`` tasks
    completed."""

    def __init__(self, log, after):
        self.log, self.after, self.snapshot = log, after, None

    def on_task_waiting(self, record):
        return None

    def on_after_compute(self, record):
        return None

    def on_after_notify(self, record):
        self.after -= 1
        if self.after == 0:
            self.snapshot = self.log.events


class TestMidRunRead:
    def test_a_mid_run_read_returns_only_completed_incarnations(self):
        """An incarnation is handed to the log when it completes, so a
        read from inside the run holds whole lifecycles of the tasks done
        so far -- none of a task still waiting or computing -- and the
        final read extends it with the very same Event objects."""
        spec = grid_graph(6, 6)
        log = EventLog()
        hooks = _ReadMidRun(log, after=10)
        FTScheduler(spec, InlineRuntime(), hooks=hooks, event_log=log).run()
        mid = hooks.snapshot
        done = {(e.key, e.life) for e in mid if e.kind is EventKind.TASK_COMPLETED}
        assert len(done) == 10
        assert {(e.key, e.life) for e in mid} == done
        per_task = Counter((e.key, e.kind) for e in mid)
        for key, _ in done:
            assert per_task[key, EventKind.COMPUTE_BEGIN] == 1
            assert per_task[key, EventKind.NOTIFY] == 1 + len(spec.predecessors(key))
        final = log.events
        assert all(a is b for a, b in zip(final, mid))
        assert [e.seq for e in final] == list(range(len(final)))
        assert len(final) == 36 * 5 + sum(
            1 + len(spec.predecessors((i, j))) for i in range(6) for j in range(6))
        assert check_events(final, spec=spec) == []
