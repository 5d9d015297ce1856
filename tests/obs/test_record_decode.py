"""The EventLog's record/decode split: emission appends flat records and
allocates nothing the collector tracks; reading decodes them into
:class:`Event` objects exactly once, and a reader racing an emitter
never sees part of a record."""

import gc
import sys
import threading
import time

from repro.obs.events import EventKind, EventLog


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
