"""The buffered EventLog's post-quiescence guarantees: late emissions
either extend the drained prefix deterministically, raise
:class:`LateEmitError` when they would rewrite it, or raise
:class:`SealedLogError` once the log is sealed."""

import threading
from contextlib import contextmanager

import pytest

from repro.obs.events import (
    EventKind,
    EventLog,
    LateEmitError,
    SealedLogError,
)


@contextmanager
def stalled_emit(log):
    """A worker thread preempted mid-``emit``: it has taken its sequence
    number and is stuck reading the clock, so its record lands only when
    the ``with`` block ends.  The bound clock is the seam -- an emission
    reserves its seq, then asks the runtime for the time."""
    in_clock, go = threading.Event(), threading.Event()
    worker = threading.Thread(target=log.emit, args=(EventKind.SPAN, "late"))

    class StallingClock:
        def obs_now(self):
            if threading.current_thread() is worker:
                in_clock.set()
                assert go.wait(5.0)
            return 0.0

    log.bind_runtime(StallingClock())
    worker.start()
    assert in_clock.wait(5.0)
    try:
        yield
    finally:
        go.set()
        worker.join(5.0)
    assert not worker.is_alive()


class TestSeal:
    def test_emit_after_seal_raises_at_emit_site(self):
        log = EventLog()
        log.emit(EventKind.NOTIFY, "a", 1)
        log.seal()
        assert log.sealed
        with pytest.raises(SealedLogError):
            log.emit(EventKind.NOTIFY, "b", 1)

    def test_emit_at_after_seal_raises(self):
        log = EventLog()
        log.seal()
        with pytest.raises(SealedLogError):
            log.emit_at(EventKind.PARK, 1.0, 0)

    def test_unbuffered_log_seals_too(self):
        log = EventLog(buffered=False)
        log.emit(EventKind.PARK)
        log.seal()
        with pytest.raises(SealedLogError):
            log.emit(EventKind.PARK)

    def test_sealed_log_still_readable(self):
        log = EventLog()
        log.emit(EventKind.NOTIFY, "a", 1)
        log.seal()
        assert [e.key for e in log.events] == ["a"]


class TestLateMerge:
    def test_late_higher_seq_events_extend_the_prefix(self):
        """An emission arriving after a drain is fine as long as its
        sequence number extends the observed order -- the merged view
        grows deterministically, it never reorders."""
        log = EventLog()
        log.emit(EventKind.NOTIFY, "a", 1)
        log.emit(EventKind.NOTIFY, "b", 1)
        first = [e.key for e in log.events]  # drain once
        assert first == ["a", "b"]

        done = threading.Event()

        def late():
            log.emit(EventKind.SPAN, None, 0, phase="kernel", wall=0.1)
            done.set()

        threading.Thread(target=late).start()
        assert done.wait(5.0)
        again = log.events
        assert [e.key for e in again] == ["a", "b", None]
        assert [e.seq for e in again] == [0, 1, 2]

    def test_interleaving_late_emit_raises(self):
        """A worker that took its stamp before quiescence but delivered
        its record after a drain would silently rewrite the drained
        prefix -- the next drain must refuse, and keep refusing.  (A
        drained event's seq is its rank, so the prefix reads 0, 1 though
        the stalled record holds the stamp between them.)"""
        log = EventLog()
        log.emit(EventKind.NOTIFY, "a", 1)  # stamp 0
        with stalled_emit(log):  # a worker takes stamp 1, then stalls
            log.emit(EventKind.NOTIFY, "b", 1)  # stamp 2
            assert [(e.seq, e.key) for e in log.events] == [(0, "a"), (1, "b")]
        # The stalled worker has now delivered stamp 1 -- inside the prefix.
        for _ in range(2):
            with pytest.raises(LateEmitError, match="reorder the drained prefix"):
                _ = log.events

    def test_undrained_log_accepts_any_interleaving(self):
        """The guard protects *observed* order only: if nobody drained,
        out-of-order buffer delivery is simply merged."""
        log = EventLog()
        log.emit(EventKind.NOTIFY, "a", 1)
        with stalled_emit(log):
            log.emit(EventKind.NOTIFY, "b", 1)
        assert [(e.seq, e.key) for e in log.events] == [(0, "a"), (1, "late"), (2, "b")]


class TestClear:
    def test_clear_resets_prefix_and_sequence(self):
        log = EventLog()
        log.emit(EventKind.NOTIFY, "a", 1)
        _ = log.events  # observe the order
        log.clear()
        assert len(log) == 0
        log.emit(EventKind.NOTIFY, "b", 1)  # restarts at seq 0
        events = log.events  # must not raise LateEmitError
        assert [(e.seq, e.key) for e in events] == [(0, "b")]
