"""The scheduler's seam into the event log: lifecycle phases stamp the
task record with stamps bound at construction, and each incarnation is
handed to the log once -- one record that decodes to its lifecycle
events in every storage mode, under a seal, from many threads, and
without keeping a finished log alive."""

import gc
import sys
import weakref

import pytest

from repro.core import FTScheduler, NabbitScheduler
from repro.graph.taskspec import BlockRef
from repro.graph.builders import grid_graph
from repro.obs.events import EventKind, EventLog, SealedLogError
from repro.runtime import InlineRuntime, SimulatedRuntime, ThreadedRuntime
from repro.runtime.tracing import ExecutionTrace, assert_consistent
from repro.verify.invariants import check_log


def _ft_run(log, spec=None, runtime=None):
    spec = spec if spec is not None else grid_graph(6, 6)
    FTScheduler(spec, runtime or InlineRuntime(), event_log=log).run()
    return log.events


def _shape(events):
    return [(e.kind, e.key, e.life, e.data) for e in events]


_LIFECYCLE = frozenset({
    EventKind.TASK_CREATED, EventKind.NOTIFY, EventKind.COMPUTE_BEGIN,
    EventKind.COMPUTE_END, EventKind.TASK_COMPUTED, EventKind.TASK_COMPLETED,
})


def _records_of(events):
    """The records a fault-free run's events decode from: one per task
    incarnation (each completes) and one per event of any other kind."""
    return sum(e.kind is EventKind.TASK_COMPLETED or e.kind not in _LIFECYCLE for e in events)


class TestStorageModes:
    def test_buffered_locked_and_ring_decode_to_the_same_stream(self):
        streams = {
            name: _ft_run(log)
            for name, log in (
                ("buffered", EventLog()),
                ("locked", EventLog(buffered=False)),
                ("ring", EventLog(capacity=10_000)),
            )
        }
        reference = _shape(streams["buffered"])
        assert len(reference) > 6 * 6 * 8
        for name, events in streams.items():
            assert _shape(events) == reference, name
            assert [e.seq for e in events] == list(range(len(events))), name

    def test_notify_keeps_its_source(self):
        events = _ft_run(EventLog())
        notifies = [e for e in events if e.kind is EventKind.NOTIFY]
        assert notifies and all(set(e.data) == {"src"} for e in notifies)
        assert all(e.data is not notifies[0].data for e in notifies[1:])

    def test_clear_does_not_strand_a_scheduler_built_before_it(self):
        """The scheduler binds ``seq`` at construction; ``clear`` restarts
        numbering at 0 without replacing the counter it bound."""
        log = EventLog()
        log.emit(EventKind.PARK)
        _ = log.events
        scheduler = FTScheduler(grid_graph(3, 3), InlineRuntime(), event_log=log)
        log.clear()
        scheduler.run()
        log.emit(EventKind.PARK)
        events = log.events
        assert [e.seq for e in events] == list(range(len(events)))
        assert events[0].kind is EventKind.TASK_CREATED
        assert events[-1].kind is EventKind.PARK


class TestReuseAcrossRuntimes:
    def test_an_inline_log_reused_on_threads_decodes_in_seq_order(self):
        """Bound to InlineRuntime by one run, reused for 4-thread runs: the
        merged stream is what a ``buffered=False`` log records, every seq
        from 0 in order, and the run is invariant-clean.  A switch interval
        of 1 us makes a thread switch between ``next(seq)`` and ``put``
        common: records sharing one buffer would decode out of order."""
        spec = grid_graph(16, 16)
        log = EventLog()
        assert _shape(_ft_run(log, spec)) == _shape(_ft_run(EventLog(buffered=False), spec))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(4):
                log.clear()
                runtime = ThreadedRuntime(workers=4, seed=seed, event_log=log)
                FTScheduler(spec, runtime, event_log=log).run()
                events = log.events
                assert [e.seq for e in events] == list(range(len(events))), f"seed {seed}"
                assert _records_of(events) == log.total_emitted
                assert check_log(log, spec) == [], f"seed {seed}"
                log.bind_runtime(InlineRuntime())
        finally:
            sys.setswitchinterval(interval)


class TestNotifySource:
    """A NOTIFY decodes to ``{"src": source}`` on every runtime and every
    path into the log; one recorded without a source decodes to ``{}``."""

    @pytest.mark.parametrize("runtime", [
        InlineRuntime, lambda: ThreadedRuntime(workers=2, seed=3),
        lambda: SimulatedRuntime(workers=4, seed=3),
    ], ids=["inline", "threaded2", "simulated4"])
    def test_every_notify_decodes_to_its_predecessor(self, runtime):
        spec = grid_graph(6, 6)
        log = EventLog()
        scheduler = FTScheduler(spec, runtime(), event_log=log)
        scheduler.run()
        notifies = log.by_kind(EventKind.NOTIFY)
        tasks = {e.key for e in log.by_kind(EventKind.TASK_CREATED)}
        # One per edge, and each task's notification of itself.
        assert len(notifies) == len(tasks) + sum(len(spec.predecessors(k)) for k in tasks)
        for e in notifies:
            src = e.data["src"]
            assert e.data == {"src": src}
            assert src == e.key or src in spec.predecessors(e.key), e
        assert check_log(log, spec) == []
        assert_consistent(log, scheduler.trace)

    @pytest.mark.parametrize("log", [
        EventLog, lambda: EventLog(buffered=False), lambda: EventLog(capacity=8),
    ], ids=["buffered", "locked", "ring"])
    def test_emit_with_src_and_a_sourceless_record_round_trip(self, log):
        log = log()
        log.emit(EventKind.NOTIFY, (1, 1), 1, src=(0, 1))
        log.rec.put((next(log.stamps()[0]), 0.0, 0, EventKind.NOTIFY, (1, 1), 1, None))
        assert [e.data for e in log.events] == [{"src": (0, 1)}, {}]


class TestSeal:
    def test_a_scheduler_site_raises_once_the_log_is_sealed(self):
        """The first completed incarnation's handoff is refused at the
        site, and the aborted run's leftover records are refused too."""
        log = EventLog()
        scheduler = FTScheduler(grid_graph(3, 3), InlineRuntime(), event_log=log)
        log.seal()
        with pytest.raises(SealedLogError, match=r"emit\(task_record\) on a sealed"):
            scheduler.run()
        assert log.events == [] and log.total_emitted == 0

    @pytest.mark.parametrize("scheduler", [FTScheduler, NabbitScheduler])
    def test_a_kernels_error_survives_the_refused_handoff(self, scheduler):
        """A kernel that seals the log and raises: the end-of-run handoff
        is refused too, but the run raises the kernel's error, with the
        refusal noted on it rather than in its place."""
        log = EventLog()

        def seal_and_fail(key, ctx):
            log.seal()
            raise ValueError(f"kernel {key!r} failed")

        spec = grid_graph(3, 3, compute=seal_and_fail)
        with pytest.raises(ValueError, match="kernel") as info:
            scheduler(spec, InlineRuntime(), event_log=log).run()
        (note,) = info.value.__notes__
        assert note.startswith("end-of-run handoff also failed: SealedLogError('emit(task_part)")

    def test_clear_reopens_a_sealed_log(self):
        log = EventLog()
        log.seal()
        log.clear()
        assert not log.sealed
        assert len(_ft_run(log, grid_graph(2, 2))) > 0


class TestThreads:
    def test_threaded_run_is_invariant_clean_and_attributed(self):
        spec = grid_graph(8, 8)
        log = EventLog()
        runtime = ThreadedRuntime(workers=4, seed=1, event_log=log)
        FTScheduler(spec, runtime, event_log=log).run()
        assert check_log(log, spec) == []
        events = log.events
        assert [e.seq for e in events] == list(range(len(events)))
        assert {e.worker for e in events} <= set(range(4))

    @pytest.mark.parametrize("scheduler", [FTScheduler, NabbitScheduler])
    def test_a_releasing_notification_is_recorded_before_the_compute(self, scheduler):
        """Every NOTIFY decodes immediately before the COMPUTE_BEGIN of
        its incarnation (the record places it there), and none is lost:
        the sources are appended under the join lock, so two notifiers
        racing to the record's first append cannot drop one.  A 1 us
        switch interval makes such races common; a lost or duplicated
        source fails ``join-conservation``/``no-double-notify`` and the
        fold against the live counters."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(20):
                spec = grid_graph(8, 8)
                log, trace = EventLog(), ExecutionTrace()
                runtime = ThreadedRuntime(workers=4, seed=seed, event_log=log)
                scheduler(spec, runtime, trace=trace, event_log=log).run()
                assert check_log(log, spec) == [], f"seed {seed}"
                assert_consistent(log, trace)
                events = log.events
                for e, after in zip(events, events[1:]):
                    if e.kind is EventKind.NOTIFY:
                        assert after.kind in (EventKind.NOTIFY, EventKind.COMPUTE_BEGIN), after
                        assert (after.key, after.life) == (e.key, e.life)
        finally:
            sys.setswitchinterval(interval)


class TestNoCycle:
    def test_a_finished_runs_log_dies_with_its_last_reference(self):
        """The recorder holds the buffer registry and the lock, never the
        log, so reference counting alone frees a log after its run."""
        gc.collect()
        gc.disable()
        try:
            log = EventLog()
            _ft_run(log)
            dead = weakref.ref(log)
            del log
            assert dead() is None
        finally:
            gc.enable()


def _fails_at(bad):
    def compute(key, ctx):
        if key == bad:
            raise RuntimeError(f"kernel failed on {key}")
        ctx.write(BlockRef(key, 0), 0)
    return compute


class TestAbortedRun:
    @pytest.mark.parametrize("runtime", [
        InlineRuntime, lambda: SimulatedRuntime(workers=4, seed=3),
        lambda: ThreadedRuntime(workers=4, seed=3),
    ], ids=["inline", "simulated4", "threaded4"])
    def test_an_aborted_run_hands_on_its_unfinished_incarnations(self, runtime):
        """A kernel error aborts the run mid-compute.  The incarnations
        that never completed are handed on at the end of ``run()``: the
        failed compute is counted (N(A) counts every attempt), its
        COMPUTE_BEGIN decodes with no COMPUTE_END, traced and untraced
        runs count alike, and the log folds back to the live counters."""
        spec = grid_graph(6, 6, compute=_fails_at((3, 3)))
        summaries = []
        for log in (None, EventLog()):
            trace = ExecutionTrace()
            with pytest.raises(RuntimeError, match="kernel failed"):
                FTScheduler(spec, runtime(), trace=trace, event_log=log).run()
            assert trace.computes[(3, 3)] == 1
            summaries.append(trace.summary())
        assert summaries[0] == summaries[1]
        assert_consistent(log, trace)
        kinds = [e.kind for e in log.events if e.key == (3, 3)]
        assert EventKind.COMPUTE_BEGIN in kinds and EventKind.COMPUTE_END not in kinds
        assert check_log(log, spec, partial=True) == []


class TestLateNotification:
    def test_a_notification_after_the_compute_decodes_after_it(self):
        """A completed incarnation's record is read when the log is, and
        its COMPUTE_BEGIN stamp carries the sources that had arrived: a
        source a broken scheduler adds after the compute began (here by
        hand, after the run) decodes after the COMPUTE_BEGIN, where the
        checker convicts it."""
        spec = grid_graph(3, 3)
        log = EventLog()
        scheduler = FTScheduler(spec, InlineRuntime(), event_log=log)
        scheduler.run()
        rec, _ = scheduler.map.get((1, 1))
        rec.srcs += ((0, 1),)  # a second notification from (0, 1)
        events = [e for e in log.events if e.key == (1, 1)]
        kinds = [e.kind for e in events]
        begin = kinds.index(EventKind.COMPUTE_BEGIN)
        assert kinds[begin + 1] is EventKind.NOTIFY and events[begin + 1].data == {"src": (0, 1)}
        assert kinds[:begin].count(EventKind.NOTIFY) == 1 + len(spec.predecessors((1, 1)))
        found = {v.invariant for v in check_log(log, spec)}
        assert "no-double-notify" in found
