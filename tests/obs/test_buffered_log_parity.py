"""Replay-parity regression guard for the buffered EventLog.

The default :class:`EventLog` now appends to per-thread buffers and
merges them into one totally ordered sequence at quiescence; the
single-lock implementation survives as ``EventLog(buffered=False)`` (and
is mandatory for capacity-bounded ring logs).  Buffering must be
invisible to every consumer: identical Event tuples and replayed
counters versus the locked reference on a deterministic run, a gap-free
seq order under real thread interleavings, and traces that
``repro.verify invariants`` accepts unchanged.
"""

from collections import Counter

from repro.apps import make_app
from repro.core import FTScheduler
from repro.faults import FaultInjector, plan_faults
from repro.graph.builders import chain_graph, grid_graph
from repro.obs import EventLog, verify_consistency
from repro.obs.events import EventKind
from repro.runtime import InlineRuntime, SimulatedRuntime, ThreadedRuntime
from repro.runtime.tracing import ExecutionTrace
from repro.verify.invariants import check_events


def run_traced(spec, runtime, log, plan=None, store=None, app=None):
    from repro.memory.blockstore import BlockStore

    store = store if store is not None else BlockStore()
    trace = ExecutionTrace()
    hooks = FaultInjector(plan, app or spec, store, trace) if plan else None
    FTScheduler(spec, runtime, store=store, hooks=hooks, trace=trace,
                event_log=log).run()
    return trace


class TestBufferedMatchesLockedReference:
    def test_modes_are_wired_as_expected(self):
        assert EventLog().buffered
        assert not EventLog(buffered=False).buffered
        assert not EventLog(capacity=64).buffered  # rings must count drops

    def test_identical_events_fault_free(self):
        spec = grid_graph(5, 5)
        buffered, locked = EventLog(), EventLog(buffered=False)
        run_traced(spec, InlineRuntime(), buffered)
        run_traced(spec, InlineRuntime(), locked)
        assert buffered.events == locked.events

    def test_identical_events_and_replay_under_faults_simulated(self):
        """Same seed, same fault plan, both log modes: the simulated run
        is deterministic, so the buffered log must reproduce the locked
        log's Event tuples bit-for-bit -- same seq, t, worker, kind, key,
        life, data -- and replay to the same counters."""
        app = make_app("cholesky", scale="tiny")
        plan = plan_faults(app, phase="after_compute", task_type="v=rand",
                           count=2, seed=3)
        logs = {}
        for name, log in (("buffered", EventLog()),
                          ("locked", EventLog(buffered=False))):
            trace = run_traced(app, SimulatedRuntime(workers=4, seed=2), log,
                               plan=plan, store=app.make_store(True), app=app)
            assert trace.total_recoveries >= 1
            assert verify_consistency(log.events, trace) == {}
            logs[name] = log
        assert logs["buffered"].events == logs["locked"].events
        assert (ExecutionTrace().fold(logs["buffered"].events).summary()
                == ExecutionTrace().fold(logs["locked"].events).summary())

    def test_three_storage_modes_decode_to_equal_events(self):
        """One record format, one decoder: the per-thread buffers, the
        locked list and the ring read back event-for-event equal on a
        deterministic inline run that recovers from faults, and a ring
        too small for the run holds exactly its last records: a task
        record decodes to several events, so the ring's events are a
        sub-multiset of the run's that ends where the run ends."""
        app = make_app("lu", scale="tiny")
        plan = plan_faults(app, phase="after_notify", task_type="v=rand",
                           count=3, seed=4)
        logs = {"buffered": EventLog(), "locked": EventLog(buffered=False),
                "ring": EventLog(capacity=100_000), "small": EventLog(capacity=50)}
        for log in logs.values():
            trace = run_traced(app, InlineRuntime(), log, plan=plan,
                               store=app.make_store(True), app=app)
            assert trace.total_recoveries >= 1
        reference = logs["locked"].events
        records = logs["locked"].total_emitted
        assert 50 < records < len(reference)
        assert logs["buffered"].events == reference
        assert logs["ring"].events == reference
        tail = logs["small"].events
        assert logs["small"].dropped == records - 50
        assert len(logs["small"]) == 50
        assert 50 <= len(tail) < len(reference)
        assert [e.seq for e in tail] == list(range(len(tail)))
        shape = lambda e: (e.t, e.worker, e.kind, e.key, e.life, repr(e.data))  # noqa: E731
        assert not Counter(map(shape, tail)) - Counter(map(shape, reference))
        assert shape(tail[-1]) == shape(reference[-1])
        for log in logs.values():
            assert log.total_emitted == records

    def test_dataless_events_read_back_private_empty_dicts(self):
        """An emission without ``data`` records ``None``; the decoder
        gives each such event its own empty dict, so a caller scribbling
        on one cannot leak into another."""
        for log in (EventLog(), EventLog(buffered=False), EventLog(capacity=8)):
            log.emit(EventKind.COMPUTE_BEGIN, "a", 1)
            log.emit(EventKind.COMPUTE_END, "a", 1)
            log.emit(EventKind.NOTIFY, "b", 1, src="a")
            first, second, third = log.events
            assert first.data == {} and second.data == {}
            assert third.data == {"src": "a"}
            first.data["scribble"] = 1
            assert second.data == {}
            assert log.events[1].data == {}

    def test_buffered_log_is_gap_free_and_replays_on_real_threads(self):
        """Under genuine interleavings the two modes need not emit in the
        same global order, but the buffered merge must still yield a
        gap-free seq sequence whose counters replay exactly."""
        app = make_app("lu", scale="tiny")
        store = app.make_store(True)
        plan = plan_faults(app, phase="after_compute", task_type="v=rand",
                           count=2, seed=5)
        log = EventLog()
        trace = run_traced(app, ThreadedRuntime(workers=8, seed=1), log,
                           plan=plan, store=store, app=app)
        app.verify(store)
        events = log.events
        assert [e.seq for e in events] == list(range(len(events)))
        assert len(log) == log.total_emitted < len(events)
        assert verify_consistency(events, trace) == {}

    def test_events_stable_across_repeated_drains(self):
        """Reading the merged view twice (and after further emissions)
        must never reorder or drop events."""
        log = EventLog()
        run_traced(chain_graph(6), InlineRuntime(), log)
        first = log.events
        assert log.events == first  # memoized drain is stable
        # ... and decodes nothing twice: same Event objects, new list.
        assert all(a is b for a, b in zip(log.events, first))
        assert log.events is not first
        again = EventLog()
        run_traced(chain_graph(6), InlineRuntime(), again)
        assert again.events == first  # and deterministic across runs


class TestVerifyInvariantsAcceptsBufferedTraces:
    def test_faulty_buffered_trace_is_clean(self):
        app = make_app("lcs", scale="tiny")
        plan = plan_faults(app, phase="before_compute", count=3, seed=0)
        log = EventLog()
        run_traced(app, SimulatedRuntime(workers=3, seed=0), log,
                   plan=plan, store=app.make_store(True), app=app)
        assert check_events(log.events, spec=app, strict=True) == []

    def test_locked_reference_trace_is_equally_clean(self):
        app = make_app("lcs", scale="tiny")
        plan = plan_faults(app, phase="before_compute", count=3, seed=0)
        log = EventLog(buffered=False)
        run_traced(app, SimulatedRuntime(workers=3, seed=0), log,
                   plan=plan, store=app.make_store(True), app=app)
        assert check_events(log.events, spec=app, strict=True) == []

    def test_null_log_identity_survives(self):
        """The schedulers' fast no-tracing branch keys off an absent log:
        off is ``None``, never a stand-in object."""
        sched = FTScheduler(chain_graph(3), InlineRuntime())
        assert sched.log is None
        assert not sched._obs
