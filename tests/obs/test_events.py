"""Unit and stress tests for the structured event log."""

import gc
import sys
import threading
import types

import pytest

from repro.core import FTScheduler
from repro.graph.builders import grid_graph
from repro.obs import events as events_module
from repro.obs.events import Event, EventKind, EventLog, events_in_order
from repro.runtime import InlineRuntime, SimulatedRuntime, ThreadedRuntime


def _reachable_from_globals(module):
    """Every object reachable from ``module``'s globals without entering
    a module or another module's globals."""
    module_dicts = {id(vars(m)) for m in list(sys.modules.values()) if hasattr(m, "__dict__")}
    seen, found = set(module_dicts), []
    stack = list(vars(module).values())
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, types.ModuleType):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestEventLogBasics:
    def test_emit_records_seq_in_order(self):
        log = EventLog()
        log.emit(EventKind.TASK_CREATED, "a", 1)
        log.emit(EventKind.COMPUTE_BEGIN, "a", 1)
        events = log.events
        assert [e.seq for e in events] == [0, 1]
        assert events[0].kind is EventKind.TASK_CREATED
        assert events[0].key == "a"
        assert events[0].life == 1

    def test_data_kwargs_preserved(self):
        log = EventLog()
        log.emit(EventKind.COMPUTE_FAULT, "a", 2, exc="TaskCorruptionError", source="b")
        e = log.events[0]
        assert e.data == {"exc": "TaskCorruptionError", "source": "b"}

    def test_emit_at_explicit_attribution(self):
        log = EventLog()
        log.emit_at(EventKind.STEAL, 42.0, 3, victim=1, depth=5)
        e = log.events[0]
        assert e.t == 42.0
        assert e.worker == 3
        assert e.data["victim"] == 1

    def test_default_clock_and_worker(self):
        log = EventLog()
        log.emit(EventKind.PARK)
        e = log.events[0]
        assert e.worker == 0
        assert e.t >= 0

    def test_bind_runtime_adopts_clock_and_worker(self):
        class FakeRuntime:
            def obs_now(self):
                return 7.5

            def obs_worker(self):
                return 2

        log = EventLog()
        log.bind_runtime(FakeRuntime())
        log.emit(EventKind.NOTIFY, "k", 1)
        assert log.events[0].t == 7.5
        assert log.events[0].worker == 2

    def test_bind_runtime_without_obs_surface_is_noop(self):
        log = EventLog()
        log.bind_runtime(object())
        log.emit(EventKind.PARK)  # must not raise

    def test_by_kind_filters(self):
        log = EventLog()
        log.emit(EventKind.NOTIFY, "a", 1)
        log.emit(EventKind.RECOVERY, "a", 2)
        log.emit(EventKind.NOTIFY, "b", 1)
        assert len(log.by_kind(EventKind.NOTIFY)) == 2
        assert len(log.by_kind(EventKind.RECOVERY, EventKind.NOTIFY)) == 3

    def test_len_iter_clear(self):
        log = EventLog()
        for i in range(5):
            log.emit(EventKind.PARK)
        assert len(log) == 5
        assert len(list(log)) == 5
        log.clear()
        assert len(log) == 0
        assert log.total_emitted == 0

    def test_events_in_order_sorts_by_seq(self):
        events = [
            Event(2, 0.0, 0, EventKind.PARK),
            Event(0, 5.0, 0, EventKind.PARK),
            Event(1, 3.0, 0, EventKind.PARK),
        ]
        assert [e.seq for e in events_in_order(events)] == [0, 1, 2]


class TestRingBuffer:
    def test_capacity_bounds_retention(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.emit(EventKind.NOTIFY, i, 1)
        assert len(log) == 3
        assert log.total_emitted == 10
        assert log.dropped == 7
        assert [e.key for e in log.events] == [7, 8, 9]  # most recent survive

    def test_unbounded_never_drops(self):
        log = EventLog()
        for i in range(100):
            log.emit(EventKind.NOTIFY, i, 1)
        assert log.dropped == 0
        assert len(log) == 100

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


class TestNullLog:
    """Off is ``None``: there is no shared disabled log to bind."""

    @pytest.mark.parametrize(
        "make", [InlineRuntime, lambda: SimulatedRuntime(2), lambda: ThreadedRuntime(2)],
        ids=["inline", "simulated", "threaded"],
    )
    def test_an_untraced_run_leaves_its_runtime_unreachable_from_the_module(self, make):
        rt = make()
        sched = FTScheduler(grid_graph(4, 4), rt)
        sched.run()
        assert sched.log is None
        # A method bound to the runtime (a log's clock) would reach it too.
        assert not any(o is rt for o in _reachable_from_globals(events_module))

    def test_event_to_dict_stringifies_tuple_keys(self):
        e = Event(0, 1.5, 2, EventKind.REINIT, key=("upd", 1, 2), life=3,
                  data={"successor": ("potrf", 4)})
        d = e.to_dict()
        assert d["key"] == "('upd', 1, 2)"
        assert d["successor"] == "('potrf', 4)"
        assert d["kind"] == "reinit"


class TestConcurrentEmission:
    def test_no_lost_or_duplicated_events(self):
        """Many threads hammering one log: every emission is retained
        exactly once, with a gap-free global sequence."""
        log = EventLog()
        n_threads, per_thread = 8, 500

        def work(tid):
            for i in range(per_thread):
                log.emit(EventKind.NOTIFY, (tid, i), 1)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        events = log.events
        assert len(events) == n_threads * per_thread
        seqs = [e.seq for e in events]
        assert seqs == list(range(n_threads * per_thread))  # gap-free, in order
        keys = [e.key for e in events]
        assert len(set(keys)) == len(keys)  # nothing duplicated
        # Per-thread program order is preserved in the global order.
        for tid in range(n_threads):
            mine = [e.key[1] for e in events if e.key[0] == tid]
            assert mine == list(range(per_thread))
