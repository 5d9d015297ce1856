"""Unit tests for the run-time fault injector."""

import pytest

from repro.core.records import TaskRecord
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultEvent, FaultPhase, FaultPlan
from repro.graph.builders import grid_graph
from repro.graph.taskspec import BlockRef
from repro.memory.blockstore import BlockStore
from repro.runtime.tracing import ExecutionTrace


def make_injector(events, spec=None, store=None, trace=None):
    spec = spec or grid_graph(4, 4)
    store = store if store is not None else BlockStore()
    plan = FaultPlan(events=events, implied_reexecutions=len(events))
    return FaultInjector(plan, spec, store, trace), store


class TestFiring:
    def test_fires_on_matching_phase_and_life(self):
        inj, _ = make_injector([FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE)])
        rec = TaskRecord((1, 1), 3)
        inj.on_after_compute(rec)
        assert rec.corrupted
        assert inj.all_fired()

    def test_ignores_other_phases(self):
        inj, _ = make_injector([FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE)])
        rec = TaskRecord((1, 1), 3)
        inj.on_task_waiting(rec)
        inj.on_after_notify(rec)
        assert not rec.corrupted
        assert not inj.all_fired()

    def test_ignores_other_keys(self):
        inj, _ = make_injector([FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE)])
        rec = TaskRecord((2, 2), 3)
        inj.on_after_compute(rec)
        assert not rec.corrupted

    def test_fires_once_only(self):
        inj, _ = make_injector([FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE)])
        rec1 = TaskRecord((1, 1), 3, life=1)
        inj.on_after_compute(rec1)
        rec2 = TaskRecord((1, 1), 3, life=1)
        inj.on_after_compute(rec2)
        assert rec1.corrupted and not rec2.corrupted

    def test_life_matching(self):
        inj, _ = make_injector([FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE, life=2)])
        first = TaskRecord((1, 1), 3, life=1)
        inj.on_after_compute(first)
        assert not first.corrupted
        second = TaskRecord((1, 1), 3, life=2)
        inj.on_after_compute(second)
        assert second.corrupted

    def test_multiple_lives_fire_in_order(self):
        inj, _ = make_injector([
            FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE, life=1),
            FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE, life=2),
        ])
        r1 = TaskRecord((1, 1), 3, life=1)
        r2 = TaskRecord((1, 1), 3, life=2)
        inj.on_after_compute(r1)
        inj.on_after_compute(r2)
        assert r1.corrupted and r2.corrupted
        assert inj.all_fired()


class TestDataCorruption:
    def test_outputs_marked(self):
        spec = grid_graph(4, 4)
        store = BlockStore()
        store.write(BlockRef((1, 1), 0), "data")
        inj, _ = make_injector(
            [FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE)], spec=spec, store=store
        )
        inj.on_after_compute(TaskRecord((1, 1), 3))
        assert store.status_of(BlockRef((1, 1), 0)) == "corrupted"

    def test_descriptor_only_event(self):
        spec = grid_graph(4, 4)
        store = BlockStore()
        store.write(BlockRef((1, 1), 0), "data")
        inj, _ = make_injector(
            [FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE, corrupt_outputs=False)],
            spec=spec, store=store,
        )
        rec = TaskRecord((1, 1), 3)
        inj.on_after_compute(rec)
        assert rec.corrupted
        assert store.status_of(BlockRef((1, 1), 0)) == "ok"

    def test_trace_counts_injections(self):
        trace = ExecutionTrace()
        inj, _ = make_injector(
            [FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE)], trace=trace
        )
        inj.on_after_compute(TaskRecord((1, 1), 3))
        assert trace.faults_injected == 1


class TestBookkeeping:
    def test_unfired_lists_pending(self):
        inj, _ = make_injector([
            FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE),
            FaultEvent((2, 2), FaultPhase.BEFORE_COMPUTE),
        ])
        inj.on_after_compute(TaskRecord((1, 1), 3))
        pending = inj.unfired
        assert len(pending) == 1
        assert pending[0].key == (2, 2)

    def test_fired_log(self):
        inj, _ = make_injector([FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE)])
        inj.on_after_compute(TaskRecord((1, 1), 3))
        assert [e.key for e in inj.fired] == [(1, 1)]


class _CountingLock:
    """A lock stand-in that counts its acquisitions."""

    def __init__(self):
        self.taken = 0

    def __enter__(self):
        self.taken += 1

    def __exit__(self, *exc):
        return False


class TestKeyedHooks:
    def test_a_key_with_no_pending_event_takes_no_lock(self):
        inj, _ = make_injector([
            FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE),
            FaultEvent((2, 2), FaultPhase.AFTER_NOTIFY),
        ])
        inj._lock = lock = _CountingLock()
        for key in ((0, 0), (2, 2)):
            rec = TaskRecord(key, 3)
            inj.on_task_waiting(rec)
            inj.on_after_compute(rec)
        inj.on_after_notify(TaskRecord((1, 1), 3))
        assert lock.taken == 0 and not inj.fired
        inj.on_after_compute(TaskRecord((1, 1), 3))
        assert lock.taken == 1 and [e.key for e in inj.fired] == [(1, 1)]
        # The fired key left its table: the next probe is a miss again.
        inj.on_after_compute(TaskRecord((1, 1), 3, life=2))
        assert lock.taken == 1

    def test_a_multi_life_plan_fires_in_life_order_in_every_phase(self):
        key = (1, 1)
        events = [
            FaultEvent(key, phase, life=life)
            for life in (3, 1, 2) for phase in FaultPhase
        ]
        inj, _ = make_injector(events)
        hooks = {
            FaultPhase.BEFORE_COMPUTE: inj.on_task_waiting,
            FaultPhase.AFTER_COMPUTE: inj.on_after_compute,
            FaultPhase.AFTER_NOTIFY: inj.on_after_notify,
        }
        for life in (1, 2):
            for phase, hook in hooks.items():
                rec = TaskRecord(key, 3, life=life)
                hook(rec)
                assert rec.corrupted
                assert inj.fired[-1] == FaultEvent(key, phase, life=life)
        # A life out of order fires nothing: each phase waits for life 3.
        for hook in hooks.values():
            hook(TaskRecord(key, 3, life=4))
        assert len(inj.fired) == 6
        assert inj.unfired == [FaultEvent(key, phase, life=3) for phase in FaultPhase]
        for hook in hooks.values():
            hook(TaskRecord(key, 3, life=3))
        assert inj.all_fired() and len(inj.fired) == 9
