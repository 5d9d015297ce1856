"""Edge-case tests for the FT scheduler beyond the guarantee suite."""

import pytest

from repro.core import FTScheduler, NabbitScheduler, TaskStatus, run_scheduler
from repro.exceptions import SchedulerError
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultEvent, FaultPhase, FaultPlan
from repro.graph.builders import chain_graph, diamond_graph, grid_graph
from repro.graph.explicit import ExplicitTaskGraph
from repro.graph.taskspec import BlockRef
from repro.memory.allocator import Reuse
from repro.memory.blockstore import BlockStore
from repro.runtime import InlineRuntime, SimulatedRuntime, ThreadedRuntime
from repro.runtime.tracing import ExecutionTrace


def run_with_plan(spec, plan, store=None, workers=1, seed=0):
    store = store if store is not None else BlockStore()
    trace = ExecutionTrace()
    injector = FaultInjector(plan, spec, store, trace)
    sched = FTScheduler(
        spec, SimulatedRuntime(workers=workers, seed=seed),
        store=store, hooks=injector, trace=trace,
    )
    return sched.run(), injector, sched


class TestSingleTaskGraph:
    def test_trivial_graph(self):
        spec = chain_graph(1)
        res = run_scheduler(spec)
        assert res.trace.total_computes == 1

    def test_trivial_graph_with_fault(self):
        spec = chain_graph(1)
        plan = FaultPlan.single(0, "before_compute")
        res, injector, _ = run_with_plan(spec, plan)
        assert injector.all_fired()
        assert res.trace.total_computes == 1


class TestEveryTaskFails:
    @pytest.mark.parametrize("phase", ["before_compute", "after_compute"])
    def test_all_nonsink_tasks_fail(self, phase):
        spec = grid_graph(4, 4)
        expected = run_scheduler(spec).store.peek(BlockRef((3, 3), 0))
        victims = [(i, j) for i in range(4) for j in range(4) if (i, j) != (3, 3)]
        if phase == "before_compute":
            victims = [v for v in victims if v != (0, 0)]  # source never waits
        events = [
            FaultEvent(v, FaultPhase.from_name(phase),
                       corrupt_outputs=phase == "after_compute")
            for v in victims
        ]
        plan = FaultPlan(events=events, implied_reexecutions=len(events))
        res, injector, _ = run_with_plan(spec, plan, workers=4)
        assert injector.all_fired()
        assert res.store.peek(BlockRef((3, 3), 0)) == expected

    def test_chain_every_task_fails_after_compute(self):
        spec = chain_graph(8)
        events = [FaultEvent(i, FaultPhase.AFTER_COMPUTE) for i in range(8)]
        plan = FaultPlan(events=events, implied_reexecutions=8)
        res, injector, _ = run_with_plan(spec, plan)
        assert injector.all_fired()
        assert res.trace.reexecutions == 8


class TestStaleFrameGate:
    def test_stale_frames_detected_after_recovery(self):
        # A before-compute fault replaces the victim while its original
        # traversal frames are still queued; the life-number gate must
        # drop them instead of letting them misread predecessor state.
        spec = chain_graph(6)
        plan = FaultPlan.single(3, "before_compute")
        res, _, _ = run_with_plan(spec, plan)
        assert res.trace.stale_frames >= 1
        assert res.trace.reexecutions == 0

    def test_reuse_store_no_spurious_cascade(self):
        # With single-buffer reuse, a stale traversal re-checking consumed
        # inputs used to cascade; the gate prevents it (the bug found
        # during Figure 5 bring-up).
        spec = chain_graph(10)
        store = BlockStore(Reuse())
        plan = FaultPlan.single(7, "before_compute")
        res, _, _ = run_with_plan(spec, plan, store=store)
        assert res.trace.reexecutions == 0
        assert res.trace.total_recoveries == 1


class TestOverwrittenInputRecovery:
    def test_chain_replay_through_reused_buffers(self):
        """Single logical block rewritten by every task in a chain: a
        late fault forces replay from the pinned input forward."""

        def compute(key, ctx):
            prev = ctx.read(BlockRef("buf", key)) if key > 0 else 0
            ctx.write(BlockRef("buf", key + 1), prev + key + 1)

        n = 6
        spec = ExplicitTaskGraph([(i, i + 1) for i in range(n - 1)], compute=compute)
        # Override the default single-assignment footprint.
        spec.inputs = lambda k: (BlockRef("buf", k),) if k > 0 else ()
        spec.outputs = lambda k: (BlockRef("buf", k + 1),)
        spec.producer = lambda ref: None if ref.version == 0 else ref.version - 1

        store = BlockStore(Reuse())
        plan = FaultPlan.single(n - 2, "after_compute")
        res, injector, _ = run_with_plan(spec, plan, store=store)
        assert injector.all_fired()
        # Recovery needed version n-2, long evicted: replay from block 1.
        assert res.trace.reexecutions >= n - 2
        assert store.read(BlockRef("buf", n)) == sum(range(1, n + 1))


class TestHangDetection:
    def test_a_producer_that_never_writes_fails_at_once(self):
        # An application bug -- a task that never writes its declared
        # output -- is no fault: re-running the producer would skip the
        # same write, and the consumer would observe the missing input
        # for ever.  The compute seam fails the run at the producer.
        def compute(key, ctx):
            if key == "b":
                ctx.read(BlockRef("a", 0))  # producer "a" never wrote it
                ctx.write(BlockRef("b", 0), 1)
            # "a" writes nothing: the bug under test.

        spec = ExplicitTaskGraph([("a", "b")], compute=compute)
        trace = ExecutionTrace()
        sched = FTScheduler(spec, InlineRuntime(), store=BlockStore(), trace=trace)
        with pytest.raises(SchedulerError, match=r"task 'a' returned without writing its "
                                                 r"declared outputs \(BlockRef\(block='a'"):
            sched.run()
        assert trace.total_recoveries == 0

    @pytest.mark.parametrize("runtime", [InlineRuntime, lambda: ThreadedRuntime(workers=2)],
                             ids=["inline", "threaded"])
    @pytest.mark.parametrize("scheduler", [FTScheduler, NabbitScheduler], ids=["ft", "nabbit"])
    def test_a_grid_that_writes_nothing_fails_at_its_first_task(self, runtime, scheduler):
        # Without the check, FT on this grid spun through a million
        # recoveries (about 40 s) before any bound tripped.
        spec = grid_graph(48, 48, compute=lambda key, ctx: None)
        trace = ExecutionTrace()
        sched = scheduler(spec, runtime(), store=BlockStore(), trace=trace)
        with pytest.raises(SchedulerError, match=r"task \(0, 0\) returned without writing"):
            sched.run()
        assert trace.total_recoveries == 0


class TestFaultsAtScaleOfWorkers:
    @pytest.mark.parametrize("workers", [1, 2, 8, 16, 44])
    def test_worker_sweep_with_faults(self, workers):
        spec = grid_graph(5, 5)
        expected = run_scheduler(spec).store.peek(BlockRef((4, 4), 0))
        plan = FaultPlan.single((2, 2), "after_compute")
        res, _, _ = run_with_plan(spec, plan, workers=workers, seed=workers)
        assert res.store.peek(BlockRef((4, 4), 0)) == expected


class TestTraceConsistency:
    def test_recoveries_match_map_replacements(self):
        spec = grid_graph(5, 5)
        plan = FaultPlan(
            events=[
                FaultEvent((1, 1), FaultPhase.AFTER_COMPUTE),
                FaultEvent((3, 2), FaultPhase.AFTER_COMPUTE),
            ],
            implied_reexecutions=2,
        )
        res, _, sched = run_with_plan(spec, plan)
        assert sched.map.replacements == res.trace.total_recoveries

    def test_faults_observed_at_least_injected_when_observable(self):
        spec = chain_graph(6)
        plan = FaultPlan.single(2, "after_compute")
        res, _, _ = run_with_plan(spec, plan)
        assert res.trace.faults_observed >= 1
        assert res.trace.faults_injected == 1
