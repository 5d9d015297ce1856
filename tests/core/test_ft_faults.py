"""Fault-injection tests for the FT scheduler, organized by the paper's
six recovery guarantees (Section IV)."""

import pytest

from repro.core import FTScheduler, TaskStatus
from repro.core.ft import MAX_LIVES
from repro.exceptions import SchedulerError
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultEvent, FaultPhase, FaultPlan
from repro.faults.planner import plan_faults, plan_recursive_faults
from repro.graph.builders import diamond_graph, grid_graph
from repro.graph.explicit import ExplicitTaskGraph
from repro.graph.taskspec import BlockRef
from repro.memory.blockstore import BlockStore
from repro.runtime import InlineRuntime, SimulatedRuntime
from repro.runtime.tracing import ExecutionTrace


def run_with_plan(spec, plan, workers=1, seed=0, store=None):
    store = store if store is not None else BlockStore()
    trace = ExecutionTrace()
    injector = FaultInjector(plan, spec, store, trace)
    runtime = SimulatedRuntime(workers=workers, seed=seed)
    sched = FTScheduler(spec, runtime, store=store, hooks=injector, trace=trace)
    result = sched.run()
    return result, injector, sched


def reference_sink(spec):
    from repro.core import run_scheduler

    return run_scheduler(spec).store.peek(BlockRef(spec.sink_key(), 0))


class TestGuarantee1RecoverOnce:
    """Each failure is recovered at most once."""

    @pytest.mark.parametrize("phase", ["before_compute", "after_compute"])
    def test_single_recovery_per_victim(self, phase):
        spec = grid_graph(5, 5)
        victim = (2, 2)
        plan = FaultPlan.single(victim, phase)
        res, injector, _ = run_with_plan(spec, plan)
        assert res.trace.recoveries[victim] == 1
        assert injector.all_fired()

    def test_many_observers_one_recovery(self):
        # The failed task has 8 successors; several observe the fault.
        spec = diamond_graph(width=8)
        plan = FaultPlan.single("src", "after_compute")
        res, _, sched = run_with_plan(spec, plan)
        assert res.trace.recoveries["src"] == 1
        assert sched.recovery_table.recovering_life("src") == 1

    def test_parallel_observers_one_recovery(self):
        spec = diamond_graph(width=16)
        plan = FaultPlan.single("src", "after_compute")
        for seed in range(5):
            res, _, _ = run_with_plan(spec, plan, workers=8, seed=seed)
            assert res.trace.recoveries["src"] == 1


class TestGuarantee2StatusRederived:
    """A recovered task restarts as a fresh VISITED incarnation."""

    def test_new_incarnation_completes(self):
        spec = grid_graph(4, 4)
        plan = FaultPlan.single((1, 1), "after_compute")
        _, _, sched = run_with_plan(spec, plan)
        rec, life = sched.map.get((1, 1))
        assert life == 2
        assert rec.status is TaskStatus.COMPLETED
        assert not rec.corrupted
        assert rec.recovery

    def test_unrelated_tasks_keep_first_life(self):
        spec = grid_graph(4, 4)
        plan = FaultPlan.single((1, 1), "after_compute")
        _, _, sched = run_with_plan(spec, plan)
        rec, life = sched.map.get((3, 0))
        assert life == 1


class TestGuarantee3JoinDecrementedOncePerPred:
    def test_no_task_computes_with_missing_inputs(self):
        # If a join counter were double-decremented, a consumer would
        # compute before a predecessor and read a missing block, which
        # the strict context turns into an error or a wrong result.
        spec = grid_graph(5, 5)
        expected = reference_sink(spec)
        plan = FaultPlan.single((0, 0), "after_compute")
        res, _, _ = run_with_plan(spec, plan)
        assert res.store.peek(BlockRef(spec.sink_key(), 0)) == expected

    def test_duplicate_notifications_dropped_as_stale(self):
        # After recovery of src, consumers that were re-enqueued can be
        # notified again; the bit vector must absorb the duplicates.
        spec = diamond_graph(width=8)
        plan = FaultPlan.single("src", "after_compute")
        res, _, _ = run_with_plan(spec, plan)
        assert res.trace.reexecutions <= 1 + 8  # never more than graph region


class TestGuarantee4WaitingTasksNotified:
    @pytest.mark.parametrize("phase", ["before_compute", "after_compute", "after_notify"])
    def test_execution_never_hangs(self, phase):
        spec = grid_graph(6, 6)
        index_pool = [(i, j) for i in range(6) for j in range(6)][1:-1]
        for victim in index_pool[::7]:
            plan = FaultPlan.single(victim, phase)
            res, _, _ = run_with_plan(spec, plan)  # SchedulerError would fail
            assert res.trace.tasks_computed == len(spec)

    def test_notify_array_reconstruction_counted(self):
        # before_compute faults strike while successors wait, so recovery
        # must rebuild notify arrays for at least the waiting successors.
        spec = grid_graph(5, 5)
        plan = FaultPlan.single((2, 2), "after_compute")
        res, _, _ = run_with_plan(spec, plan)
        assert res.trace.notify_reinits >= 1


class TestGuarantee5ComputeTimeDataFaults:
    def test_consumer_detects_corrupt_input_and_recovers_producer(self):
        # On a chain the consumer registers with the producer *before* it
        # computes, so an after-notify fault is deterministically detected
        # inside the consumer's COMPUTE (reading the corrupt block), which
        # must reset the consumer and recover the producer.
        from repro.graph.builders import chain_graph

        spec = chain_graph(5)
        victim = 2
        plan = FaultPlan.single(victim, "after_notify")
        expected = reference_sink(spec)
        res, _, _ = run_with_plan(spec, plan)
        assert res.trace.recoveries[victim] == 1
        assert res.trace.resets >= 1
        assert res.store.peek(BlockRef(spec.sink_key(), 0)) == expected

    def test_reset_node_rearms_and_replays(self):
        from repro.graph.builders import chain_graph

        spec = chain_graph(5)
        plan = FaultPlan.single(1, "after_notify")
        res, _, _ = run_with_plan(spec, plan)
        # The consumer's first COMPUTE attempt fails on the corrupt input
        # and re-runs after the reset.
        assert res.trace.compute_failures[2] == 1
        assert res.trace.computes[2] == 2


class TestGuarantee6RecursiveRecovery:
    @pytest.mark.parametrize("depth", [2, 3, 5])
    def test_fault_during_every_recovery(self, depth):
        spec = grid_graph(4, 4)
        victim = (2, 2)
        plan = plan_recursive_faults(spec, victim, phase="after_compute", depth=depth)
        expected = reference_sink(spec)
        res, injector, sched = run_with_plan(spec, plan)
        assert injector.all_fired()
        assert res.trace.recoveries[victim] == depth
        _, life = sched.map.get(victim)
        assert life == depth + 1
        assert res.store.peek(BlockRef(spec.sink_key(), 0)) == expected

    def test_before_compute_recursive(self):
        spec = grid_graph(4, 4)
        plan = plan_recursive_faults(spec, (1, 2), phase="before_compute", depth=3)
        res, injector, _ = run_with_plan(spec, plan)
        assert injector.all_fired()
        assert res.trace.reexecutions == 0  # never any lost compute


class TestUnobservedFaults:
    def test_after_notify_fault_nobody_reads_is_not_recovered(self):
        # Compute bodies that ignore their inputs: the corrupted data is
        # never read, so (per the paper) the failed task is not recovered.
        spec = ExplicitTaskGraph(
            [("a", "b"), ("b", "c")],
            compute=lambda k, ctx: ctx.write(BlockRef(k, 0), k),
        )
        plan = FaultPlan.single("a", "after_notify")
        res, injector, _ = run_with_plan(spec, plan)
        assert injector.all_fired()
        assert res.trace.total_recoveries == 0
        assert res.trace.reexecutions == 0


class TestResultIntegrity:
    """Theorem 1: same result with and without faults."""

    @pytest.mark.parametrize("phase", ["before_compute", "after_compute", "after_notify"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_sink_value_unchanged(self, phase, workers):
        spec = grid_graph(6, 6)
        expected = reference_sink(spec)
        plan = plan_faults(spec, phase=phase, task_type="v=rand", count=6, seed=13)
        res, _, _ = run_with_plan(spec, plan, workers=workers, seed=41)
        assert res.store.peek(BlockRef(spec.sink_key(), 0)) == expected

    def test_massive_fault_load(self):
        # A third of all tasks fail; execution still completes correctly.
        spec = grid_graph(6, 6)
        expected = reference_sink(spec)
        plan = plan_faults(spec, phase="after_compute", task_type="v=rand", count=12, seed=1)
        res, _, _ = run_with_plan(spec, plan)
        assert res.store.peek(BlockRef(spec.sink_key(), 0)) == expected
        assert res.trace.reexecutions >= 12


class TestSinkFaults:
    """Lemma 3: the sink itself can fail and still complete."""

    @pytest.mark.parametrize("phase", ["before_compute", "after_compute"])
    def test_sink_failure_recovered(self, phase):
        spec = grid_graph(4, 4)
        expected = reference_sink(spec)
        plan = FaultPlan.single(spec.sink_key(), phase)
        res, injector, sched = run_with_plan(spec, plan)
        assert injector.all_fired()
        rec, life = sched.map.get(spec.sink_key())
        assert life == 2
        assert rec.status is TaskStatus.COMPLETED
        assert res.store.peek(BlockRef(spec.sink_key(), 0)) == expected


class TestLifeCeiling:
    """A task has at most MAX_LIVES incarnations: Section V's N(A), bounded."""

    def recursive(self, depth):
        """A 4x4 grid whose task (2, 2) fails at lives 1..depth."""
        spec = grid_graph(4, 4)
        store = BlockStore()
        trace = ExecutionTrace()
        plan = plan_recursive_faults(spec, (2, 2), depth=depth)
        injector = FaultInjector(plan, spec, store, trace)
        sched = FTScheduler(spec, InlineRuntime(), store=store, hooks=injector, trace=trace)
        return spec, store, sched

    def test_one_life_past_the_ceiling_fails_the_run(self):
        _, _, sched = self.recursive(MAX_LIVES)
        with pytest.raises(SchedulerError,
                           match=rf"task \(2, 2\) failed on each of its {MAX_LIVES} lives"):
            sched.run()
        assert sched.map.get((2, 2))[1] == MAX_LIVES + 1

    def test_one_life_short_of_the_ceiling_recovers(self):
        spec, store, sched = self.recursive(MAX_LIVES - 1)
        sched.run()
        assert sched.map.get((2, 2))[1] == MAX_LIVES
        assert sched.trace.recoveries[(2, 2)] == MAX_LIVES - 1
        assert store.peek(BlockRef(spec.sink_key(), 0)) == reference_sink(spec)
