"""Stress the FT scheduler under real thread interleavings.

The GIL serializes Python bytecode but *not* scheduling decisions: lock
acquisition order, steal order, and notification interleavings are
genuinely nondeterministic here, so these tests sweep seeds and repeat to
shake out races in the join-counter / bit-vector / recovery protocol.
"""

import sys

import pytest

from repro.apps import AppConfig, make_app
from repro.core import FTScheduler, run_scheduler
from repro.faults.injector import FaultInjector
from repro.faults.planner import plan_faults
from repro.graph.builders import grid_graph, random_dag
from repro.graph.taskspec import BlockRef
from repro.memory.blockstore import BlockStore
from repro.runtime import ThreadedRuntime
from repro.runtime.tracing import ExecutionTrace


class TestNoFaultThreaded:
    @pytest.mark.parametrize("rep", range(3))
    def test_random_dag_repeated(self, rep):
        spec = random_dag(50, edge_prob=0.2, seed=rep)
        expected = run_scheduler(spec).store.peek(BlockRef(spec.sink_key(), 0))
        res = run_scheduler(spec, runtime=ThreadedRuntime(workers=6, seed=rep))
        assert res.store.peek(BlockRef(spec.sink_key(), 0)) == expected
        assert res.trace.max_executions == 1


class TestFaultsThreaded:
    @pytest.mark.parametrize("rep", range(4))
    def test_grid_with_faults(self, rep):
        spec = grid_graph(6, 6)
        expected = run_scheduler(spec).store.peek(BlockRef(spec.sink_key(), 0))
        plan = plan_faults(spec, phase="after_compute", task_type="v=rand",
                           count=5, seed=rep)
        store = BlockStore()
        trace = ExecutionTrace()
        injector = FaultInjector(plan, spec, store, trace)
        sched = FTScheduler(
            spec, ThreadedRuntime(workers=6, seed=100 + rep),
            store=store, hooks=injector, trace=trace,
        )
        sched.run()
        assert store.peek(BlockRef(spec.sink_key(), 0)) == expected

    @pytest.mark.parametrize("phase", ["before_compute", "after_compute", "after_notify"])
    def test_app_with_faults_threaded(self, phase):
        app = make_app("lu", scale="tiny")
        plan = plan_faults(app, phase=phase, task_type="v=rand", count=3, seed=7)
        store = app.make_store(True)
        trace = ExecutionTrace()
        injector = FaultInjector(plan, app, store, trace)
        sched = FTScheduler(
            app, ThreadedRuntime(workers=4, seed=9), store=store,
            hooks=injector, trace=trace,
        )
        sched.run()
        app.verify(store)

    @pytest.mark.parametrize("rep", range(4))
    def test_incarnation_gates_under_a_short_switch_interval(self, rep):
        """The stale-traversal gate reads the bit vector unlocked and the
        dead-frame gate reads ``replaced``: with a thread switch every few
        bytecodes, a gate that acted on a torn or lost update would
        corrupt the result, hang the graph or mark a live record."""
        app = make_app("lu", config=AppConfig(n=128, block=16, seed=rep))
        plan = plan_faults(app, phase="after_notify", task_type="v=rand", fraction=0.20,
                           seed=rep)
        store = app.make_store(True)
        trace = ExecutionTrace()
        injector = FaultInjector(plan, app, store, trace)
        sched = FTScheduler(app, ThreadedRuntime(workers=6, seed=rep), store=store,
                            hooks=injector, trace=trace)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sched.run()
        finally:
            sys.setswitchinterval(interval)
        app.verify(store)
        assert injector.all_fired() and trace.total_recoveries > 0
        assert len(sched.map.retired) == trace.total_recoveries
        assert all(A.replaced for A in sched.map.retired)
        assert not any(A.replaced for A in sched.map.records())

    def test_concurrent_recovery_dedup(self):
        # High-fanout victim: many threads observe the same failure.
        from repro.graph.builders import diamond_graph

        spec = diamond_graph(width=24)
        from repro.faults.model import FaultPlan

        for rep in range(5):
            plan = FaultPlan.single("src", "after_compute")
            store = BlockStore()
            trace = ExecutionTrace()
            injector = FaultInjector(plan, spec, store, trace)
            sched = FTScheduler(
                spec, ThreadedRuntime(workers=8, seed=rep), store=store,
                hooks=injector, trace=trace,
            )
            sched.run()
            assert trace.recoveries["src"] == 1


class TestAllAppsAllPhasesThreaded:
    """The full grid: every benchmark x every fault phase on real threads,
    each run verified against the numerical reference."""

    @pytest.mark.parametrize("name", ["lcs", "sw", "fw", "cholesky"])
    @pytest.mark.parametrize("phase", ["before_compute", "after_compute", "after_notify"])
    def test_app_phase_grid(self, name, phase):
        app = make_app(name, scale="tiny")
        plan = plan_faults(app, phase=phase, task_type="v=rand", count=2, seed=11)
        store = app.make_store(True)
        trace = ExecutionTrace()
        injector = FaultInjector(plan, app, store, trace)
        FTScheduler(
            app, ThreadedRuntime(workers=5, seed=13), store=store,
            hooks=injector, trace=trace,
        ).run()
        app.verify(store)
