"""The one-source-of-truth invariant: ExecutionTrace counters must be
derivable from the structured event log, exactly, on every runtime."""

import os

import pytest

from repro.apps import make_app
from repro.core import FTScheduler, NabbitScheduler
from repro.faults import FaultInjector, plan_faults
from repro.faults.model import FaultPlan
from repro.graph.builders import chain_graph, diamond_graph, grid_graph
from repro.memory.blockstore import BlockStore
from repro.obs import EventKind, EventLog, assert_consistent, verify_consistency
from repro.runtime import InlineRuntime, SimulatedRuntime, ThreadedRuntime
from repro.runtime.tracing import ExecutionTrace


def run_ft(spec, runtime, plan=None, store=None):
    store = store if store is not None else BlockStore()
    trace = ExecutionTrace()
    log = EventLog()
    hooks = FaultInjector(plan, spec, store, trace) if plan else None
    sched = FTScheduler(spec, runtime, store=store, hooks=hooks, trace=trace, event_log=log)
    sched.run()
    return sched, trace, log


class TestReplayMatchesTrace:
    def test_fault_free_inline(self):
        _, trace, log = run_ft(grid_graph(5, 5), InlineRuntime())
        assert ExecutionTrace().fold(log.events).summary() == trace.summary()

    def test_faulty_inline(self):
        _, trace, log = run_ft(chain_graph(8), InlineRuntime(),
                               plan=FaultPlan.single(3, "after_compute"))
        assert trace.total_recoveries >= 1
        assert ExecutionTrace().fold(log.events).summary() == trace.summary()

    @pytest.mark.parametrize("phase", ["before_compute", "after_compute", "after_notify"])
    def test_faulty_simulated_all_phases(self, phase):
        app = make_app("cholesky", scale="tiny")
        store = app.make_store(True)
        plan = plan_faults(app, phase=phase, task_type="v=rand", count=2, seed=3)
        _, trace, log = run_ft(app, SimulatedRuntime(workers=4, seed=2), plan=plan, store=store)
        assert trace.faults_injected >= 1
        assert verify_consistency(log.events, trace) == {}

    def test_faulty_threaded(self):
        app = make_app("lu", scale="tiny")
        store = app.make_store(True)
        plan = plan_faults(app, phase="after_compute", task_type="v=rand", count=2, seed=5)
        _, trace, log = run_ft(app, ThreadedRuntime(workers=4, seed=1), plan=plan, store=store)
        assert trace.total_recoveries >= 1
        assert_consistent(log, trace)

    def test_duplicate_recovery_suppression_replayed(self):
        _, trace, log = run_ft(diamond_graph(width=8), SimulatedRuntime(workers=8, seed=1),
                               plan=FaultPlan.single("src", "after_compute"))
        assert ExecutionTrace().fold(log.events).summary() == trace.summary()

    def test_per_key_executions_checked(self):
        _, trace, log = run_ft(chain_graph(6), InlineRuntime(),
                               plan=FaultPlan.single(2, "after_compute"))
        derived = ExecutionTrace().fold(log.events).summary()
        assert derived["max_executions"] == trace.max_executions
        assert derived["reexecutions"] == trace.reexecutions

    def test_nabbit_lifecycle_counters_replay(self):
        spec = grid_graph(4, 4)
        trace = ExecutionTrace()
        log = EventLog()
        NabbitScheduler(spec, InlineRuntime(), trace=trace, event_log=log).run()
        derived = ExecutionTrace().fold(log.events).summary()
        assert derived["total_computes"] == trace.total_computes
        assert derived["notifications"] == trace.notifications


class TestConsistencyDiagnostics:
    def test_verify_reports_mismatch(self):
        _, trace, log = run_ft(chain_graph(4), InlineRuntime())
        trace.note(EventKind.RESET)  # poison the live trace
        diff = verify_consistency(log.events, trace)
        assert "resets" in diff
        assert diff["resets"] == (0, 1)

    def test_assert_consistent_raises_with_detail(self):
        _, trace, log = run_ft(chain_graph(4), InlineRuntime())
        trace.note(EventKind.STALE_FRAME)
        with pytest.raises(AssertionError, match="stale_frames"):
            assert_consistent(log, trace)

    def test_poisoned_compute_failures_are_reported(self):
        """Regression: the per-key fault counts were never compared."""
        _, trace, log = run_ft(chain_graph(8), InlineRuntime(),
                               plan=FaultPlan.single(2, "after_compute"))
        assert verify_consistency(log.events, trace) == {}
        failures = trace.compute_failures[2]
        trace.compute_failures[2] += 5
        assert verify_consistency(log.events, trace) == {
            "compute_failures[2]": (failures, failures + 5)
        }

    def test_a_compute_moved_between_keys_names_the_key(self):
        """Regression: equal totals hid a per-key mismatch ("executions:
        events=7 trace=7"); the first differing key is named instead."""
        _, trace, log = run_ft(chain_graph(7), InlineRuntime())
        trace.computes[3] -= 1
        trace.computes[4] += 1
        diff = verify_consistency(log.events, trace)
        assert diff == {"max_executions": (1, 2), "computes[3]": (1, 0)}
        with pytest.raises(AssertionError, match=r"computes\[3\]: events=1 trace=0"):
            assert_consistent(log, trace)

    def test_assert_consistent_refuses_lossy_ring_buffer(self):
        store = BlockStore()
        trace = ExecutionTrace()
        log = EventLog(capacity=5)
        FTScheduler(chain_graph(10), InlineRuntime(), store=store,
                    trace=trace, event_log=log).run()
        assert log.dropped > 0
        with pytest.raises(AssertionError, match="ring buffer"):
            assert_consistent(log, trace)


class TestThreadedStress:
    def test_concurrent_scheduler_emission_is_complete_and_ordered(self):
        """The tentpole stress test: a faulty run on the threaded runtime
        must produce an event log with no lost/duplicated events
        (counters replay exactly) and monotonic per-worker ordering."""
        app = make_app("cholesky", scale="tiny")
        plan = plan_faults(app, phase="after_compute", task_type="v=rand", count=3, seed=9)
        # On a single-CPU host the OS may let one worker drain the whole
        # graph before the others wake; the invariants below must hold on
        # every run, but the work-distribution check gets a few attempts.
        for attempt in range(3):
            store = app.make_store(True)
            trace = ExecutionTrace()
            log = EventLog()
            runtime = ThreadedRuntime(workers=8, seed=7, event_log=log)
            FTScheduler(app, runtime, store=store,
                        hooks=FaultInjector(plan, app, store, trace),
                        trace=trace, event_log=log).run()
            app.verify(store)
            events = log.events
            # Completeness: gap-free sequence, counters replay exactly.
            assert [e.seq for e in events] == list(range(len(events)))
            assert verify_consistency(events, trace) == {}
            # Per-worker ordering: each worker's timestamps are
            # nondecreasing in emission order (one wall clock,
            # serialized appends).
            per_worker: dict[int, list[float]] = {}
            for e in events:
                per_worker.setdefault(e.worker, []).append(e.t)
            for w, times in per_worker.items():
                assert times == sorted(times), f"worker {w} emitted out of order"
            if len(per_worker) >= 2:  # work actually distributed
                break
        else:
            if (os.cpu_count() or 1) == 1:
                # One hardware thread: a worker can legitimately drain
                # the whole graph before any sibling gets a GIL slice.
                pytest.skip("work never distributed on a single-CPU host")
            raise AssertionError("work never distributed across workers")
