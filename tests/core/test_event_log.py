"""Tests for the FT scheduler's recovery-event log."""

from repro.core import FTScheduler
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultPlan
from repro.graph.builders import chain_graph, diamond_graph
from repro.memory.blockstore import BlockStore
from repro.obs.events import EventLog
from repro.runtime import InlineRuntime, SimulatedRuntime
from repro.runtime.tracing import ExecutionTrace


def run_recorded(spec, plan, runtime=None):
    store = BlockStore()
    trace = ExecutionTrace()
    injector = FaultInjector(plan, spec, store, trace) if plan else None
    sched = FTScheduler(
        spec, runtime or InlineRuntime(), store=store, hooks=injector,
        trace=trace, event_log=EventLog(),
    )
    sched.run()
    return sched


class TestEventLog:
    def test_fault_free_run_has_no_events(self):
        sched = run_recorded(chain_graph(5), None)
        assert sched.events == []

    def test_off_by_default(self):
        spec = chain_graph(5)
        store = BlockStore()
        trace = ExecutionTrace()
        injector = FaultInjector(FaultPlan.single(2, "after_compute"), spec, store, trace)
        sched = FTScheduler(spec, InlineRuntime(), store=store, hooks=injector, trace=trace)
        sched.run()
        assert sched.events == []

    def test_after_notify_narrative(self):
        # The canonical sequence: consumer's compute faults -> consumer
        # resets -> producer recovered -> consumer re-enqueued.
        sched = run_recorded(chain_graph(5), FaultPlan.single(2, "after_notify"))
        kinds = [e[0] for e in sched.events]
        assert kinds.index("compute_fault") < kinds.index("reset")
        assert "recovery" in kinds
        assert ("reinit", 2, 3) in sched.events

    def test_compute_fault_names_source(self):
        sched = run_recorded(chain_graph(5), FaultPlan.single(2, "after_notify"))
        fault = next(e for e in sched.events if e[0] == "compute_fault")
        # (kind, key, life, exc_type, source)
        assert fault[1] == 3          # the consumer observed it
        assert fault[4] == 2          # ... and attributed it to the producer

    def test_duplicate_suppression_logged(self):
        spec = diamond_graph(width=8)
        sched = run_recorded(
            spec, FaultPlan.single("src", "after_compute"),
            runtime=SimulatedRuntime(workers=8, seed=1),
        )
        kinds = [e[0] for e in sched.events]
        assert kinds.count("recovery") == 1

    def test_counts_match_trace(self):
        sched = run_recorded(chain_graph(6), FaultPlan.single(3, "before_compute"))
        kinds = [e[0] for e in sched.events]
        assert kinds.count("recovery") == sched.trace.total_recoveries
        assert kinds.count("reset") == sched.trace.resets
        assert kinds.count("stale_frame") == sched.trace.stale_frames
