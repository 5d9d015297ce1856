"""Tests for the FT scheduler's recovery-event log."""

from repro.core import FTScheduler
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultPlan
from repro.graph.builders import chain_graph, diamond_graph
from repro.memory.blockstore import BlockStore
from repro.obs.events import EventKind, EventLog
from repro.runtime import InlineRuntime, SimulatedRuntime
from repro.runtime.tracing import ExecutionTrace


#: The recovery path's vocabulary: what a fault-free run never emits.
RECOVERY_PATH = (
    EventKind.COMPUTE_FAULT,
    EventKind.RECOVERY,
    EventKind.RECOVERY_SKIPPED,
    EventKind.RESET,
    EventKind.REINIT,
    EventKind.STALE_FRAME,
)


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
        assert sched.log.by_kind(*RECOVERY_PATH) == []

    def test_off_by_default(self):
        spec = chain_graph(5)
        store = BlockStore()
        trace = ExecutionTrace()
        injector = FaultInjector(FaultPlan.single(2, "after_compute"), spec, store, trace)
        sched = FTScheduler(spec, InlineRuntime(), store=store, hooks=injector, trace=trace)
        sched.run()
        assert sched.log is None
        assert not sched._obs

    def test_after_notify_narrative(self):
        # The canonical sequence: consumer's compute faults -> consumer
        # resets -> producer recovered -> consumer re-enqueued.
        sched = run_recorded(chain_graph(5), FaultPlan.single(2, "after_notify"))
        kinds = [e.kind for e in sched.log.by_kind(*RECOVERY_PATH)]
        assert kinds.index(EventKind.COMPUTE_FAULT) < kinds.index(EventKind.RESET)
        assert EventKind.RECOVERY in kinds
        reinits = [(e.key, e.data["successor"]) for e in sched.log.by_kind(EventKind.REINIT)]
        assert (2, 3) in reinits

    def test_compute_fault_names_source(self):
        sched = run_recorded(chain_graph(5), FaultPlan.single(2, "after_notify"))
        fault = sched.log.by_kind(EventKind.COMPUTE_FAULT)[0]
        assert fault.key == 3                # the consumer observed it
        assert fault.data["source"] == 2     # ... and attributed it to the producer

    def test_duplicate_suppression_logged(self):
        spec = diamond_graph(width=8)
        sched = run_recorded(
            spec, FaultPlan.single("src", "after_compute"),
            runtime=SimulatedRuntime(workers=8, seed=1),
        )
        assert len(sched.log.by_kind(EventKind.RECOVERY)) == 1

    def test_counts_match_trace(self):
        sched = run_recorded(chain_graph(6), FaultPlan.single(3, "before_compute"))
        log = sched.log
        assert len(log.by_kind(EventKind.RECOVERY)) == sched.trace.total_recoveries
        assert len(log.by_kind(EventKind.RESET)) == sched.trace.resets
        assert len(log.by_kind(EventKind.STALE_FRAME)) == sched.trace.stale_frames
