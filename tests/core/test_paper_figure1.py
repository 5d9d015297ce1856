"""The paper's Figure 1 running example, executed literally.

Section II walks through a five-task graph (A source, E sink) where
"task C reuses the space allocated by task A for its output (as the only
other use of A's output is by B, which needs to finish before C's
execution)".  Task B fails; C and D may have observed B's computation;
B's recovery needs A's output, which C has meanwhile overwritten -- so
"A will have to be recovered as well.  Finally ... it is important that
A also recovers only once."

This test builds exactly that graph and buffer-sharing relationship,
injects B's failure, and asserts the narrative's outcomes.
"""

import pytest

from repro.core import FTScheduler, run_scheduler
from repro.exceptions import SchedulerError
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultPlan
from repro.graph.taskspec import BlockRef, Key, TaskSpecBase
from repro.graph.validate import validate_spec
from repro.memory.allocator import Reuse
from repro.memory.blockstore import BlockStore
from repro.obs.events import EventKind, EventLog
from repro.runtime import InlineRuntime
from repro.runtime.tracing import ExecutionTrace

# E's predecessor order (D, C) makes the serial depth-first schedule
# explore and run C *before* D ever observes B -- the Section II
# interleaving where C has already overwritten A's output by the time
# B's failure is detected.
PREDS = {"A": (), "B": ("A",), "C": ("A", "B"), "D": ("B",), "E": ("D", "C")}
SUCCS = {"A": ("B", "C"), "B": ("C", "D"), "C": ("E",), "D": ("E",), "E": ()}

# A and C share one buffer ("buf"): A writes version 0, C version 1.
OUTPUTS = {
    "A": BlockRef("buf", 0),
    "B": BlockRef("b_out", 0),
    "C": BlockRef("buf", 1),
    "D": BlockRef("d_out", 0),
    "E": BlockRef("e_out", 0),
}


class Figure1Spec(TaskSpecBase):
    def sink_key(self) -> Key:
        return "E"

    def predecessors(self, key):
        return PREDS[key]

    def successors(self, key):
        return SUCCS[key]

    def outputs(self, key):
        return (OUTPUTS[key],)

    def inputs(self, key):
        return tuple(OUTPUTS[p] for p in PREDS[key])

    def producer(self, ref):
        for key, out in OUTPUTS.items():
            if out == ref:
                return key
        raise KeyError(ref)

    def compute(self, key, ctx):
        if key == "C":
            # The paper's interleaving: "even before C is aware of B's
            # failure, it could be overwriting A's output".  C streams
            # into the shared buffer (consuming A's data in place) and
            # only then touches B's output -- where the corruption is
            # detected.
            a = ctx.read(OUTPUTS["A"])
            ctx.write(OUTPUTS["C"], ("C", "partial", a))  # v1 evicts v0
            b = ctx.read(OUTPUTS["B"])
            ctx.write(OUTPUTS["C"], ("C", (a, b)))
            return
        parts = tuple(ctx.read(r) for r in self.inputs(key))
        ctx.write(OUTPUTS[key], (key, parts))


class TestFigure1Narrative:
    def setup_method(self):
        self.spec = Figure1Spec()
        validate_spec(self.spec)
        ref_store = BlockStore(Reuse())
        run_scheduler(self.spec, store=ref_store)
        self.expected = ref_store.peek(OUTPUTS["E"])

    def run_b_failure(self, phase):
        store = BlockStore(Reuse())
        trace = ExecutionTrace()
        injector = FaultInjector(FaultPlan.single("B", phase), self.spec, store, trace)
        sched = FTScheduler(
            self.spec, InlineRuntime(), store=store, hooks=injector,
            trace=trace, event_log=EventLog(),
        )
        sched.run()
        return sched, store, trace

    def test_fault_free_reuse_is_safe(self):
        # C's reuse of A's buffer is legal: A's only other consumer (B)
        # precedes C.  Fault-free runs never trip on it.
        store = BlockStore(Reuse())
        run_scheduler(self.spec, store=store)
        assert store.stats.overwritten_reads == 0

    def test_b_fails_after_notify_a_recovered_exactly_once(self):
        """The full Section II scenario: C observed B and overwrote A's
        output before B's failure is detected; recovering B forces A's
        recovery -- once, not once per observer."""
        sched, store, trace = self.run_b_failure("after_notify")
        # B recovered once (Guarantee 1)...
        assert trace.recoveries["B"] == 1
        # ... and A was recovered exactly once to regenerate the
        # overwritten input ("it is important that A also recovers only
        # once").
        assert trace.recoveries["A"] == 1
        # C and D were eventually (re-)notified and the DAG completed
        # with the fault-free result (Theorem 1).
        assert store.peek(OUTPUTS["E"]) == self.expected

    def test_b_fails_after_compute_no_cascade(self):
        """Detected before C could run: B alone re-executes; A untouched."""
        sched, store, trace = self.run_b_failure("after_compute")
        assert trace.recoveries["B"] == 1
        assert trace.recoveries.get("A", 0) == 0
        assert store.peek(OUTPUTS["E"]) == self.expected

    def test_event_narrative_orders_a_after_b(self):
        sched, _, _ = self.run_b_failure("after_notify")
        recovered = [e.key for e in sched.log.by_kind(EventKind.RECOVERY)]
        assert "B" in recovered
        assert "A" in recovered
        assert recovered.index("B") < recovered.index("A")
