"""Compiled plans and the per-record incarnation gates change no
observable behaviour: a warm spec, a cold spec and the parent commit's
schedulers (gates always armed, as they are again) produce the same
events, counters and virtual time.  The dead-frame gate is a record's
``replaced`` slot, set by ``TaskMap.replace`` on the incarnation it
retires and by nothing else."""

import pytest

from repro.apps import AppConfig, make_app
from repro.core import FTScheduler, NabbitScheduler
from repro.faults import FaultInjector, plan_faults
from repro.faults.model import FaultPlan
from repro.graph.builders import grid_graph
from repro.memory.blockstore import BlockStore
from repro.obs.events import EventLog
from repro.runtime import InlineRuntime, SimulatedRuntime, ThreadedRuntime
from repro.runtime.tracing import ExecutionTrace

RUNTIMES = {
    "inline": InlineRuntime,
    "sim4": lambda: SimulatedRuntime(workers=4, seed=3),
}


def _app(name="lu", n=96, block=16):
    return make_app(name, config=AppConfig(n=n, block=block, seed=7))


def _plan(app, phase="after_notify"):
    return plan_faults(app, phase=phase, task_type="v=rand", fraction=0.20, seed=7)


def _run(app, runtime, faults=None, scheduler=FTScheduler):
    """One verified run: (scheduler, events, summary, makespan)."""
    store = app.make_store(scheduler is FTScheduler)
    trace = ExecutionTrace()
    hooks = FaultInjector(faults, app, store, trace) if faults is not None else None
    log = EventLog()
    sched = scheduler(app, runtime, store=store, hooks=hooks, trace=trace, event_log=log)
    result = sched.run()
    app.verify(store)
    events = [(e.kind, e.key, e.life, e.t, e.data) for e in log.events]
    return sched, events, trace.summary(), result.run.makespan


class TestWarmColdParity:
    """Run 1 builds the plans, run 2 reuses them, run 3 is a fresh equal
    spec: nothing a caller can see tells them apart."""

    @pytest.mark.parametrize("runtime", sorted(RUNTIMES))
    @pytest.mark.parametrize(
        "scheduler,faulty",
        [(FTScheduler, False), (FTScheduler, True), (NabbitScheduler, False)],
        ids=["ft-fault-free", "ft-after-notify-20pct", "nabbit"],
    )
    def test_three_runs_agree(self, runtime, scheduler, faulty):
        app = _app()
        faults = _plan(app) if faulty else None
        assert "_plans" not in vars(app)
        first = _run(app, RUNTIMES[runtime](), faults, scheduler)[1:]
        assert len(app.plans) == first[1]["tasks_computed"]
        warm = _run(app, RUNTIMES[runtime](), faults, scheduler)[1:]
        fresh = _app()
        cold = _run(fresh, RUNTIMES[runtime](), _plan(fresh) if faulty else None, scheduler)[1:]
        assert first == warm == cold


def _replaced(sched):
    """(retired records, live records marked ``replaced``), by identity."""
    live = [A for A in sched.map.records() if A.replaced]
    return {id(A) for A in sched.map.retired}, live


class TestIncarnationGates:
    """``replaced`` marks exactly the incarnations a recovery retired:
    never a live record, never one a reset re-armed."""

    @pytest.mark.parametrize(
        "make_runtime",
        [InlineRuntime, RUNTIMES["sim4"], lambda: ThreadedRuntime(workers=4, seed=1)],
        ids=["inline", "sim4", "threaded4"],
    )
    def test_fault_free_run_retires_nothing(self, make_runtime):
        sched, _, summary, _ = _run(_app("cholesky"), make_runtime())
        assert sched.map.retired == [] and _replaced(sched)[1] == []
        assert summary["stale_frames"] == summary["stale_notifications"] == 0
        assert summary["recoveries"] == summary["resets"] == 0

    @pytest.mark.parametrize("phase", ["before_compute", "after_compute", "after_notify"])
    def test_a_recovery_marks_exactly_the_retired(self, phase):
        spec = grid_graph(4, 4)
        trace = ExecutionTrace()
        store = BlockStore()
        hooks = FaultInjector(FaultPlan.single((1, 1), phase), spec, store, trace)
        sched = FTScheduler(spec, InlineRuntime(), store=store, hooks=hooks, trace=trace)
        sched.run()
        assert trace.total_recoveries == 1
        [old] = sched.map.retired
        assert old.key == (1, 1) and old.replaced and old.life == 1
        assert _replaced(sched)[1] == []

    def test_a_reset_marks_nothing(self, monkeypatch):
        reset, rearm = [], FTScheduler._reset_node

        def watched(sched, A, key, life):
            reset.append(A)
            rearm(sched, A, key, life)

        monkeypatch.setattr(FTScheduler, "_reset_node", watched)
        app = _app()
        sched, _, summary, _ = _run(app, InlineRuntime(), _plan(app))
        live = {id(A) for A in sched.map.records()}
        kept = [A for A in reset if id(A) in live]
        assert summary["resets"] > 0 and kept
        assert not any(A.replaced for A in kept)
        retired, marked = _replaced(sched)
        assert marked == [] and len(retired) == summary["recoveries"]
        assert all(A.replaced for A in sched.map.retired)


#: ExecutionTrace.summary() counters and makespans of the parent commit
#: (189cde7: no plans, gates always on) for seed-7 20% v=rand plans.
PARENT = {
    ("lu", "after_notify", "inline"): (0, 0, 18, 7, 18, 25, 773152.0666666703),
    ("lu", "after_notify", "sim4"): (0, 7, 18, 11, 25, 29, 281727.0166666667),
    ("lu", "before_compute", "inline"): (40, 0, 18, 0, 18, 0, 590128.5999999973),
    ("lu", "before_compute", "sim4"): (40, 4, 18, 0, 23, 0, 170954.21666666656),
    ("cholesky", "after_notify", "sim4"): (0, 1, 11, 7, 12, 18, 159980.6),
}
COUNTERS = (
    "stale_frames", "stale_notifications", "recoveries", "resets", "notify_reinits",
    "reexecutions",
)


@pytest.mark.parametrize("name,phase,runtime", sorted(PARENT))
def test_counters_and_virtual_time_equal_the_parents(name, phase, runtime):
    app = _app(name)
    _, _, summary, makespan = _run(app, RUNTIMES[runtime](), _plan(app, phase))
    assert (*(summary[c] for c in COUNTERS), makespan) == PARENT[(name, phase, runtime)]
