"""The counters did not move when counting moved to the task record.

An incarnation's NOTIFYs and its compute are counted once, when it is
handed to the sink (completion, a compute or publish fault, the end of
the run), not as they happen.  These are the ``ExecutionTrace`` readings
of the commit before that change, at fixed seeds: the non-zero summary
counters, and a digest of the per-key maps N(A) is stated in (the keys
computed more than once, and every key's recoveries).  A traced run
must count the same and fold back out of its log exactly.
"""

import hashlib

import pytest

from repro.apps import AppConfig, make_app
from repro.core import FTScheduler
from repro.faults import FaultInjector, plan_faults
from repro.obs.events import EventLog
from repro.runtime import InlineRuntime, SimulatedRuntime
from repro.runtime.tracing import ExecutionTrace, assert_consistent

PHASE = {"lcs": "before_compute", "lu": "after_notify", "cholesky": "after_compute"}
RUNTIMES = {"inline": InlineRuntime, "sim4": lambda: SimulatedRuntime(workers=4, seed=5)}
NO_REPEATS = "1391876e63685b7d"  # no key computed twice, none recovered

#: (app, runtime, faults) -> (non-zero summary counters, per-key digest).
PARENT = {
    ("lcs", "inline", 0): ({"tasks_computed": 16, "total_computes": 16, "max_executions": 1,
                            "notifications": 49}, NO_REPEATS),
    ("lcs", "inline", 3): ({"tasks_computed": 16, "total_computes": 16, "max_executions": 1,
                            "recoveries": 3, "notify_reinits": 3, "reinit_scans": 5,
                            "notifications": 49, "stale_frames": 7, "faults_observed": 3,
                            "faults_injected": 3}, "f8b852a17c524851"),
    ("lcs", "sim4", 0): ({"tasks_computed": 16, "total_computes": 16, "max_executions": 1,
                          "notifications": 49}, NO_REPEATS),
    ("lcs", "sim4", 3): ({"tasks_computed": 16, "total_computes": 16, "max_executions": 1,
                          "recoveries": 3, "notify_reinits": 4, "reinit_scans": 5,
                          "notifications": 49, "stale_notifications": 1, "stale_frames": 7,
                          "faults_observed": 3, "faults_injected": 3}, "f8b852a17c524851"),
    ("lu", "inline", 0): ({"tasks_computed": 55, "total_computes": 55, "max_executions": 1,
                           "notifications": 165}, NO_REPEATS),
    ("lu", "inline", 3): ({"tasks_computed": 55, "total_computes": 60, "reexecutions": 5,
                           "max_executions": 2, "recoveries": 3, "resets": 2,
                           "notify_reinits": 3, "reinit_scans": 3, "notifications": 182,
                           "faults_observed": 5, "faults_injected": 2}, "6c58ca776eeb78ab"),
    ("lu", "sim4", 0): ({"tasks_computed": 55, "total_computes": 55, "max_executions": 1,
                         "notifications": 165}, NO_REPEATS),
    ("lu", "sim4", 3): ({"tasks_computed": 55, "total_computes": 60, "reexecutions": 5,
                         "max_executions": 2, "recoveries": 3, "resets": 2,
                         "notify_reinits": 3, "reinit_scans": 3, "notifications": 182,
                         "faults_observed": 5, "faults_injected": 2}, "6c58ca776eeb78ab"),
    ("cholesky", "inline", 0): ({"tasks_computed": 35, "total_computes": 35,
                                 "max_executions": 1, "notifications": 95}, NO_REPEATS),
    ("cholesky", "inline", 3): ({"tasks_computed": 35, "total_computes": 40, "reexecutions": 5,
                                 "max_executions": 2, "recoveries": 5, "notify_reinits": 5,
                                 "reinit_scans": 7, "notifications": 109,
                                 "faults_observed": 5, "faults_injected": 2},
                                "b3c5a8f1be519f0c"),
    ("cholesky", "sim4", 0): ({"tasks_computed": 35, "total_computes": 35,
                               "max_executions": 1, "notifications": 95}, NO_REPEATS),
    ("cholesky", "sim4", 3): ({"tasks_computed": 35, "total_computes": 40, "reexecutions": 5,
                               "max_executions": 2, "recoveries": 5, "notify_reinits": 7,
                               "reinit_scans": 7, "notifications": 109,
                               "faults_observed": 5, "faults_injected": 2},
                              "b3c5a8f1be519f0c"),
}

#: The ``lu_inline_faults`` benchmark workload at seed 0: LU n=224, b=16
#: on InlineRuntime under a 20 % after-notify v=rand plan.
PARENT_LU_INLINE_FAULTS = (
    {"tasks_computed": 1015, "total_computes": 1271, "reexecutions": 256, "max_executions": 3,
     "recoveries": 204, "resets": 52, "notify_reinits": 204, "reinit_scans": 262,
     "notifications": 4611, "faults_observed": 256, "faults_injected": 53},
    "1a32bed850d28c7d",
)


def _reading(app, runtime, plan, log=None):
    store = app.make_store(True)
    trace = ExecutionTrace()
    hooks = FaultInjector(plan, app, store, trace) if plan is not None else None
    FTScheduler(app, RUNTIMES[runtime](), store=store, hooks=hooks, trace=trace,
                event_log=log).run()
    app.verify(store)
    if log is not None:
        assert_consistent(log, trace)
    per_key = repr((sorted((repr(k), n) for k, n in trace.computes.items() if n != 1),
                    sorted((repr(k), n) for k, n in trace.recoveries.items())))
    nonzero = {name: n for name, n in trace.summary().items() if n}
    return nonzero, hashlib.sha256(per_key.encode()).hexdigest()[:16]


@pytest.mark.parametrize("traced", [False, True], ids=["counting", "traced"])
@pytest.mark.parametrize("name,runtime,faults", sorted(PARENT))
def test_counts_equal_the_parents(name, runtime, faults, traced):
    app = make_app(name, scale="tiny")
    plan = plan_faults(app, phase=PHASE[name], count=faults, seed=11) if faults else None
    log = EventLog() if traced else None
    assert _reading(app, runtime, plan, log) == PARENT[name, runtime, faults]


def test_lu_inline_faults_recovers_as_the_parent_did():
    app = make_app("lu", config=AppConfig(n=224, block=16, seed=0))
    plan = plan_faults(app, phase="after_notify", task_type="v=rand", fraction=0.20, seed=0)
    assert _reading(app, "inline", plan) == PARENT_LU_INLINE_FAULTS
