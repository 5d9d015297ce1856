"""Core schedulers: baseline NABBIT and the paper's fault-tolerant variant.

Typical usage::

    from repro.core import FTScheduler
    from repro.runtime import SimulatedRuntime
    from repro.memory import BlockStore, Reuse

    sched = FTScheduler(spec, SimulatedRuntime(workers=8, seed=1),
                        store=BlockStore(Reuse()))
    result = sched.run()
    print(result.makespan, result.trace.reexecutions)

``run_scheduler`` wraps construction + execution for the common cases.
"""

from __future__ import annotations

from repro.core.ft import FTScheduler
from repro.core.hooks import NULL_HOOKS, CompositeHooks, NullHooks, SchedulerHooks
from repro.core.nabbit import NabbitScheduler
from repro.core.records import TaskRecord
from repro.core.recovery_table import RecoveryTable
from repro.core.result import SchedulerResult
from repro.core.status import TaskStatus
from repro.core.taskmap import TaskMap

from repro.graph.taskspec import TaskGraphSpec
from repro.memory.blockstore import BlockStore
from repro.runtime.api import Runtime
from repro.runtime.costmodel import CostModel
from repro.runtime.inline import InlineRuntime


def run_scheduler(
    spec: TaskGraphSpec,
    runtime: Runtime | None = None,
    fault_tolerant: bool = True,
    store: BlockStore | None = None,
    cost_model: CostModel | None = None,
    hooks: SchedulerHooks | None = None,
) -> SchedulerResult:
    """Execute ``spec`` once and return the :class:`SchedulerResult`.

    Defaults to the fault-tolerant scheduler on a serial
    :class:`~repro.runtime.inline.InlineRuntime` with a single-assignment
    block store -- the simplest correct configuration.
    """
    runtime = runtime or InlineRuntime()
    if fault_tolerant:
        sched: FTScheduler | NabbitScheduler = FTScheduler(
            spec, runtime, store=store, cost_model=cost_model, hooks=hooks
        )
    else:
        sched = NabbitScheduler(spec, runtime, store=store, cost_model=cost_model, hooks=hooks)
    return sched.run()


__all__ = [
    "FTScheduler",
    "NabbitScheduler",
    "SchedulerResult",
    "SchedulerHooks",
    "NullHooks",
    "CompositeHooks",
    "NULL_HOOKS",
    "TaskRecord",
    "TaskMap",
    "TaskStatus",
    "RecoveryTable",
    "run_scheduler",
]
