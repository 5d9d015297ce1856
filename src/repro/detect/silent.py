"""Silent-fault injection: corrupt payloads, set no flags.

The ordinary :class:`~repro.faults.injector.FaultInjector` follows the
paper's methodology -- set a corruption flag, let the next access observe
it.  That presumes a detector exists.  ``SilentFaultInjector`` models the
fault *before* detection: at the planned lifecycle point it mutates the
victim's published block payloads in place
(:meth:`~repro.memory.blockstore.BlockStore.corrupt_data`) and walks
away.  Nothing raises.  The run completes either way; whether the result
is correct depends entirely on whether a detector
(:class:`~repro.detect.checksum.ChecksumStore` or
:class:`~repro.detect.replicate.ReplicationDetector`) catches the
mutation first.

Only the two post-compute phases make sense here (``BEFORE_COMPUTE``
victims have produced nothing to corrupt); plans containing
before-compute events are rejected.

The mutation (:func:`default_mutator`) perturbs every numeric leaf of
the payload by one unit (bit-flip semantics at value granularity): large
enough to survive any verification tolerance, silent enough that no
consumer crashes.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.records import TaskRecord
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultEvent, FaultPhase, FaultPlan
from repro.graph.taskspec import BlockRef, TaskGraphSpec
from repro.memory.blockstore import BlockStore
from repro.obs.events import EventKind, EventLog
from repro.runtime.tracing import ExecutionTrace, note_and_emit


def default_mutator(value: Any) -> Any:
    """Perturb every numeric leaf by one unit; flip first char of strings.

    Tuples/lists/dicts are rebuilt with mutated leaves; unrecognized
    payloads are wrapped in an ``("sdc", ...)`` marker tuple (still
    silent: only a detector or a result comparison can tell).
    """
    if isinstance(value, np.ndarray):
        out = value.copy()
        if out.size == 0:
            return out
        if out.dtype == bool:
            return ~out
        if np.issubdtype(out.dtype, np.number):
            return out + out.dtype.type(1)
        return out
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float, complex, np.generic)):
        return value + type(value)(1)
    if isinstance(value, str):
        return (chr(ord(value[0]) ^ 1) + value[1:]) if value else "\x01"
    if isinstance(value, tuple):
        return tuple(default_mutator(v) for v in value)
    if isinstance(value, list):
        return [default_mutator(v) for v in value]
    if isinstance(value, dict):
        return {k: default_mutator(v) for k, v in value.items()}
    return ("sdc", value)


class SilentFaultInjector(FaultInjector):
    """SchedulerHooks implementation that mutates block bytes without
    marking corruption -- faults are caught only if a detector finds them.
    The plan-driven firing is :class:`~repro.faults.injector.FaultInjector`'s;
    only the strike differs."""

    def __init__(
        self,
        plan: FaultPlan,
        spec: TaskGraphSpec,
        store: BlockStore,
        trace: ExecutionTrace | None = None,
        event_log: EventLog | None = None,
    ) -> None:
        for event in plan:
            if event.phase is FaultPhase.BEFORE_COMPUTE:
                raise ValueError(
                    "silent faults corrupt computed outputs; a "
                    "before-compute victim has produced nothing to "
                    f"corrupt (event: {event!r})"
                )
        super().__init__(plan, spec, store, trace, event_log)
        self.mutated: dict[FaultEvent, tuple[BlockRef, ...]] = {}
        """Ground truth per fired event: which resident refs were mutated."""

    def _strike(self, record: TaskRecord, phase: FaultPhase, event: FaultEvent) -> None:
        hit = tuple(
            ref for ref in map(BlockRef._make, self.spec.outputs(record.key))
            if self.store.corrupt_data(ref, default_mutator)
        )
        with self._lock:
            self.mutated[event] = hit
        note_and_emit(self.trace, self.event_log, EventKind.SDC_INJECTED, record.key, record.life,
                      phase=phase.value, blocks=len(hit))


def plan_silent_faults(
    spec: TaskGraphSpec,
    count: int = 1,
    seed: int = 0,
    phase: str | FaultPhase = "after_compute",
    task_type: str = "v=last",
    exclude_sink: bool = True,
) -> FaultPlan:
    """Sample ``count`` victims for a silent-corruption scenario.

    Defaults to ``v=last`` victims (their output versions are what the
    final result reads, so an escaped fault is visible in the answer)
    at after-compute time (successors will re-read the mutated outputs,
    giving detectors their access window).
    """
    import random

    from repro.faults.selectors import VersionIndex, normalize_task_type, sample_victims

    phase = FaultPhase.from_name(phase)
    if phase is FaultPhase.BEFORE_COMPUTE:
        raise ValueError("silent faults require a post-compute phase")
    index = VersionIndex(spec)
    pool = index.pool(normalize_task_type(task_type), exclude_sink=exclude_sink)
    if not pool:
        raise ValueError(f"no {task_type} victims available")
    victims = sample_victims(pool, random.Random(seed))[:count]
    if len(victims) < count:
        raise ValueError(
            f"pool has only {len(victims)} {task_type} victims, need {count}"
        )
    events = [
        FaultEvent(key, phase, corrupt_descriptor=False, corrupt_outputs=True)
        for key in victims
    ]
    return FaultPlan(events=events, implied_reexecutions=len(events), task_type=task_type)


def plan_sink_fault(spec: TaskGraphSpec) -> FaultPlan:
    """A one-event silent plan hitting the sink task (whose outputs the
    verifier reads directly, so an undetected fault is provably visible)."""
    event = FaultEvent(
        spec.sink_key(), FaultPhase.AFTER_COMPUTE, corrupt_descriptor=False, corrupt_outputs=True
    )
    return FaultPlan(events=[event], implied_reexecutions=1, task_type="sink")
