"""The baseline NABBIT dynamic task-graph scheduler (Section III).

This is the *non-shaded* algorithm of Figure 2: work-stealing execution of
a dynamic task graph with join counters and notify arrays, and **no**
fault-tolerance machinery -- no life numbers, no bit vectors, no recovery
table, no try/catch.  It is the paper's ``baseline`` configuration in
Figure 4, the overhead reference for everything else, and the base class
of :class:`~repro.core.ft.FTScheduler`, which adds the shaded lines.

Routine mapping (paper -> method).  ``FTScheduler`` inherits the *shared*
rows (and ``__init__``, ``run``) unchanged and replaces the others; the
shared bodies take the life number as an argument, here always 1:

====================  ===========================================
INITANDCOMPUTE        :meth:`NabbitScheduler._init_and_compute`
TRYINITCOMPUTE        :meth:`NabbitScheduler._try_init_compute`
NOTIFYONCE            :meth:`NabbitScheduler._notify_once`
COMPUTEANDNOTIFY      :meth:`NabbitScheduler._compute_and_notify`
  COMPUTE(A)          :meth:`NabbitScheduler._compute` (shared)
  status + notify     :meth:`NabbitScheduler._publish` (shared)
NOTIFYSUCCESSOR       :meth:`NabbitScheduler._notify_successor`
====================  ===========================================

COMPUTEANDNOTIFY is split at the point between ``COMPUTE(A)`` and
``A.status = Computed``: the publication half runs as a separately spawned
frame.  On a real machine the split is a no-op (the continuation usually
runs immediately on the same worker); under the virtual-time simulator it
guarantees that a task's completion becomes *visible* only after its
compute cost has elapsed, so successor start times respect dependences.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.core.hooks import SchedulerHooks
from repro.core.records import TaskRecord
from repro.core.result import SchedulerResult
from repro.core.status import TaskStatus
from repro.core.taskmap import TaskMap
from repro.exceptions import SchedulerError
from repro.graph.plan import plans_of
from repro.graph.taskspec import TaskGraphSpec
from repro.memory.blockstore import BlockStore
from repro.memory.context import StoreComputeContext
from repro.obs.events import EventLog
from repro.runtime.api import Runtime
from repro.runtime.costmodel import CostModel
from repro.runtime.tracing import ExecutionTrace

Key = Hashable

# The statuses the per-task and per-edge paths read, bound once: a module
# global loads several times faster than an Enum member.
_COMPUTED, _COMPLETED = TaskStatus.COMPUTED, TaskStatus.COMPLETED


class NabbitScheduler:
    """Fault-oblivious work-stealing task-graph scheduler."""

    name = "nabbit"

    def __init__(
        self,
        spec: TaskGraphSpec,
        runtime: Runtime,
        store: BlockStore | None = None,
        cost_model: CostModel | None = None,
        hooks: SchedulerHooks | None = None,
        trace: ExecutionTrace | None = None,
        event_log: EventLog | None = None,
    ) -> None:
        self.spec = spec
        self.runtime = runtime
        self.store = store if store is not None else BlockStore()
        self.cost_model = cost_model or CostModel()
        self.hooks = hooks
        """Lifecycle hooks (:mod:`repro.core.hooks`), ``None`` for none.
        The baseline has no recovery path, so here they serve
        *measurement*: a silent-fault injector or detector
        (:mod:`repro.detect`) can attach to quantify what an unprotected
        scheduler lets through, and any corruption a hook marks surfaces
        as an uncaught fault."""
        self.trace = trace or ExecutionTrace()
        self.log = event_log
        """Structured observability log (:mod:`repro.obs`), ``None`` (off)
        by default; pass ``event_log=EventLog()`` to record the run's
        lifecycle.  Every event carries the task key and life number,
        timestamped and worker-attributed by the runtime; the baseline
        records the lifecycle subset -- it has no fault path."""
        # The hot paths test these cached flags, never the objects; the
        # same for frame labels, whose f-strings repr task keys on every
        # spawn but are only ever read by timeline-recording runtimes.
        self._obs = event_log is not None
        self._hooked = hooks is not None
        self._lbl = bool(getattr(runtime, "record_timeline", False))
        # Compute-phase dispatch seam: remote runtimes expose
        # compute_dispatch(spec, key, ctx, life) to run the (pure,
        # stateless) kernel off-process (life only attributes telemetry);
        # the rest compute in place.  A WorkerCrashError fails a baseline run.
        self._dispatch = getattr(runtime, "compute_dispatch", None)
        # Serial runtimes (inline, simulated) execute frames one at a
        # time, so trace-counter bumps need no lock; threaded runtimes
        # re-arm it.  Unknown runtimes default to the safe locked path.
        if getattr(runtime, "concurrent_frames", True):
            self.trace.assume_concurrent()
        else:
            self.trace.assume_serial()
        # A completed incarnation is handed to the sink in one call: the
        # counting sink, or the log's, which appends it and counts it.
        self._sink = self.trace.record
        if event_log is not None:
            event_log.bind_runtime(runtime)
            # Lifecycle phases stamp the task record with these, bound once.
            self._seq, self._now, self._wid = event_log.stamps()
            self._sink = event_log.record_sink(self.trace.record)
            # Fault injectors and detection-capable stores (repro.detect)
            # emit into an event_log; share ours unless the caller wired
            # their own.
            if getattr(hooks, "event_log", False) is None:
                hooks.event_log = event_log
            if getattr(self.store, "event_log", False) is None:
                self.store.event_log = event_log
        if getattr(self.store, "trace", False) is None:
            self.store.trace = self.trace
        if getattr(self.hooks, "trace", False) is None:
            # Detectors bump SDC_* trace counters; keep them paired with
            # the events they emit into the shared log (replay parity).
            self.hooks.trace = self.trace
        # key -> TaskPlan: the spec's static per-task facts (predecessors and
        # their bit masks, footprint, producer -> refs), compiled once per spec.
        self._plans = plans_of(spec)
        self.map = TaskMap(self._plans.n_preds)
        self._compute_factor = self.cost_model.compute_factor(self.store.policy.keep)
        # The cost model is frozen; hoist the per-charge constants the hot
        # paths read on every task out of the attribute chain.
        self._c_lock = self.cost_model.lock_cost
        self._c_atomic = self.cost_model.atomic_cost

    # -- public API -------------------------------------------------------------------

    def run(self) -> SchedulerResult:
        """Execute the graph to completion and return the result bundle."""
        skey = self.spec.sink_key()
        sink, life, inserted = self.map.insert_if_absent(skey)
        if not inserted:
            raise SchedulerError("scheduler instances are single-use; create a new one")
        if self._obs:
            sink.created_at = (next(self._seq), self._now(), self._wid())
        try:
            run = self.runtime.execute(self._root(sink, skey, life))
        except BaseException as exc:
            # The handoff still runs, but the run's own error is the one
            # raised; a handoff error rides it as a note (``add_note`` on 3.11+).
            try:
                self._hand_parts(skey)
            except Exception as handoff:
                note = f"end-of-run handoff also failed: {handoff!r}"
                setattr(exc, "__notes__", [*getattr(exc, "__notes__", ()), note])
            raise
        status = self._hand_parts(skey)
        if status is not _COMPLETED:
            raise SchedulerError(
                f"execution quiesced but sink {skey!r} is "
                f"{status.name if status else 'missing'} -- hung task graph"
            )
        return SchedulerResult(run=run, trace=self.trace, store=self.store, scheduler=self.name)

    def _hand_parts(self, skey: Key) -> TaskStatus | None:
        """Hand on what never-completed incarnations recorded -- the
        replaced ones, and every one of a run that did not finish -- and
        return the sink's final status."""
        final, _ = self.map.get(skey)
        status = final.status if final is not None else None  # verify: ok=lock-discipline (post-quiescence read; every worker has drained)
        for A in (*self.map.retired, *(() if status is _COMPLETED else self.map.records())):
            self._hand_part(A)
        return status

    def _root(self, sink: TaskRecord, skey: Key, life: int) -> Callable[[], None]:
        """The root frame's body: INITANDCOMPUTE on the sink."""
        return lambda: self._init_and_compute(sink, skey)

    def _hand_part(self, A: TaskRecord, began: bool | None = None) -> None:
        """Hand the sinks what incarnation A recorded since its last
        handoff without completing (cold: a compute fault, the end of a
        run); see :meth:`TaskRecord.take_unhanded` for ``began``."""
        part = A.take_unhanded(began)
        if part is None:
            return
        self.trace.record_part(A.key, *part)
        if self._obs:
            stamps = (A.created_at, A.begin_at, A.end_at, A.computed_at, A.srcs)
            if any(stamps):
                self.log.put_part(A.key, A.life, stamps)
                A.created_at = A.begin_at = A.end_at = A.computed_at = None
                A.srcs = ()

    # -- scheduler routines (Figure 2, non-shaded) --------------------------------------

    def _init_and_compute(self, A: TaskRecord, key: Key) -> None:
        """INITANDCOMPUTE: explore predecessors, then self-notify."""
        for pkey in self._plans[key].preds:
            self.runtime.spawn(
                self._try_init_compute, A, key, pkey,
                label=f"try:{key!r}<-{pkey!r}" if self._lbl else "",
            )
        if self._hooked:
            self.hooks.on_task_waiting(A)
        self._notify_once(A, key, key)

    def _try_init_compute(self, A: TaskRecord, key: Key, pkey: Key) -> None:
        """TRYINITCOMPUTE: create/visit predecessor ``pkey``; register for
        notification or notify immediately."""
        B, _, inserted = self.map.insert_if_absent(pkey)
        if inserted:
            if self._obs:
                B.created_at = (next(self._seq), self._now(), self._wid())
            self.runtime.spawn(
                self._init_and_compute, B, pkey,
                label=f"init:{pkey!r}" if self._lbl else "",
            )
        self.runtime.charge(self._c_lock)
        finished = True
        with B.lock:
            if B.status < _COMPUTED:
                B.notify_array.append(key)
                finished = False
        if finished:
            self._notify_once(A, key, pkey)

    def _notify_once(self, A: TaskRecord, key: Key, pkey: Key) -> None:
        """NOTIFYONCE (baseline): unconditionally decrement the join counter."""
        self.runtime.charge(self._c_atomic)
        with A.lock:
            A.join -= 1
            val = A.join
            if self._obs:
                # Under the lock: a concurrent notifier's source must not
                # be lost to this read-modify-write.
                A.srcs += (pkey,)
        if val < 0:
            raise SchedulerError(f"join counter underflow on {key!r} (notified by {pkey!r})")
        if val == 0:
            self._compute_and_notify(A, key)

    def _compute_and_notify(self, A: TaskRecord, key: Key) -> None:
        """COMPUTEANDNOTIFY: COMPUTE(A), then publish in a spawned frame."""
        self._compute(A, key, 1)
        if self._obs:
            A.end_at = (next(self._seq), self._now(), self._wid())
        self.runtime.spawn(
            self._publish, A, key, 1,
            label=f"publish:{key!r}" if self._lbl else "",
        )

    def _compute(self, A: TaskRecord, key: Key, life: int) -> None:
        """COMPUTE(A), unguarded: run the user COMPUTE function for
        incarnation ``life`` of ``key``, in place or off-process (counted
        when the incarnation is handed on).  A compute that returns with a
        declared output unwritten fails the run."""
        if self._obs:
            # The sources so far ride the stamp: a notification that came
            # after the compute began decodes after it (a premature compute).
            A.begin_at = (next(self._seq), self._now(), self._wid(), A.srcs)
        self.runtime.charge(float(self.spec.cost(key)) * self._compute_factor)
        fp = self._plans[key].footprint
        ctx = StoreComputeContext(self.spec, self.store, key, fp)
        if self._dispatch is not None:
            self._dispatch(self.spec, key, ctx, life)
        else:
            self.spec.compute(key, ctx)
        if ctx.unwritten:
            # An application bug, not a fault: re-running the task would
            # skip the same outputs, so the run fails here, at its key.
            raise SchedulerError(
                f"task {key!r} returned without writing its declared "
                f"outputs {ctx.missing_outputs()!r}"
            )
        if self._hooked:
            self.hooks.on_after_compute(A)

    def _publish(self, A: TaskRecord, key: Key, life: int) -> None:
        """COMPUTEANDNOTIFY's second half, unguarded: publish Computed,
        drain the notify array until it is stable, mark Completed, and
        hand the incarnation to the sink."""
        self.runtime.charge(self._c_atomic)
        with A.lock:
            A.status = _COMPUTED
        if self._obs:
            A.computed_at = (next(self._seq), self._now(), self._wid())
        notified = 0
        while True:
            with A.lock:
                batch = A.notify_array[notified:]
            for skey in batch:
                self.runtime.spawn(
                    self._notify_successor, key, skey,
                    label=f"notify:{key!r}->{skey!r}" if self._lbl else "",
                )
            notified += len(batch)
            self.runtime.charge(self._c_lock)
            with A.lock:
                if len(A.notify_array) == notified:
                    A.status = _COMPLETED
                    break
        self._sink(A)
        if self._hooked:
            self.hooks.on_after_notify(A)

    def _notify_successor(self, key: Key, skey: Key) -> None:
        """NOTIFYSUCCESSOR: forward a completion notification."""
        S, _ = self.map.get(skey)
        if S is None:
            raise SchedulerError(f"notify target {skey!r} vanished from the task map")
        self._notify_once(S, skey, key)
