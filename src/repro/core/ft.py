"""The fault-tolerant dynamic task-graph scheduler (Section IV).

This implements the *shaded* algorithm of Figures 2 and 3 on top of the
same frame structure as :class:`~repro.core.nabbit.NabbitScheduler`:

* every access to a task record or data block sits inside a
  ``try/except FaultError`` whose handler routes recovery to the failing
  task (Guarantee 5's "identify which task's fault resulted in the
  failure");
* life numbers are threaded through every frame and recovery is
  deduplicated per (key, life) through the
  :class:`~repro.core.recovery_table.RecoveryTable` (Guarantee 1);
* join-counter decrements are gated by the per-predecessor bit vector
  (Guarantee 3);
* a recovering task rebuilds its notify array by scanning successors
  (REINITNOTIFYENTRY -- Guarantee 4) and then re-executes as if newly
  created (RECOVERTASK -> INITANDCOMPUTE -- Guarantee 2);
* faults observed while computing reset the consumer (RESETNODE) and
  re-traverse its predecessors (Guarantee 5);
* recovery routines are themselves guarded, so failures during recovery
  replace the incarnation and start over (Guarantee 6).

Routine mapping (paper -> method):

====================  =============================
INITANDCOMPUTE        :meth:`FTScheduler._init_and_compute`
TRYINITCOMPUTE        :meth:`FTScheduler._try_init_compute`
NOTIFYONCE            :meth:`FTScheduler._notify_once`
COMPUTEANDNOTIFY      :meth:`FTScheduler._compute_and_notify` +
                      :meth:`FTScheduler._publish_and_notify`
NOTIFYSUCCESSOR       :meth:`FTScheduler._notify_successor`
RECOVERTASKONCE       :meth:`FTScheduler._recover_task_once`
ISRECOVERING          :meth:`RecoveryTable.check_and_claim` (negated)
RECOVERTASK           :meth:`FTScheduler._recover_task`
REINITNOTIFYENTRY     :meth:`FTScheduler._reinit_notify_entry`
RESETNODE             :meth:`FTScheduler._reset_node`
====================  =============================

The paper's ``B.overwritten`` test in TRYINITCOMPUTE is realized as an
availability check of exactly the block versions the consumer needs from
that predecessor (:meth:`FTScheduler._ensure_outputs_available`), covering
both eviction under memory reuse and data corruption.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.hooks import NULL_HOOKS, SchedulerHooks
from repro.core.records import TaskRecord
from repro.core.recovery_table import RecoveryTable
from repro.core.result import SchedulerResult
from repro.core.status import TaskStatus
from repro.core.taskmap import TaskMap
from repro.exceptions import (
    DataCorruptionError,
    FaultError,
    OverwrittenError,
    SchedulerError,
    TaskCorruptionError,
    WorkerCrashError,
)
from repro.graph.plan import plans_of
from repro.graph.taskspec import BlockRef, TaskGraphSpec
from repro.memory.blockstore import BlockStore
from repro.memory.context import StoreComputeContext
from repro.obs.events import NULL_LOG, EventKind, EventLog
from repro.obs.live import NULL_METRICS, MetricsRegistry
from repro.runtime.api import Runtime
from repro.runtime.costmodel import CostModel
from repro.runtime.frames import Frame
from repro.runtime.tracing import ExecutionTrace

Key = Hashable


class FTScheduler:
    """Work-stealing task-graph scheduler with selective, localized
    recovery from detected soft faults."""

    name = "ft"

    def __init__(
        self,
        spec: TaskGraphSpec,
        runtime: Runtime,
        store: BlockStore | None = None,
        cost_model: CostModel | None = None,
        hooks: SchedulerHooks | None = None,
        trace: ExecutionTrace | None = None,
        strict_context: bool = True,
        max_recoveries: int = 1_000_000,
        event_log: EventLog | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.spec = spec
        self.runtime = runtime
        self.store = store if store is not None else BlockStore()
        self.cost_model = cost_model or CostModel()
        self.hooks = hooks if hooks is not None else NULL_HOOKS
        self.trace = trace or ExecutionTrace()
        self.strict_context = strict_context
        self.max_recoveries = max_recoveries
        self.log = event_log if event_log is not None else NULL_LOG
        """Structured observability log (:mod:`repro.obs`).  Disabled by
        default (``NULL_LOG``); pass ``event_log=EventLog()`` to record
        the run's lifecycle:
        every event carries the task key and life number, timestamped and
        worker-attributed by the runtime."""
        # Identity-fast observability guard: NULL_LOG is the one shared
        # disabled log, so `is not NULL_LOG` short-circuits without even a
        # class-attribute read; `enabled` still covers custom disabled logs.
        self._obs = self.log is not NULL_LOG and self.log.enabled
        # Same idiom for the two other per-task overheads nobody pays for
        # by default: hook dispatch (NULL_HOOKS is the shared no-op) and
        # frame-label formatting, whose f-strings repr task keys on every
        # spawn but are only ever read by timeline-recording runtimes.
        self._hooked = self.hooks is not NULL_HOOKS
        self._lbl = bool(getattr(runtime, "record_timeline", False))
        # Compute-phase dispatch seam: process-pool runtimes expose
        # compute_dispatch(spec, key, ctx, life) to run the (pure,
        # stateless) kernel off-process (life only attributes telemetry);
        # every other runtime computes in place.
        self._dispatch = getattr(runtime, "compute_dispatch", None)
        # Serial runtimes (inline, simulated) execute frames one at a
        # time, so trace-counter bumps need no lock; threaded runtimes
        # re-arm it.  Unknown runtimes default to the safe locked path.
        if getattr(runtime, "concurrent_frames", True):
            self.trace.assume_concurrent()
        else:
            self.trace.assume_serial()
        self.log.bind_runtime(runtime)
        if self._obs and getattr(self.hooks, "event_log", False) is None:
            # Fault injectors accept an event_log; share ours unless the
            # caller wired their own.
            hooks.event_log = self.log
        if self._obs and getattr(self.store, "event_log", False) is None:
            # Detection-capable stores (repro.detect.ChecksumStore) emit
            # SDC_DETECTED; share the run's log the same way.
            self.store.event_log = self.log
        if getattr(self.store, "trace", False) is None:
            self.store.trace = self.trace
        if getattr(self.hooks, "trace", False) is None:
            # Detectors bump SDC_* trace counters; keep them paired with
            # the events they emit into the shared log (replay parity).
            self.hooks.trace = self.trace
        # key -> TaskPlan: the spec's static per-task facts (predecessors
        # and their bit masks, footprint, producer -> refs), compiled once
        # per spec rather than per run.
        self._plans = plans_of(spec)
        self.map = TaskMap(self._plans.n_preds)
        self.recovery_table = RecoveryTable()
        # One-way flag, set by the first RECOVERTASK or RESETNODE.  Until
        # then no record has been replaced or re-armed, so the incarnation
        # gates (_stale, the stale-traversal bit read) cannot fire and are
        # skipped; docs/ALGORITHM.md section 7 has the argument.
        self._disturbed = False
        self._compute_factor = self.cost_model.compute_factor(self.store.policy.keep)
        # The cost model is frozen; hoist the per-charge constants the hot
        # paths read on every task out of the attribute chain.
        cm = self.cost_model
        self._c_init = cm.ft_init_cost
        self._c_lock = cm.lock_cost
        self._c_atomic = cm.atomic_cost
        self._c_notify = cm.atomic_cost + cm.ft_notify_cost
        self._c_recovery = cm.recovery_table_cost
        self._c_reinit = cm.reinit_scan_cost
        self.metrics = metrics if metrics is not None else NULL_METRICS
        """Live metrics registry (:mod:`repro.obs.live`).  Disabled by
        default (``NULL_METRICS``); pass ``metrics=MetricsRegistry()`` to
        publish pull-based gauges over the run's trace counters and the
        block store's occupancy (the scheduler hot paths are never taxed
        -- gauges are read only when sampled)."""
        self._mx = self.metrics is not NULL_METRICS
        if self._mx:
            self._register_metrics()

    def _register_metrics(self) -> None:
        """Expose the live :class:`ExecutionTrace` counters (and the block
        store's occupancy) as callback gauges: the counters already exist
        and already update on the hot path, so live visibility costs one
        ``getattr`` per counter per collector tick."""
        trace = self.trace
        self.metrics.gauge(
            "repro_scheduler_info", "constant 1, labelled by scheduler", scheduler=self.name
        ).set(1)
        for name in sorted(ExecutionTrace.SCALAR_COUNTERS):
            self.metrics.callback_gauge(
                f"repro_trace_{name}",
                lambda n=name: getattr(trace, n),
                f"live ExecutionTrace counter {name}",
            )
        for name in ("total_computes", "total_recoveries", "tasks_computed"):
            self.metrics.callback_gauge(
                f"repro_trace_{name}",
                lambda n=name: getattr(trace, n),
                f"live ExecutionTrace aggregate {name}",
            )
        register = getattr(self.store, "register_metrics", None)
        if register is not None:
            register(self.metrics)

    # -- public API -------------------------------------------------------------------

    def run(self) -> SchedulerResult:
        """Execute the graph to completion (recovering any faults) and
        return the result bundle."""
        skey = self.spec.sink_key()
        sink, life, inserted = self.map.insert_if_absent(skey)
        if not inserted:
            raise SchedulerError("scheduler instances are single-use; create a new one")
        if self._obs:
            self.log.emit(EventKind.TASK_CREATED, skey, life)
        root = Frame(lambda: self._init_and_compute(sink, skey, life), label=f"init:{skey!r}")
        run = self.runtime.execute(root)
        final, _ = self.map.get(skey)
        status = final.status if final is not None else None  # verify: ok=lock-discipline (post-quiescence read; every worker has drained)
        if status is not TaskStatus.COMPLETED:
            raise SchedulerError(
                f"execution quiesced but sink {skey!r} is "
                f"{status.name if status else 'missing'} -- hung task graph"
            )
        return SchedulerResult(run=run, trace=self.trace, store=self.store, scheduler=self.name)

    # -- Figure 2 routines (with shaded additions) ---------------------------------------

    def _init_and_compute(self, A: TaskRecord, key: Key, life: int) -> None:
        """INITANDCOMPUTE: explore predecessors, then self-notify.

        The *before compute* injection point sits after the traversal is
        issued: the task now waits for notifications (Section VI.B).
        """
        if self._disturbed and self._stale(A, key, life):
            return
        self.runtime.charge(self._c_init)
        plan = self._plans[key]
        for pkey, mask in zip(plan.preds, plan.masks):
            self.runtime.spawn(
                lambda pk=pkey, m=mask: self._try_init_compute(A, key, life, pk, m),
                label=f"try:{key!r}<-{pkey!r}" if self._lbl else "",
            )
        if self._hooked:
            self.hooks.on_task_waiting(A)
        self._notify_once(A, key, key, life, plan.bit_of[key])

    def _try_init_compute(self, A: TaskRecord, key: Key, life: int, pkey: Key, mask: int) -> None:
        """TRYINITCOMPUTE: visit predecessor ``pkey`` (A's notification bit
        ``mask``); register for notification, notify immediately, or
        detect its failure."""
        if self._disturbed and self._stale(A, key, life):
            return
        B, blife, inserted = self.map.insert_if_absent(pkey)
        if inserted:
            if self._obs:
                self.log.emit(EventKind.TASK_CREATED, pkey, blife)
            self.runtime.spawn(
                lambda: self._init_and_compute(B, pkey, blife),
                label=f"init:{pkey!r}" if self._lbl else "",
            )
        finished = True
        try:
            # Stale-traversal gate: if A's notification bit for pkey is
            # already clear, A was notified through a notify array (e.g.
            # one registered by a previous incarnation before recovery) and
            # has no outstanding need for B's outputs.  Re-examining B here
            # would misread a *legal* post-consumption overwrite of its
            # outputs as a failure and trigger a spurious recovery cascade.
            # Until the first recovery or reset only this frame's own
            # notification can clear the bit: nothing to read (the charge
            # stays -- virtual time does not depend on the flag).
            self.runtime.charge(self._c_lock)
            if self._disturbed:
                with A.lock:
                    waiting = A.bit_vector & mask
                if not waiting:
                    self.trace.count_stale_notification()
                    if self._obs:
                        self.log.emit(EventKind.NOTIFY_STALE, key, life, src=pkey)
                    return
            # check() raises iff corrupted; testing the flag first keeps
            # the fault-free path to one attribute load per observation.
            if B.corrupted:
                B.check()
            self.runtime.charge(self._c_lock)
            with B.lock:
                if B.status < TaskStatus.COMPUTED:
                    # B must notify A once computed.
                    B.notify_array.append(key)
                    finished = False
            if finished:
                # The paper's "if (B.overwritten) throw": B has computed,
                # but are the versions A needs still resident and clean?
                self._ensure_outputs_available(key, pkey)
        except FaultError as exc:
            self.trace.count_fault_observed()
            if self._obs:
                self.log.emit(EventKind.FAULT_OBSERVED, pkey, blife, exc=type(exc).__name__)
            finished = False
            self._recover_task_once(pkey, blife)
        if finished:
            self._notify_once(A, key, pkey, life, mask)

    def _notify_once(self, A: TaskRecord, key: Key, pkey: Key, life: int, mask: int) -> None:
        """NOTIFYONCE: decrement the join counter only if ``pkey``'s bit
        (``mask``) in the notification bit vector was still set
        (Guarantee 3; the locked test-and-clear is ATOMICBITUNSET)."""
        try:
            if A.corrupted:
                A.check()
            self.runtime.charge(self._c_notify)
            with A.lock:
                success = A.bit_vector & mask
                if success:
                    A.bit_vector ^= mask
                    A.join -= 1
                    val = A.join
            if success:
                self.trace.count_notification()
                if self._obs:
                    self.log.emit(EventKind.NOTIFY, key, life, src=pkey)
                if val < 0:
                    raise SchedulerError(f"join underflow on {key!r} via {pkey!r}")
                if val == 0:
                    self._compute_and_notify(A, key, life)
            else:
                self.trace.count_stale_notification()
                if self._obs:
                    self.log.emit(EventKind.NOTIFY_STALE, key, life, src=pkey)
        except FaultError as exc:
            self.trace.count_fault_observed()
            if self._obs:
                self.log.emit(EventKind.FAULT_OBSERVED, key, life, exc=type(exc).__name__)
            self._recover_task_once(key, life)

    def _compute_and_notify(self, A: TaskRecord, key: Key, life: int) -> None:
        """COMPUTEANDNOTIFY, first half: run the user COMPUTE function.

        The *after compute* injection point fires between COMPUTE's return
        and the status publication, and is observed immediately by the
        computing thread (the Figure 1 narrative: "task B fails right
        after its computation, and the failure is detected by the thread
        operating on task B").
        """
        try:
            if A.corrupted:
                A.check()
            self.trace.count_compute(key)
            if self._obs:
                self.log.emit(EventKind.COMPUTE_BEGIN, key, life)
            self.runtime.charge(float(self.spec.cost(key)) * self._compute_factor)
            fp = self._plans[key].footprint
            ctx = StoreComputeContext(self.spec, self.store, key, self.strict_context, fp)
            if self._dispatch is not None:
                self._dispatch(self.spec, key, ctx, life)
            else:
                self.spec.compute(key, ctx)
            if self._hooked:
                self.hooks.on_after_compute(A)
            if A.corrupted:
                A.check()
            if self._obs:
                self.log.emit(EventKind.COMPUTE_END, key, life)
            self.runtime.spawn(
                lambda: self._publish_and_notify(A, key, life),
                label=f"publish:{key!r}" if self._lbl else "",
            )
        except FaultError as exc:
            self.trace.count_compute_failure(key)
            self.trace.count_fault_observed()
            if self._obs:
                self.log.emit(EventKind.FAULT_OBSERVED, key, life, exc=type(exc).__name__)
            self._handle_compute_fault(A, key, life, exc)

    def _publish_and_notify(self, A: TaskRecord, key: Key, life: int) -> None:
        """COMPUTEANDNOTIFY, second half: publish Computed, drain the
        notify array to stability, mark Completed.

        The *after notify* injection point fires once the task has
        finished notifying -- such a fault is only ever observed by a
        later reader of the task or its data, and may never be (the paper:
        "a failed task whose successors already have been computed is not
        recovered")."""
        try:
            if A.corrupted:
                A.check()
            self.runtime.charge(self._c_atomic)
            with A.lock:
                A.status = TaskStatus.COMPUTED
            if self._obs:
                self.log.emit(EventKind.TASK_COMPUTED, key, life)
            notified = 0
            while True:
                with A.lock:
                    batch = A.notify_array[notified:]
                for skey in batch:
                    self.runtime.spawn(
                        lambda sk=skey: self._notify_successor(key, sk),
                        label=f"notify:{key!r}->{skey!r}" if self._lbl else "",
                    )
                notified += len(batch)
                self.runtime.charge(self._c_lock)
                with A.lock:
                    if len(A.notify_array) == notified:
                        A.status = TaskStatus.COMPLETED
                        break
            if self._obs:
                self.log.emit(EventKind.TASK_COMPLETED, key, life)
            if self._hooked:
                self.hooks.on_after_notify(A)
        except FaultError as exc:
            self.trace.count_fault_observed()
            if self._obs:
                self.log.emit(EventKind.FAULT_OBSERVED, key, life, exc=type(exc).__name__)
            self._recover_task_once(key, life)

    def _notify_successor(self, key: Key, skey: Key) -> None:
        """NOTIFYSUCCESSOR: forward a completion notification to the
        successor's *current* incarnation."""
        S, slife = self.map.get(skey)
        if S is None:
            raise SchedulerError(f"notify target {skey!r} vanished from the task map")
        self._notify_once(S, skey, key, slife, self._plans[skey].bit_of[key])

    # -- Figure 3 recovery routines -------------------------------------------------------

    def _recover_task_once(self, key: Key, life: int) -> None:
        """RECOVERTASKONCE: recover ``(key, life)`` unless some thread
        already owns that incarnation's recovery (Guarantee 1)."""
        self.runtime.charge(self._c_recovery)
        if self.recovery_table.check_and_claim(key, life):
            if self._obs:
                # Time the whole recovery routine (incarnation install +
                # successor rescan + re-spawn) as a worker-attributed span
                # so the attribution report can price the paper's
                # localized-recovery claim on real runs.
                t0 = self.log.now()
                self._recover_task(key)
                self.log.emit(
                    EventKind.SPAN, key, life, phase="recovery",
                    wall=self.log.now() - t0, t0=t0,
                )
            else:
                self._recover_task(key)
        else:
            self.trace.count_recovery_skip()
            if self._obs:
                self.log.emit(EventKind.RECOVERY_SKIPPED, key, life)

    def _recover_task(self, key: Key) -> None:
        """RECOVERTASK: install a new incarnation, rebuild its notify array
        from its successors' bit vectors, and re-execute it as if newly
        created.  Failures during recovery retry with the next incarnation
        (Guarantee 6)."""
        self._disturbed = True
        while True:
            T, life = self.map.replace(key)
            T.recovery = True
            self.trace.count_recovery(key)
            if self._obs:
                self.log.emit(EventKind.RECOVERY, key, life)
            if self.trace.total_recoveries > self.max_recoveries:
                raise SchedulerError(
                    f"recovery budget exceeded ({self.max_recoveries}); "
                    "livelocked recovery cascade"
                )
            try:
                for skey in self.spec.successors(key):
                    self.trace.count_reinit_scan()
                    if self._obs:
                        self.log.emit(EventKind.REINIT_SCAN, key, life, successor=skey)
                    S, slife = self.map.get(skey)
                    if S is None:
                        # Successor not yet expanded; when it is created it
                        # will traverse this (fresh) incarnation normally.
                        continue
                    self._reinit_notify_entry(T, key, S, skey, slife)
                self.runtime.spawn(
                    lambda: self._init_and_compute(T, key, life),
                    label=f"recover:{key!r}#{life}" if self._lbl else "",
                )
                return
            except FaultError as exc:
                self.trace.count_fault_observed()
                if self._obs:
                    self.log.emit(EventKind.FAULT_OBSERVED, key, life, exc=type(exc).__name__)
                if not self.recovery_table.check_and_claim(key, life):
                    # Another thread owns the newer incarnation's recovery.
                    self.trace.count_recovery_skip()
                    if self._obs:
                        self.log.emit(EventKind.RECOVERY_SKIPPED, key, life)
                    return
                # else: we own it; loop and retry with a fresh incarnation.

    def _reinit_notify_entry(
        self, T: TaskRecord, key: Key, S: TaskRecord, skey: Key, slife: int
    ) -> None:
        """REINITNOTIFYENTRY: re-enqueue successor ``skey`` if it is still
        waiting on a notification from ``key`` (Guarantee 4)."""
        self.runtime.charge(self._c_reinit)
        try:
            S.check()
            mask = self._plans[skey].bit_of[key]
            with S.lock:
                # Ignore Computed and Completed successors; peeking the
                # status under the same lock as the bit keeps the pair
                # coherent (a successor cannot publish between the two).
                waiting = S.status is TaskStatus.VISITED and S.bit_vector & mask
            if waiting:
                with T.lock:
                    T.notify_array.append(skey)
                self.trace.count_notify_reinit()
                if self._obs:
                    self.log.emit(EventKind.REINIT, key, T.life, successor=skey)
        except FaultError as exc:
            if isinstance(exc, TaskCorruptionError) and exc.key == skey:
                self.trace.count_fault_observed()
                if self._obs:
                    self.log.emit(EventKind.FAULT_OBSERVED, skey, slife, exc=type(exc).__name__)
                self._recover_task_once(skey, slife)
            else:
                raise

    def _reset_node(self, A: TaskRecord, key: Key, life: int) -> None:
        """RESETNODE: a fault in one of A's *inputs* was observed while A
        computed; re-arm A's join counter and bit vector and replay its
        predecessor traversal, which will find and recover the failed
        producer (Guarantee 5)."""
        self._disturbed = True
        try:
            A.check()
            self.runtime.charge(self._c_lock)
            with A.lock:
                A.reset_for_reuse()
            self.trace.count_reset()
            if self._obs:
                self.log.emit(EventKind.RESET, key, life)
            self._init_and_compute(A, key, life)
        except FaultError as exc:
            self.trace.count_fault_observed()
            if self._obs:
                self.log.emit(EventKind.FAULT_OBSERVED, key, life, exc=type(exc).__name__)
            self._recover_task_once(key, life)

    # -- fault routing helpers --------------------------------------------------------------

    def _stale(self, A: TaskRecord, key: Key, life: int) -> bool:
        """True iff this frame belongs to a replaced (dead) incarnation.

        This is the purpose of threading life numbers through the call
        stack (Guarantee 1's machinery): frames spawned for an incarnation
        that recovery has since replaced must not act -- in particular
        they must not re-examine predecessor outputs that the *live*
        incarnation already consumed and legally overwrote, which would
        cascade into spurious recoveries.  The live incarnation re-runs
        the whole traversal itself (Guarantee 2), so dropping stale frames
        loses nothing.
        """
        current, cur_life = self.map.get(key)
        if current is A and cur_life == life:
            return False
        self.trace.count_stale_frame()
        if self._obs:
            self.log.emit(EventKind.STALE_FRAME, key, life)
        return True

    def _handle_compute_fault(self, A: TaskRecord, key: Key, life: int, exc: FaultError) -> None:
        """The COMPUTEANDNOTIFY catch block: recover A if the fault is A's
        own; otherwise reset A so the replayed traversal repairs the
        failed input's producer."""
        source = self._fault_source(exc)
        if self._obs:
            self.log.emit(
                EventKind.COMPUTE_FAULT, key, life, exc=type(exc).__name__, source=source
            )
        if source == key or source is None:
            self._recover_task_once(key, life)
        else:
            self._reset_node(A, key, life)

    def _fault_source(self, exc: FaultError) -> Key | None:
        """Identify the task whose failure caused ``exc``."""
        if isinstance(exc, TaskCorruptionError):
            return exc.key
        if isinstance(exc, WorkerCrashError):
            # The worker process died mid-compute: the parent-side inputs
            # and bookkeeping are intact, so the failed work is the task's
            # own compute phase -- recover the task, not a producer.
            return exc.key
        if isinstance(exc, (DataCorruptionError, OverwrittenError)):
            if exc.producer is not None:
                return exc.producer
            return self.spec.producer(BlockRef(exc.block, exc.version))
        return None

    def _ensure_outputs_available(self, consumer: Key, pkey: Key) -> None:
        """Raise if any block version ``consumer`` needs from predecessor
        ``pkey`` is corrupted or no longer resident."""
        for ref in self._plans[consumer].needs.get(pkey, ()):
            status = self.store.status_of(ref)
            if status == "ok":
                continue
            if status == "corrupted":
                raise DataCorruptionError(ref.block, ref.version, producer=pkey)
            raise OverwrittenError(
                ref.block, ref.version, self.store.newest_resident(ref.block), producer=pkey
            )
