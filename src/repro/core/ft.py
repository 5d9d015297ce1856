"""The fault-tolerant dynamic task-graph scheduler (Section IV).

:class:`FTScheduler` is :class:`~repro.core.nabbit.NabbitScheduler` plus
the *shaded* lines of Figures 2 and 3, and nothing else: the constructor
scaffold, ``run``, COMPUTE(A) and the status / notify-array loop are
inherited.  With no fault (every N(A)=1) what is
left here is gates that never fire: Section V's reduction to NABBIT, as a
class hierarchy.  The shaded lines:

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

Routine mapping (paper -> method, Guarantees carried), naming every method
of this class.  The per-edge routines replace the baseline's whole (their
shaded lines sit inside a lock or between map insert and registration);
the COMPUTEANDNOTIFY halves wrap an inherited body in ``try`` / gate / ``catch``:

====================  ===========================================  ======
INITANDCOMPUTE        :meth:`FTScheduler._init_and_compute`        G1, G2
TRYINITCOMPUTE        :meth:`FTScheduler._try_init_compute`        G1, G5
NOTIFYONCE            :meth:`FTScheduler._notify_once`             G3
COMPUTEANDNOTIFY      :meth:`FTScheduler._compute_and_notify` +    G5
                      :meth:`FTScheduler._publish_and_notify`
NOTIFYSUCCESSOR       :meth:`FTScheduler._notify_successor`        G1
RECOVERTASKONCE       :meth:`FTScheduler._recover_task_once`       G1
ISRECOVERING          :meth:`RecoveryTable.check_and_claim` (negated)
RECOVERTASK           :meth:`FTScheduler._recover_task`            G2, G6
REINITNOTIFYENTRY     :meth:`FTScheduler._reinit_notify_entry`     G4
RESETNODE             :meth:`FTScheduler._reset_node`              G5
the ``catch`` blocks  :meth:`FTScheduler._handle_compute_fault`,   G5
                      :meth:`FTScheduler._fault_source`; each
                      notes and emits FAULT_OBSERVED through
                      :func:`~repro.runtime.tracing.note_and_emit`
dead-frame gate       ``A.replaced`` (set by ``TaskMap.replace``), G1
                      then :meth:`FTScheduler._stale`
``B.overwritten``     :meth:`FTScheduler._ensure_outputs_available`
life-carrying root    :meth:`FTScheduler._root` (and FT state in ``__init__``)
====================  ===========================================  ======
"""

from __future__ import annotations

from typing import Callable

from repro.core.hooks import SchedulerHooks
from repro.core.nabbit import _COMPUTED, Key, NabbitScheduler
from repro.core.records import TaskRecord
from repro.core.recovery_table import RecoveryTable
from repro.core.status import TaskStatus
from repro.exceptions import (
    DataCorruptionError,
    FaultError,
    OverwrittenError,
    SchedulerError,
    TaskCorruptionError,
    WorkerCrashError,
)
from repro.graph.taskspec import BlockRef, TaskGraphSpec
from repro.memory.blockstore import BlockStore
from repro.obs.events import EventKind, EventLog
from repro.runtime.api import Runtime
from repro.runtime.costmodel import CostModel
from repro.runtime.tracing import ExecutionTrace, note_and_emit

#: The most incarnations one task may have in a run: Section V's N(A),
#: bounded.  RECOVERTASK fails the run, naming the task, rather than
#: install life ``MAX_LIVES + 1``.  Converging runs stay far below it (no
#: bundled app under the tested fault plans passes life 6); a task that
#: fails on every execution (a kernel that kills each worker it runs on,
#: a recovery cascade that evicts what it restores) reaches it after
#: ``MAX_LIVES`` tries, at its own key.
MAX_LIVES = 32


class FTScheduler(NabbitScheduler):
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
        event_log: EventLog | None = None,
    ) -> None:
        super().__init__(spec, runtime, store, cost_model, hooks, trace, event_log)
        # No run-global recovery state but the table: the incarnation gates
        # read their own record (``replaced``, the bit vector), so a fault
        # costs the frames of the records it reaches (docs/ALGORITHM.md §7).
        self.recovery_table = RecoveryTable()
        cm = self.cost_model
        self._c_init = cm.ft_init_cost
        self._c_notify = cm.atomic_cost + cm.ft_notify_cost
        self._c_recovery = cm.recovery_table_cost
        self._c_reinit = cm.reinit_scan_cost

    def _root(self, sink: TaskRecord, skey: Key, life: int) -> Callable[[], None]:
        """The root frame's body, carrying the sink's life number."""
        return lambda: self._init_and_compute(sink, skey, life)

    # -- Figure 2 routines (with shaded additions) ---------------------------------------

    def _init_and_compute(self, A: TaskRecord, key: Key, life: int) -> None:  # type: ignore[override]
        """INITANDCOMPUTE: explore predecessors, then self-notify.

        The *before compute* injection point sits after the traversal is
        issued: the task now waits for notifications (Section VI.B)."""
        if A.replaced and self._stale(A, key, life):
            return
        self.runtime.charge(self._c_init)
        plan = self._plans[key]
        for pkey, mask in zip(plan.preds, plan.masks):
            self.runtime.spawn(
                self._try_init_compute, A, key, life, pkey, mask,
                label=f"try:{key!r}<-{pkey!r}" if self._lbl else "",
            )
        if self._hooked:
            self.hooks.on_task_waiting(A)
        self._notify_once(A, key, key, life, plan.bit_of[key])

    def _try_init_compute(self, A: TaskRecord, key: Key, life: int, pkey: Key, mask: int) -> None:  # type: ignore[override]
        """TRYINITCOMPUTE: visit predecessor ``pkey`` (A's notification bit
        ``mask``); register for notification, notify immediately, or
        detect its failure."""
        if A.replaced and self._stale(A, key, life):
            return
        B, blife, inserted = self.map.insert_if_absent(pkey)
        if inserted:
            if self._obs:
                B.created_at = (next(self._seq), self._now(), self._wid())
            self.runtime.spawn(
                self._init_and_compute, B, pkey, blife,
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
            # The read is one atomic load; the charge stays for virtual time.
            self.runtime.charge(self._c_lock)
            if not A.bit_vector & mask:  # verify: ok=lock-discipline (one GIL-atomic load: a locked read is as stale once released; docs/ALGORITHM.md §7)
                note_and_emit(self.trace, self.log, EventKind.NOTIFY_STALE, key, life, src=pkey)
                return
            # check() raises iff corrupted; testing the flag first keeps
            # the fault-free path to one attribute load per observation.
            if B.corrupted:
                B.check()
            self.runtime.charge(self._c_lock)
            with B.lock:
                if B.status < _COMPUTED:
                    # B must notify A once computed.
                    B.notify_array.append(key)
                    finished = False
            if finished:
                # The paper's "if (B.overwritten) throw": B has computed,
                # but are the versions A needs still resident and clean?
                self._ensure_outputs_available(key, pkey)
        except FaultError as exc:
            note_and_emit(self.trace, self.log, EventKind.FAULT_OBSERVED, pkey, blife,
                          exc=type(exc).__name__)
            finished = False
            self._recover_task_once(pkey, blife)
        if finished:
            self._notify_once(A, key, pkey, life, mask)

    def _notify_once(self, A: TaskRecord, key: Key, pkey: Key, life: int, mask: int) -> None:  # type: ignore[override]
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
                    if self._obs:  # under the lock, as in NabbitScheduler._notify_once
                        A.srcs += (pkey,)
            if success:
                if val < 0:
                    raise SchedulerError(f"join underflow on {key!r} via {pkey!r}")
                if val == 0:
                    self._compute_and_notify(A, key, life)
            else:
                note_and_emit(self.trace, self.log, EventKind.NOTIFY_STALE, key, life, src=pkey)
        except FaultError as exc:
            note_and_emit(self.trace, self.log, EventKind.FAULT_OBSERVED, key, life,
                          exc=type(exc).__name__)
            self._recover_task_once(key, life)

    def _compute_and_notify(self, A: TaskRecord, key: Key, life: int) -> None:  # type: ignore[override]
        """COMPUTEANDNOTIFY, first half: COMPUTE(A) between two gates.

        The *after compute* injection point fires between COMPUTE's return
        and the status publication, and is observed immediately by the
        computing thread (Figure 1: "task B fails right after its
        computation, and the failure is detected by the thread operating
        on task B").  A fault ends this arming of A without completing
        it, so A hands on what it recorded before the catch block acts."""
        began = False
        try:
            if A.corrupted:
                A.check()
            began = True
            self._compute(A, key, life)
            if A.corrupted:
                A.check()
            if self._obs:
                A.end_at = (next(self._seq), self._now(), self._wid())
            self.runtime.spawn(
                self._publish_and_notify, A, key, life,
                label=f"publish:{key!r}" if self._lbl else "",
            )
        except FaultError as exc:
            self._hand_part(A, began)
            note_and_emit(self.trace, self.log, EventKind.FAULT_OBSERVED, key, life,
                          exc=type(exc).__name__)
            self._handle_compute_fault(A, key, life, exc)

    def _publish_and_notify(self, A: TaskRecord, key: Key, life: int) -> None:
        """COMPUTEANDNOTIFY, second half: the gated publish.

        The *after notify* injection point fires once the task has
        finished notifying -- such a fault is only ever observed by a
        later reader of the task or its data, and may never be (the paper:
        "a failed task whose successors already have been computed is not
        recovered")."""
        try:
            if A.corrupted:
                A.check()
            self._publish(A, key, life)
        except FaultError as exc:
            self._hand_part(A, True)
            note_and_emit(self.trace, self.log, EventKind.FAULT_OBSERVED, key, life,
                          exc=type(exc).__name__)
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
        if not self.recovery_table.check_and_claim(key, life):
            note_and_emit(self.trace, self.log, EventKind.RECOVERY_SKIPPED, key, life)
            return
        # Traced runs time the routine (install + successor rescan + re-spawn)
        # as a span, so attribution can price the localized-recovery claim.
        t0 = self.log.now() if self._obs else 0.0
        self._recover_task(key)
        if self._obs:
            self.log.emit(
                EventKind.SPAN, key, life, phase="recovery", wall=self.log.now() - t0, t0=t0
            )

    def _recover_task(self, key: Key) -> None:
        """RECOVERTASK: install a new incarnation, rebuild its notify array
        from its successors' bit vectors, and re-execute it as if newly
        created.  Failures during recovery retry with the next incarnation
        (Guarantee 6).  Life ``MAX_LIVES + 1`` fails the run instead."""
        while True:
            T, life = self.map.replace(key)
            if life > MAX_LIVES:
                raise SchedulerError(
                    f"task {key!r} failed on each of its {MAX_LIVES} lives; "
                    "it is not recovered again"
                )
            T.recovery = True
            note_and_emit(self.trace, self.log, EventKind.RECOVERY, key, life)
            try:
                for skey in self.spec.successors(key):
                    note_and_emit(self.trace, self.log, EventKind.REINIT_SCAN, key, life,
                                  successor=skey)
                    S, slife = self.map.get(skey)
                    # A successor not yet expanded will traverse this
                    # (fresh) incarnation normally when it is created.
                    if S is not None:
                        self._reinit_notify_entry(T, key, S, skey, slife)
                self.runtime.spawn(
                    self._init_and_compute, T, key, life,
                    label=f"recover:{key!r}#{life}" if self._lbl else "",
                )
                return
            except FaultError as exc:
                note_and_emit(self.trace, self.log, EventKind.FAULT_OBSERVED, key, life,
                              exc=type(exc).__name__)
                if not self.recovery_table.check_and_claim(key, life):
                    # Another thread owns the newer incarnation's recovery.
                    note_and_emit(self.trace, self.log, EventKind.RECOVERY_SKIPPED, key, life)
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
                note_and_emit(self.trace, self.log, EventKind.REINIT, key, T.life, successor=skey)
        except TaskCorruptionError as exc:
            if exc.key != skey:
                raise
            note_and_emit(self.trace, self.log, EventKind.FAULT_OBSERVED, skey, slife,
                          exc=type(exc).__name__)
            self._recover_task_once(skey, slife)

    def _reset_node(self, A: TaskRecord, key: Key, life: int) -> None:
        """RESETNODE: a fault in one of A's *inputs* was observed while A
        computed; re-arm A's join counter and bit vector and replay its
        traversal, which finds and recovers the failed producer (G5)."""
        try:
            A.check()
            self.runtime.charge(self._c_lock)
            with A.lock:
                A.reset_for_reuse()
            note_and_emit(self.trace, self.log, EventKind.RESET, key, life)
            self._init_and_compute(A, key, life)
        except FaultError as exc:
            note_and_emit(self.trace, self.log, EventKind.FAULT_OBSERVED, key, life,
                          exc=type(exc).__name__)
            self._recover_task_once(key, life)

    # -- fault routing helpers --------------------------------------------------------------

    def _stale(self, A: TaskRecord, key: Key, life: int) -> bool:
        """True iff this frame belongs to a replaced (dead) incarnation.

        This is why life numbers are threaded through the call stack
        (Guarantee 1): frames spawned for an incarnation that recovery has
        since replaced must not act -- in particular not re-examine
        predecessor outputs the *live* incarnation already consumed and
        legally overwrote, which would cascade into spurious recoveries.
        The live incarnation re-runs the whole traversal itself (Guarantee
        2), so dropping stale frames loses nothing."""
        current, cur_life = self.map.get(key)
        if current is A and cur_life == life:
            return False
        note_and_emit(self.trace, self.log, EventKind.STALE_FRAME, key, life)
        return True

    def _handle_compute_fault(self, A: TaskRecord, key: Key, life: int, exc: FaultError) -> None:
        """The COMPUTEANDNOTIFY catch block: recover A if the fault is A's
        own; otherwise reset A so the replayed traversal repairs the
        failed input's producer."""
        source = self._fault_source(exc)
        note_and_emit(self.trace, self.log, EventKind.COMPUTE_FAULT, key, life,
                      exc=type(exc).__name__, source=source)
        if source == key or source is None:
            self._recover_task_once(key, life)
        else:
            self._reset_node(A, key, life)

    def _fault_source(self, exc: FaultError) -> Key | None:
        """Identify the task whose failure caused ``exc``."""
        if isinstance(exc, (TaskCorruptionError, WorkerCrashError)):
            # A crashed worker died mid-compute with the parent-side inputs
            # and bookkeeping intact, so the failed work is the task's own
            # compute phase -- recover the task, not a producer.
            return exc.key
        if isinstance(exc, (DataCorruptionError, OverwrittenError)):
            if exc.producer is not None:
                return exc.producer
            return self.spec.producer(BlockRef(exc.block, exc.version))
        return None

    def _ensure_outputs_available(self, consumer: Key, pkey: Key) -> None:
        """The paper's ``B.overwritten`` test: raise if any block version
        ``consumer`` needs from predecessor ``pkey`` is corrupted or no
        longer resident (evicted under memory reuse)."""
        for ref in self._plans[consumer].needs.get(pkey, ()):
            status = self.store.status_of(ref)
            if status == "ok":
                continue
            if status == "corrupted":
                raise DataCorruptionError(ref.block, ref.version, producer=pkey)
            raise OverwrittenError(
                ref.block, ref.version, self.store.newest_resident(ref.block), producer=pkey
            )
