"""Selective task replication: duplicate-and-compare SDC detection.

Where the checksum layer catches silent corruption *of stored bytes*,
replication catches corruption *of the computation itself* (and, as a
side effect, post-write byte corruption too): at the ``after compute``
lifecycle point -- outputs written, successors not yet notified, exactly
the window the paper's after-compute fault occupies -- the detector
re-executes the task against the same inputs into a scratch context and
compares output fingerprints.

* ``votes=2`` (duplicate-and-compare): one replica.  A mismatch proves
  *something* corrupted without naming it; the published copy is
  conservatively condemned -- the record and its output versions are
  marked corrupted, so the scheduler's very next ``A.check()`` raises
  ``TaskCorruptionError`` and hands the task to RECOVERTASK.
* ``votes=3`` (triple-vote): two replicas.  The published copy survives
  if it matches the replica majority; it is condemned only when the
  replicas agree against it (or no majority exists).

Replication assumes deterministic task bodies (the bundled kernels are)
and that the task's *input versions are still resident* when the hook
runs.  Under an in-place memory-reuse policy (``Reuse()``, one buffer
per block) a task that overwrites its own input -- every Cholesky/LU
kernel -- has already evicted it by after-compute time, so the replica
cannot re-read it.  The detector must *abstain* in that case, never
fault: a replica's ``OverwrittenError`` fed into the scheduler would
recover the producer, whose re-execution re-arms the same abstention
forever (a detection-induced recovery livelock).  Abstentions are
counted in :attr:`ReplicationDetector.skipped`; use ``TwoVersion()`` /
``KeepK(k >= 2)`` stores (or the checksum layer) where in-place reuse
makes replication structurally impossible.

Wired as :class:`~repro.core.hooks.SchedulerHooks`, composable with an
injector via :class:`~repro.core.hooks.CompositeHooks` (injector first:
it corrupts the window the detector then inspects).
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Any, Hashable, Sequence

from repro.core.records import TaskRecord
from repro.detect.digest import DEFAULT_DIGEST, Digest, fingerprint
from repro.detect.policy import DetectionPolicy, ReplicateAll
from repro.exceptions import FaultError, SchedulerError
from repro.graph.taskspec import BlockRef, TaskGraphSpec
from repro.memory.blockstore import BlockStore
from repro.memory.context import StoreComputeContext
from repro.obs.events import EventKind, EventLog
from repro.runtime.tracing import ExecutionTrace, note_and_emit

_MISSING = object()


class _Capture:
    """A replica's store: reads from the real store, writes into a dict."""

    __slots__ = ("read", "write")

    def __init__(self, store: BlockStore, written: dict[BlockRef, Any]) -> None:
        self.read = store.read
        self.write = written.__setitem__


class ReplicaContext(StoreComputeContext):
    """Compute context for a detector replica: the real context's
    footprint checks and output count, over a store that reads the real
    one and captures writes in :attr:`written` instead of publishing."""

    __slots__ = ("written",)

    def __init__(self, spec: TaskGraphSpec, store: BlockStore, key: Hashable) -> None:
        self.written: dict[BlockRef, Any] = {}
        super().__init__(spec, _Capture(store, self.written), key)  # type: ignore[arg-type]


class ReplicationDetector:
    """SchedulerHooks implementation re-executing selected tasks and
    comparing outputs; a mismatch marks record + blocks corrupted and
    hands the task to the FT scheduler's RECOVERTASK path."""

    def __init__(
        self,
        spec: TaskGraphSpec,
        store: BlockStore,
        policy: DetectionPolicy | None = None,
        votes: int = 2,
        digest: str | Digest = DEFAULT_DIGEST,
        trace: ExecutionTrace | None = None,
        event_log: EventLog | None = None,
    ) -> None:
        if votes < 2:
            raise ValueError("votes must be >= 2 (stored copy + >= 1 replica)")
        self.spec = spec
        self.store = store
        self.policy = policy if policy is not None else ReplicateAll()
        self.votes = votes
        self.digest = digest
        self.trace = trace
        self.event_log = event_log
        """Observability log for REPLICA_RUN / SDC_DETECTED events (the
        schedulers share theirs at construction time when left ``None``)."""
        self._lock = threading.Lock()
        self.detections: list[tuple[Hashable, int, tuple[BlockRef, ...]]] = []
        """(key, life, condemned refs) per detection, ground truth for
        coverage accounting."""
        self.skipped = 0
        """Replications abstained because a replica could not re-read an
        input (evicted by in-place reuse, or mid-recovery corruption)."""

    # -- hook surface -----------------------------------------------------------

    def on_task_waiting(self, record: TaskRecord) -> None:
        return None

    def on_after_compute(self, record: TaskRecord) -> None:
        if record.corrupted:
            return  # a flag injector already condemned this incarnation
        key, life = record.key, record.life
        if not self.policy.should_replicate(self.spec, key, life):
            return
        outputs = tuple(BlockRef(*r) for r in self.spec.outputs(key))
        if not outputs:
            return
        published: dict[BlockRef, Any] = {}
        for ref in outputs:
            value = self.store.peek(ref, _MISSING)
            if value is _MISSING:
                # Flag-corrupted or evicted already: the ordinary
                # detected-fault machinery owns this version.
                return
            published[ref] = value
        log = self.event_log
        t0 = log.now() if log is not None else 0.0
        try:
            replica_fps = []
            for i in range(self.votes - 1):
                fps = self._run_replica(record, i)
                if fps is None:
                    with self._lock:
                        self.skipped += 1
                    return
                replica_fps.append(fps)
            published_fp = {ref: fingerprint(v, self.digest) for ref, v in published.items()}
            condemned = tuple(
                ref for ref in outputs
                if not self._published_wins(published_fp[ref], [fps[ref] for fps in replica_fps])
            )
            if not condemned:
                return
            for ref in condemned:
                self.store.mark_corrupted(ref)
            record.corrupted = True
            with self._lock:
                self.detections.append((key, life, condemned))
            note_and_emit(self.trace, log, EventKind.SDC_DETECTED, key, life,
                          method="replication", blocks=len(condemned))
        finally:
            # Attribution span over the whole detection attempt (replica
            # runs + fingerprint votes), whether it detected, abstained,
            # or cleared the task.
            if log is not None:
                log.emit(
                    EventKind.SPAN, key, life, phase="detect",
                    wall=log.now() - t0, t0=t0,
                )

    def on_after_notify(self, record: TaskRecord) -> None:
        return None

    # -- internals ----------------------------------------------------------------

    def _run_replica(self, record: TaskRecord, index: int) -> dict[BlockRef, Any] | None:
        """Re-execute ``record``'s task; return output fingerprints, or
        ``None`` to abstain when an input can no longer be re-read."""
        ctx = ReplicaContext(self.spec, self.store, record.key)
        try:
            self.spec.compute(record.key, ctx)
        except FaultError:
            return None
        note_and_emit(self.trace, self.event_log, EventKind.REPLICA_RUN, record.key, record.life,
                      replica=index + 1)
        if ctx.unwritten:
            raise SchedulerError(
                f"replica of {record.key!r} left outputs unwritten: {ctx.missing_outputs()!r}"
            )
        return {ref: fingerprint(v, self.digest) for ref, v in ctx.written.items()}

    def _published_wins(self, published_fp: Any, replica_fps: Sequence[Any]) -> bool:
        """True iff the stored copy should be trusted for this ref.

        With one replica: trust only on exact agreement.  With more: the
        stored copy must belong to a strict-majority fingerprint among
        all ``votes`` copies (stored + replicas)."""
        ballots = Counter([published_fp, *replica_fps])
        if len(ballots) == 1:
            return True
        top_fp, top_count = ballots.most_common(1)[0]
        if top_count * 2 > self.votes:
            return published_fp == top_fp
        return False  # no majority: condemn and re-execute
