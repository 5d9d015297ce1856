"""Structured event log: the substrate of the observability layer.

The paper's Section V bounds and Section VI experiments are all *a
posteriori* -- they depend on what actually happened at run time: which
incarnation of which task recovered, when, on which worker, and what the
recovery scan cost.  This module records the *events themselves*;
:class:`ExecutionTrace`'s counters are a fold of this vocabulary (one
count per :class:`EventKind`), so they -- and much more: Chrome traces,
worker metrics, recovery timelines -- can be derived after the fact
from one source of truth.

Design constraints:

* **Low overhead when off.**  Off is ``event_log=None``: schedulers
  and runtimes store the log as given and guard every emission with a
  cached ``log is not None`` check, so a fault-free benchmark run pays
  one local boolean test per would-be event and no log is shared.
* **A task writes one record.**  A task incarnation's lifecycle
  (TASK_CREATED, a NOTIFY per source, COMPUTE_BEGIN, COMPUTE_END,
  TASK_COMPUTED, TASK_COMPLETED) rides its
  :class:`~repro.core.records.TaskRecord`: each phase stores its ``(seq,
  t, worker)`` stamp there, each notification adds its source under the
  join lock it holds, and at TASK_COMPLETED the scheduler makes one sink
  call.  The sink is the choice: with no log,
  :meth:`~repro.runtime.tracing.ExecutionTrace.record` counts it; with
  one, :meth:`EventLog.record_sink` appends it as one record, stamped as
  its TASK_COMPLETED, and counts it.  What an incarnation recorded
  without completing (replaced, a compute fault, an aborted run) is
  handed on from that cold path, or at the end of the run, through
  :meth:`EventLog.put_part`.  Faults, recovery, resets, stale frames and
  the runtimes' records are emitted as they happen (``emit``/``emit_at``).
* **Cheap when on: the hot path records, the read path decodes.**  A
  record is one flat ``(seq, t, worker, kind, key, life, data-or-None)``
  tuple appended with one ``list.extend`` -- atomic under the GIL, so a
  reader never sees part of one; a task record has the kind
  :data:`TASK_RECORD` (or :data:`TASK_PART`) and its stamps as data.  A
  read decodes what was appended since the last one into
  :class:`Event` objects, expanding task records (their NOTIFYs placed
  just before the COMPUTE_BEGIN they released, with its ``t`` and
  worker; one that arrived after the compute began, just after it),
  sorts them by stamp and numbers them: ``seq`` is the rank in the
  merged order, total and gap-free from 0.
* **One way in: the recorder.**  Every record enters through
  ``log.rec.put(record)``.  For a buffered log ``rec`` is a
  :class:`threading.local` subclass whose ``__init__`` registers a fresh
  buffer per thread and binds ``put`` to its ``extend``.  It is given
  the buffer registry and the lock, never the log: a ``threading.local``
  keeps its constructor arguments, and a log -> recorder -> log cycle
  would keep each run's decoded events alive until a full collection.
  :meth:`EventLog.seal` swaps in a recorder whose ``put`` raises, and
  :meth:`EventLog.clear` restarts numbering without replacing the stamp
  counter a site bound (:meth:`EventLog.stamps`).
* **Low contention when on.**  An unbounded log appends to *per-thread
  buffers*, ordered by a shared stamp counter whose ``next()`` is one
  GIL-atomic call; a read merges them by that counter, never by
  timestamp (the simulator's virtual times are not monotone).  The
  counter linearizes the stamps, and any cross-thread happens-before
  edge (lock release -> acquire on a task record) orders the matching
  ``next()`` calls.  A read returns the records handed in so far --
  mid-run, the completed incarnations and the cold-path events -- and a
  record handed in after it decodes after its events.
* **Worker attribution and timestamps come from the runtime.**  Each
  runtime exposes ``obs_now()`` (virtual time on the simulator,
  wall-clock seconds since ``execute()`` on the threaded runtime,
  accumulated charge inline) and ``obs_worker()``; the log binds to them
  via :meth:`EventLog.bind_runtime`.  Every task-scoped event carries
  the key *and* the life number: incarnations never alias.
* **Counts are of records.**  ``len(log)``, ``total_emitted`` and
  ``dropped`` count records (an emitted event is one, a task
  incarnation's lifecycle is one), known without decoding.
* **Bounded memory on demand.**  ``EventLog(capacity=n)`` keeps the most
  recent ``n`` records in one ring, appended under a lock, and decodes
  it afresh on a read.  The default is unbounded, which the consistency
  check (:func:`~repro.runtime.tracing.assert_consistent`) requires;
  ``EventLog(buffered=False)`` forces the single-lock append on an
  unbounded log (the parity tests' reference).  All three modes share
  one record format and one decoder.
"""

from __future__ import annotations

import itertools
import operator
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace
from typing import Any, Callable, Hashable, Iterable, Iterator


class EventKind(str, Enum):
    """Lifecycle vocabulary of one task-graph execution.

    Scheduler-side kinds map 1:1 onto the paper's routines (see
    docs/OBSERVABILITY.md for the full schema); runtime-side kinds
    (steal/park/unpark) describe the work-stealing substrate.
    """

    # -- task lifecycle (both schedulers) ------------------------------------
    TASK_CREATED = "task_created"
    """Task record inserted into the task map (INSERTTASKIFABSENT won)."""
    COMPUTE_BEGIN = "compute_begin"
    """COMPUTE invoked; pairs with COMPUTE_END or COMPUTE_FAULT."""
    COMPUTE_END = "compute_end"
    """COMPUTE returned without a detected fault."""
    TASK_COMPUTED = "task_computed"
    """Status published as Computed; successors may now be notified."""
    TASK_COMPLETED = "task_completed"
    """Notify array drained to stability; task reached Completed."""
    NOTIFY = "notify"
    """Join-counter decrement performed (bit successfully unset)."""
    NOTIFY_STALE = "notify_stale"
    """Notification dropped: the predecessor's bit was already clear."""

    # -- fault path (FT scheduler + injector) --------------------------------
    FAULT_INJECTED = "fault_injected"
    """The injector fired a planned fault event."""
    FAULT_OBSERVED = "fault_observed"
    """A scheduler catch block observed a detected-fault exception."""
    COMPUTE_FAULT = "compute_fault"
    """COMPUTE raised a detected fault; carries the attributed source."""
    RECOVERY = "recovery"
    """RECOVERTASK installed a new incarnation (life = the new life)."""
    RECOVERY_SKIPPED = "recovery_skipped"
    """RECOVERTASKONCE suppressed a duplicate recovery (Guarantee 1)."""
    RESET = "reset"
    """RESETNODE re-armed a consumer whose input was faulty."""
    REINIT_SCAN = "reinit_scan"
    """REINITNOTIFYENTRY examined one successor record (scan cost unit)."""
    REINIT = "reinit"
    """REINITNOTIFYENTRY re-enqueued a still-waiting successor."""
    STALE_FRAME = "stale_frame"
    """A frame of a replaced incarnation was dropped (life mismatch)."""

    # -- silent-fault detection (repro.detect) -------------------------------
    SDC_INJECTED = "sdc_injected"
    """A silent-fault injector mutated block payloads without setting any
    corruption flag; only a detector can surface it."""
    SDC_DETECTED = "sdc_detected"
    """A detector (checksum verification or task replication) caught a
    silent corruption and converted it into the detected-fault path."""
    SDC_ESCAPED = "sdc_escaped"
    """Post-run accounting: an injected silent fault was never detected
    (the run may have produced a wrong result)."""
    REPLICA_RUN = "replica_run"
    """The replication detector re-executed a task for output comparison."""

    # -- runtime substrate ---------------------------------------------------
    STEAL = "steal"
    """A thief took a frame from a victim's deque top."""
    PARK = "park"
    """A worker found nothing to run or steal and went idle."""
    UNPARK = "unpark"
    """A previously idle worker found work again."""
    WORKER_DOWN = "worker_down"
    """A remote compute worker was lost mid-task (ProcessRuntime or
    ClusterRuntime), ``data['reason']`` says how (``closed``, ``died``,
    ``heartbeat``, ``transport``); the dispatch surfaces as a
    WorkerCrashError on the key it was running."""
    WORKER_UP = "worker_up"
    """A replacement remote compute worker joined the pool;
    ``data['pid']`` (or ``data['addr']``) names it.  Pairs with
    WORKER_DOWN so pool-health timelines can show both transitions."""
    CONNECT = "connect"
    """A comm channel to a remote worker was established
    (ClusterRuntime); ``data['addr']`` names the peer address."""
    DISCONNECT = "disconnect"
    """A comm channel to a remote worker was lost -- closed, severed,
    heartbeat-silent or corrupt -- or released at shutdown;
    ``data['addr']`` names the peer and ``data['reason']`` says how it
    ended.  A loss is followed by a WORKER_DOWN."""
    FETCH = "fetch"
    """A block payload crossed the comm to a remote worker
    (ClusterRuntime): ``data['mode']`` is ``"push"`` (it rode the job
    message because the channel's residency table did not hold it) or
    ``"fetch"`` (the worker asked for it lazily);
    ``data['block']``/``data['version']`` identify the version,
    ``data['nbytes']`` its shipped size and ``data['addr']`` the channel.
    Absence of a FETCH for a dispatched input means the worker already
    held it."""

    # -- telemetry -----------------------------------------------------------
    SPAN = "span"
    """A measured interval, attributed to the emitting worker.
    ``data['phase']`` names what was measured (``kernel``, ``attach``,
    ``fetch``, ``serialize``, ``dispatch``, ``recovery``, ``detect``) and
    ``data['wall']`` is its duration in seconds.  Spans measured in the
    *parent* process (dispatch, recovery, detect) add ``data['t0']``,
    their start on the log's clock; worker-process spans ship durations
    only (the two processes do not share a clock epoch), and kernel
    spans add ``data['cpu']`` (worker process-CPU seconds)."""


@dataclass(slots=True, init=False)
class Event:
    """One timestamped, worker-attributed lifecycle event.

    Events are built by the log's decoder when it is read, never on the
    emission path, and construction is seven plain slot stores.  They
    are values: nothing assigns to their fields or edits ``data`` after
    construction (the ``event-immutable`` lint rule holds the package's
    event consumers to that)."""

    seq: int
    """Global emission order (total, gap-free for an unbounded log)."""
    t: float
    """Runtime time: virtual on the simulator, seconds on the threaded
    runtime, accumulated charge inline."""
    worker: int
    """Worker that emitted the event."""
    kind: EventKind
    key: Hashable = None
    """Task key, for task-scoped events."""
    life: int = 0
    """Incarnation number of ``key`` at emission (0 = not task-scoped)."""
    data: dict[str, Any] = field(default_factory=dict)
    """Kind-specific extras: fault source, exception type, successor key,
    victim worker, deque depth, phase ...  Empty (and private to this
    event) when the emission carried none."""

    def __init__(
        self,
        seq: int,
        t: float,
        worker: int,
        kind: EventKind,
        key: Hashable = None,
        life: int = 0,
        data: dict[str, Any] | None = None,
    ) -> None:
        self.seq = seq
        self.t = t
        self.worker = worker
        self.kind = kind
        self.key = key
        self.life = life
        self.data = {} if data is None else data

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe flat dict (keys stringified via repr when needed)."""
        out: dict[str, Any] = {
            "seq": self.seq,
            "t": self.t,
            "worker": self.worker,
            "kind": self.kind.value,
        }
        if self.key is not None:
            out["key"] = _json_key(self.key)
        if self.life:
            out["life"] = self.life
        for name, value in self.data.items():
            out[name] = _json_key(value) if name in _KEY_FIELDS else value
        return out


#: ``Event.data`` fields that hold task keys and need key serialization.
_KEY_FIELDS = frozenset({"source", "successor", "src", "target"})


def _json_key(key: Any) -> Any:
    """Task keys are arbitrary hashables; keep JSON-native ones, repr the rest."""
    if key is None or isinstance(key, (str, int, float, bool)):
        return key
    return repr(key)


_seq_of = operator.attrgetter("seq")
_set_seq = Event.seq.__set__  # type: ignore[attr-defined]
_first_slot = operator.itemgetter(0)

#: Slots per raw record: ``(seq, t, worker, kind, key, life, data-or-None)``
#: -- the positional signature of :class:`Event`.
_WIDTH = 7


TASK_RECORD = "task_record"
"""Kind slot of a completed incarnation's record ``(seq, t, worker,
TASK_RECORD, key, life, task)``: its own stamp is the TASK_COMPLETED,
and the :class:`~repro.core.records.TaskRecord` ``task`` is read when
the log is: each phase slot (``created_at`` ...) holds that phase's
``(seq, t, worker)`` stamp or ``None`` (``begin_at`` adds the sources
that had arrived when the compute began), ``srcs`` the notifying
sources in arrival order -- including any that came after completion,
which only a broken scheduler delivers."""

TASK_PART = "task_part"
"""Kind slot of what an incarnation recorded without completing, handed
on from a cold path: its data is the ``(created, begin, end, computed,
srcs)`` tuple taken then, its own stamp the handoff's (no event)."""

_TASK_CREATED, _NOTIFY = EventKind.TASK_CREATED, EventKind.NOTIFY
_COMPUTE_BEGIN, _COMPUTE_END = EventKind.COMPUTE_BEGIN, EventKind.COMPUTE_END
_TASK_COMPUTED, _TASK_COMPLETED = EventKind.TASK_COMPUTED, EventKind.TASK_COMPLETED


def _decode(raw: Iterable[Any], events: list[Event]) -> None:
    """Append the events of the whole records in ``raw`` to ``events``,
    each carrying its stamp's counter value as ``seq`` (the caller sorts
    and ranks them).  A task record expands into its phases.  Its NOTIFYs
    share the stamp of the COMPUTE_BEGIN (the handoff's, if none began);
    those that arrived before the compute began -- the sources its stamp
    carries -- come before it, any later ones after it, and a stable sort
    keeps them there."""
    add = events.append
    slots = iter(raw)
    for seq, t, worker, kind, key, life, data in zip(slots, slots, slots, slots, slots, slots, slots):
        if kind is not TASK_RECORD and kind is not TASK_PART:
            add(Event(seq, t, worker, kind, key, life, data))
            continue
        if kind is TASK_RECORD:
            data = data.created_at, data.begin_at, data.end_at, data.computed_at, data.srcs
        created, begin, end, computed, srcs = data
        if created is not None:
            s, st, sw = created
            add(Event(s, st, sw, _TASK_CREATED, key, life))
        if begin is None:
            for src in srcs:
                add(Event(seq, t, worker, _NOTIFY, key, life, {"src": src}))
        else:
            s, st, sw, released = begin
            for src in released:
                add(Event(s, st, sw, _NOTIFY, key, life, {"src": src}))
            add(Event(s, st, sw, _COMPUTE_BEGIN, key, life))
            for src in srcs[len(released):]:
                add(Event(s, st, sw, _NOTIFY, key, life, {"src": src}))
            if end is not None:
                s, st, sw = end
                add(Event(s, st, sw, _COMPUTE_END, key, life))
                if computed is not None:
                    s, st, sw = computed
                    add(Event(s, st, sw, _TASK_COMPUTED, key, life))
        if kind is TASK_RECORD:
            add(Event(seq, t, worker, _TASK_COMPLETED, key, life))


def _ranked(events: list[Event], start: int) -> list[Event]:
    """Sort ``events`` by stamp (stable) and number them from ``start``."""
    events.sort(key=_seq_of)
    deque(map(_set_seq, events, itertools.count(start)), maxlen=0)
    return events


class LateEmitError(RuntimeError):
    """A record arrived after the merged order was already observed
    *and* was stamped before its end.

    The buffered log's merge is only stable if every new record extends
    the previously drained prefix.  A record whose stamp falls inside
    that prefix (a worker thread that kept emitting after quiescence was
    declared) would silently reorder history for any consumer that
    drained twice -- so the next drain raises instead."""


class SealedLogError(RuntimeError):
    """A record arrived after :meth:`EventLog.seal` closed the log."""


class _Recorder(threading.local):
    """A buffered log's recorder: ``put`` is this thread's buffer's
    ``extend``.  ``__init__`` runs once per thread and takes the lock only
    to register the buffer; the registry keeps records alive past their
    thread.  Never give it the log (see the module docstring: no cycle)."""

    def __init__(self, buffers: list[Any], lock: threading.Lock) -> None:
        buf: list[Any] = []
        with lock:
            buffers.append(buf)
        self.put = buf.extend


class _LockedSink:
    """The recorder of a capacity-bounded or ``buffered=False`` log: one
    shared buffer, extended under the log's lock."""

    __slots__ = ("buf", "lock", "n")

    def __init__(self, buf: deque[Any] | list[Any], lock: threading.Lock) -> None:
        self.buf = buf
        self.lock = lock
        self.n = 0
        """Records put since the log was opened or cleared (drops included)."""

    def put(self, record: tuple[Any, ...]) -> None:
        with self.lock:
            self.buf.extend(record)
            self.n += 1


def _refuse(record: tuple[Any, ...]) -> None:
    raise SealedLogError(f"emit({getattr(record[3], 'value', record[3])}) on a sealed EventLog")


#: The recorder :meth:`EventLog.seal` swaps in: every ``put`` raises.
_SEALED = SimpleNamespace(put=_refuse)


class EventLog:
    """Append-only, thread-safe event collector bound to a runtime clock.

    Every emission appends one flat record (see the module docstring)
    through :attr:`rec`; :class:`Event` objects exist only once the log
    has been read.  Unbounded logs (the default) are *buffered*: each
    emitting thread extends its own list, and the only shared state a
    stamp touches is ``next()`` on an :func:`itertools.count` -- a
    single C-level call that is atomic under the GIL and therefore a
    linearization point.  Merging the buffers by that counter at read
    time reconstructs exactly the total order a single-lock log would
    have produced.  Capacity-bounded logs and ``buffered=False`` extend
    one shared buffer under the lock instead.
    """

    rec: Any
    """The recorder: ``rec.put((seq, t, worker, kind, key, life,
    data-or-None))`` appends one record.  Read it off the log at every
    emission: ``seal`` and ``clear`` replace it."""

    def __init__(self, capacity: int | None = None, buffered: bool = True) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self._buffered = buffered and capacity is None
        self._lock = threading.Lock()
        # One stamp counter for the log's lifetime, so a site that bound
        # it never strands; seqs are ranks assigned at decode, so
        # ``clear`` needs no renumbering.
        self._count = itertools.count()
        # Raw records not yet decoded.  Buffered: one list per emitting
        # thread, registered by the recorder.  Otherwise the one shared
        # buffer -- a ring of ``capacity`` records when bounded.
        self._shared: deque[Any] | list[Any]
        self._shared = deque(maxlen=capacity * _WIDTH) if capacity is not None else []
        self._buffers: list[Any]
        # Decoded events in merged order; only ``_drain`` writes it.  For
        # a ring it is the decode of the ring as of ``_ring_at`` records.
        self._merged: list[Event] = []
        self._ring_at = 0
        # Records decoded so far, and the highest stamp among their own
        # (slot 0) stamps: the drained prefix a late record must extend.
        self._decoded = 0
        self._high = -1
        self._clock: Callable[[], float] = time.perf_counter
        self._worker: Callable[[], int] = _zero
        self._epoch = time.perf_counter()
        self._open()

    def _open(self) -> None:
        """Install a fresh recorder over empty buffers."""
        if self._buffered:
            self._buffers = []
            self.rec = _Recorder(self._buffers, self._lock)
        else:
            self._buffers = [self._shared]
            self._sink = _LockedSink(self._shared, self._lock)
            self.rec = self._sink

    # -- binding -----------------------------------------------------------------

    def bind_runtime(self, runtime: Any) -> None:
        """Adopt ``runtime``'s notion of time and worker identity.

        Any object with ``obs_now()`` / ``obs_worker()`` works; missing
        methods leave the wall-clock / worker-0 defaults in place.
        """
        now = getattr(runtime, "obs_now", None)
        if now is not None:
            self._clock = now
        worker = getattr(runtime, "obs_worker", None)
        if worker is not None:
            self._worker = worker

    def now(self) -> float:
        """Current time on the bound runtime clock (wall-clock seconds
        until :meth:`bind_runtime` adopts a runtime's ``obs_now``).
        Span emitters use this so their ``t0``/``wall`` fields live on
        the same axis as every other event timestamp."""
        return self._clock()

    def stamps(self) -> tuple[Iterator[int], Callable[[], float], Callable[[], int]]:
        """``(seq, clock, worker)`` for a site that stamps a task record's
        phase itself: ``(next(seq), clock(), worker())`` is what ``emit``
        would record.  Bind them after :meth:`bind_runtime`; ``seq`` stays
        valid across :meth:`clear`."""
        return self._count, self._clock, self._worker

    # -- emission ----------------------------------------------------------------

    def emit(
        self,
        kind: EventKind,
        key: Hashable = None,
        life: int = 0,
        **data: Any,
    ) -> None:
        """Record one event at the bound runtime's current time/worker."""
        self.rec.put(
            (next(self._count), self._clock(), self._worker(), kind, key, life, data or None)
        )

    def emit_at(
        self,
        kind: EventKind,
        t: float,
        worker: int,
        key: Hashable = None,
        life: int = 0,
        **data: Any,
    ) -> None:
        """Record one event with explicit attribution (used by the
        simulator's driver loop, which acts *for* a virtual worker)."""
        self.rec.put((next(self._count), t, worker, kind, key, life, data or None))

    def record_sink(self, count: Callable[[Any], None]) -> Callable[[Any], None]:
        """The scheduler's handoff with this log attached: ``sink(rec)``
        appends completed task incarnation ``rec`` as one record, stamped
        now as its TASK_COMPLETED, then passes it on to ``count`` (the
        counting sink).  Bind it after :meth:`bind_runtime`."""
        seq, clock, worker = self._count, self._clock, self._worker

        def sink(rec: Any) -> None:
            self.rec.put((next(seq), clock(), worker(), TASK_RECORD, rec.key, rec.life, rec))
            count(rec)

        return sink

    def put_part(self, key: Hashable, life: int, stamps: tuple[Any, ...]) -> None:
        """Append what an incarnation recorded without completing:
        ``stamps`` is ``(created, begin, end, computed, srcs)`` (the cold
        paths' handoff, a :data:`TASK_PART`)."""
        self.rec.put((next(self._count), self._clock(), self._worker(), TASK_PART, key, life,
                      stamps))

    # -- inspection ---------------------------------------------------------------

    def _drain(self) -> list[Event]:
        """Decode whatever was recorded since the last drain onto the end
        of the merged order and return it.  The caller holds ``_lock``.

        A log nobody recorded into since the last drain answers from the
        merged events without copying or sorting anything.  Safe to call
        while workers are still emitting (each buffer is cut at a whole
        record); the result is simply the records delivered so far."""
        if self.capacity is not None:
            # The ring cannot drop a prefix in place, and it is bounded:
            # decode all of it, again only when something was put since.
            if self._ring_at != self._sink.n:
                self._ring_at = self._sink.n
                events: list[Event] = []
                _decode(list(self._shared), events)
                self._merged = _ranked(events, 0)
            return self._merged
        merged = self._merged
        pending = [buf for buf in self._buffers if buf]
        if not pending:
            return merged
        # Cut every buffer first, decode after: emitters keep running, and
        # the narrower the cut the fewer cross-thread stragglers.
        cuts = [len(buf) for buf in pending]
        # Deterministic-merge guard (late worker-span delivery).  New
        # records must extend the drained order; one stamped *inside* it
        # would silently rewrite history for anyone who already read it.
        # Each buffer is in stamp order, so its first pending record
        # decides -- checked before anything is consumed, so the offender
        # stays put and every later read raises too.
        first = min(pending, key=_first_slot)
        if first[0] < self._high:
            raise LateEmitError(
                f"{sum(cuts) // _WIDTH} record(s) put after the merged order was "
                f"observed would reorder the drained prefix (first offender: "
                f"{getattr(first[3], 'value', first[3])} stamped {first[0]}, "
                f"drained up to {self._high})"
            )
        events = []
        for buf, cut in zip(pending, cuts):
            self._high = max(self._high, buf[cut - _WIDTH])  # its latest own stamp
            _decode(buf[:cut], events)
            del buf[:cut]
        self._decoded += sum(cuts) // _WIDTH
        merged.extend(_ranked(events, len(merged)))
        return merged

    @property
    def events(self) -> list[Event]:
        """Snapshot of retained events in merged order."""
        with self._lock:
            return list(self._drain())

    @property
    def total_emitted(self) -> int:
        """Records handed in since the log was opened or cleared."""
        with self._lock:
            if self._buffered:
                return self._decoded + sum(map(len, self._buffers)) // _WIDTH
            return self._sink.n

    @property
    def buffered(self) -> bool:
        """True when emissions take the per-thread buffered path."""
        return self._buffered

    @property
    def dropped(self) -> int:
        """Records lost to the ring buffer (0 for an unbounded log)."""
        if self.capacity is None:
            return 0
        return max(0, self.total_emitted - self.capacity)

    def seal(self) -> None:
        """Close the log: drain once more, then make any further record
        raise :class:`SealedLogError` at the *emit site* (instead of a
        :class:`LateEmitError` at the next drain).  Opt-in -- schedulers
        never seal automatically because legitimate post-run emitters
        exist (e.g. ``repro.detect`` escape accounting)."""
        with self._lock:
            self._drain()
        self.rec = _SEALED

    @property
    def sealed(self) -> bool:
        return self.rec is _SEALED

    def clear(self) -> None:
        """Forget every record, unseal, and restart numbering at seq 0."""
        with self._lock:
            for buf in self._buffers:
                buf.clear()
            self._merged = []
            self._ring_at = self._decoded = 0
            self._high = -1
        # Outside the lock: a fresh recorder registers this thread's
        # buffer under it.
        self._open()

    def __len__(self) -> int:
        """Records retained (see the module docstring: not events)."""
        return self.total_emitted - self.dropped

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def by_kind(self, *kinds: EventKind) -> list[Event]:
        wanted = frozenset(kinds)
        return [e for e in self.events if e.kind in wanted]


def _zero() -> int:
    return 0


def events_in_order(events: Iterable[Event]) -> list[Event]:
    """Events sorted by global sequence number (emission order)."""
    return sorted(events, key=_seq_of)
