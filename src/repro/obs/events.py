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

* **Low overhead when off.**  Schedulers and runtimes hold a
  :data:`NULL_LOG` by default and guard every emission with a cached
  ``log is not NULL_LOG`` identity check, so a fault-free benchmark run
  pays one local boolean test per would-be event.
* **Cheap when on: the hot path records, the read path decodes.**  An
  emission appends one fixed-width flat record ``(seq, t, worker, kind,
  key, life, data-or-None)`` to a list with a single ``list.extend`` --
  no :class:`Event`, no lock, and for an event without ``data`` no
  surviving allocation the cyclic collector would have to traverse.
  ``extend`` is one C-level call, atomic under the GIL, so a reader
  never sees part of a record.  :class:`Event` objects are built once,
  incrementally, when the log is *read*: each read decodes only the
  records appended since the previous one and releases them as it goes.
* **One way in: the recorder.**  Every record enters through
  ``log.rec.put(record)``.  For a buffered log ``rec`` is a
  :class:`threading.local` subclass whose ``__init__`` runs once per
  thread: it registers a fresh buffer and binds ``put`` to that
  buffer's ``extend``, so there is no per-event thread lookup.  It is
  given the buffer registry and the lock, never the log: a
  ``threading.local`` keeps its constructor arguments, and a log ->
  recorder -> log cycle would keep each run's decoded events alive
  until a full collection.  ``emit``/``emit_at`` are one-liners over
  ``rec.put``; the schedulers' per-task and per-edge sites skip even
  that frame and its kwargs dict: they bind ``(seq, clock, worker)``
  from :meth:`EventLog.stamps` once and write the record themselves,
  the kind a module constant (an ``Enum`` member read costs several
  global loads) -- four C or Python calls per event instead of five.
  :meth:`EventLog.seal` swaps in a recorder whose ``put`` raises, so
  the sealed check costs nothing per event, and :meth:`EventLog.clear`
  restarts numbering without replacing the counter a site bound.
* **Low contention when on.**  An unbounded log appends to *per-thread
  buffers*; ordering comes from a shared sequence counter whose
  ``next()`` is a single GIL-atomic operation.  The buffers are merged
  back into one totally-ordered sequence -- by that counter, never by
  timestamp (the simulator emits with non-monotone virtual times) --
  when the log is read, which analysis and replay only do at
  quiescence.  The merged order is exactly the order a single-lock log
  would have recorded: the counter linearizes emissions, and any
  cross-thread happens-before edge (lock release -> acquire on a task
  record) orders the corresponding ``next()`` calls.
* **Worker attribution and timestamps come from the runtime.**  Each
  runtime exposes ``obs_now()`` (virtual time on the simulator,
  wall-clock seconds since ``execute()`` on the threaded runtime,
  accumulated charge inline) and ``obs_worker()``; the log binds to them
  via :meth:`EventLog.bind_runtime`.
* **Incarnations are distinguishable.**  Every task-scoped event carries
  the task key *and* its life number, so a recovered task's second
  incarnation never aliases its first.
* **Bounded memory on demand.**  ``EventLog(capacity=n)`` keeps only the
  most recent ``n`` events in a ring buffer (``dropped`` counts the
  rest; between reads up to ``n`` undecoded records sit beside the
  ``n`` decoded events); eviction needs a global view, so capacity logs
  append their records to one shared ring under a lock.  The default is
  unbounded, which is what the replay/consistency machinery in
  :mod:`repro.obs.replay` requires.  ``EventLog(buffered=False)`` forces
  the single-lock append on an unbounded log -- the reference that the
  buffered-log parity tests compare against.  All three modes write the
  same record format and are read through the same decoder.
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
    """A compute worker *process* died mid-task (ProcessRuntime); the
    dispatch surfaces as a WorkerCrashError on the key it was running."""
    WORKER_UP = "worker_up"
    """A replacement compute worker *process* joined the pool
    (ProcessRuntime); ``data['pid']`` carries the new pid.  Pairs with
    WORKER_DOWN so pool-health timelines can show both transitions."""
    CONNECT = "connect"
    """A comm channel to a remote worker was established
    (ClusterRuntime); ``data['addr']`` names the peer address."""
    DISCONNECT = "disconnect"
    """A comm channel to a remote worker was lost -- closed, severed, or
    heartbeat-silent; ``data['addr']`` names the peer and
    ``data['reason']`` says how it died.  Usually followed by a
    WORKER_DOWN for the task the connection was carrying."""
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
_first_slot = operator.itemgetter(0)

#: Slots per raw record: ``(seq, t, worker, kind, key, life, data-or-None)``
#: -- the positional signature of :class:`Event`.
_WIDTH = 7


def _decode(buf: list[Any], todo: int, base: int = 0) -> list[Event]:
    """Consume the first ``todo`` slots of ``buf`` (whole records) and
    return them as :class:`Event` objects, in order, their seq counted
    from ``base``.

    Safe on a buffer its owner thread is still extending: only the slots
    counted before the call are read, and each decoded block leaves the
    front of the list in one atomic slice deletion.  Decoding in eight
    blocks keeps at most an eighth of a long buffer alive in both forms
    at once -- raw records are released as their events come to life,
    not after."""
    events: list[Event] = []
    if base:
        buf[0:todo:_WIDTH] = [seq - base for seq in itertools.islice(buf, 0, todo, _WIDTH)]
    block = max(todo // (8 * _WIDTH), 1024) * _WIDTH
    while todo:
        n = min(block, todo)
        slots = itertools.islice(buf, n)
        events.extend(map(Event, slots, slots, slots, slots, slots, slots, slots))
        del buf[:n]
        todo -= n
    return events


class LateEmitError(RuntimeError):
    """An emission arrived after the merged total order was already
    observed *and* would have to be inserted before its end.

    The buffered log's merge is only stable if every new event extends
    the previously drained prefix.  An event whose sequence number falls
    inside that prefix (a worker thread that kept emitting after
    quiescence was declared) would silently reorder history for any
    consumer that drained twice -- so the next drain raises instead."""


class SealedLogError(RuntimeError):
    """An emission arrived after :meth:`EventLog.seal` closed the log."""


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
    shared buffer, extended under the log's lock.  ``put`` renumbers the
    record's seq in lock order, so readers (and the ring's eviction) see
    exactly the order in which records landed."""

    __slots__ = ("buf", "lock", "n")

    def __init__(self, buf: deque[Any] | list[Any], lock: threading.Lock) -> None:
        self.buf = buf
        self.lock = lock
        self.n = 0
        """Records put since the log was opened or cleared (drops included)."""

    def put(self, record: tuple[Any, ...]) -> None:
        with self.lock:
            self.buf.extend((self.n, *record[1:]))
            self.n += 1


def _refuse(record: tuple[Any, ...]) -> None:
    raise SealedLogError(f"emit({record[3].value}) on a sealed EventLog")


#: The recorder :meth:`EventLog.seal` swaps in: every ``put`` raises.
_SEALED = SimpleNamespace(put=_refuse)


class EventLog:
    """Append-only, thread-safe event collector bound to a runtime clock.

    Every emission appends one flat record (see the module docstring)
    through :attr:`rec`; :class:`Event` objects exist only once the log
    has been read.  Unbounded logs (the default) are *buffered*: each
    emitting thread extends its own list, and the only shared state an
    emission touches is ``next()`` on an :func:`itertools.count` -- a
    single C-level call that is atomic under the GIL and therefore a
    linearization point.  Merging the buffers by that sequence number at
    read time reconstructs exactly the total order a single-lock log
    would have produced.  Capacity-bounded logs and ``buffered=False``
    extend one shared buffer under the lock instead.
    """

    enabled = True
    """Emission guard: hot paths cache ``log is not NULL_LOG`` (or read
    this flag) before building an event.  Always True here; the
    :class:`NullEventLog` overrides it."""

    rec: Any
    """The recorder: ``rec.put((seq, t, worker, kind, key, life,
    data-or-None))`` records one event.  Read it off the log at every
    emission: ``seal`` and ``clear`` replace it."""

    def __init__(self, capacity: int | None = None, buffered: bool = True) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self._buffered = buffered and capacity is None
        self._lock = threading.Lock()
        # One counter for the log's lifetime, so a site that bound it
        # never strands: ``clear`` restarts numbering by moving ``_base``,
        # the seq the decoder reads back as 0 (buffered logs only; the
        # locked sink numbers records itself).
        self._count = itertools.count()
        self._base = 0
        # Raw records not yet decoded.  Buffered: one list per emitting
        # thread, registered by the recorder.  Otherwise the one shared
        # buffer -- a ring of ``capacity`` records when bounded.
        self._shared: deque[Any] | list[Any]
        self._shared = deque(maxlen=capacity * _WIDTH) if capacity is not None else []
        self._buffers: list[Any]
        # Decoded events in emission order; only ``_drain`` appends.
        self._merged: deque[Event] | list[Event]
        self._merged = deque(maxlen=capacity) if capacity is not None else []
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
        """``(seq, clock, worker)`` for a site that writes through
        :attr:`rec` itself: ``rec.put((next(seq), clock(), worker(),
        kind, key, life, data))`` records what ``emit`` would.  Bind them
        after :meth:`bind_runtime`; ``seq`` stays valid across
        :meth:`clear`."""
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

    # -- inspection ---------------------------------------------------------------

    def _drain(self) -> deque[Event] | list[Event]:
        """Decode whatever was recorded since the last drain onto the end
        of the merged order and return it.  The caller holds ``_lock``.

        A log nobody emitted into since the last drain answers from the
        merged events without copying or sorting anything.  Safe to call
        while workers are still emitting (each buffer is cut at a whole
        record); the result is simply the events delivered so far."""
        merged = self._merged
        pending = [buf for buf in self._buffers if buf]
        if not pending:
            return merged
        if self.capacity is not None:
            # The ring cannot drop a prefix in place, and it is bounded.
            pending = [list(self._shared)]
            self._shared.clear()
        # Cut every buffer first, decode after: emitters keep running, and
        # the narrower the cut the fewer cross-thread stragglers.
        cuts = [len(buf) for buf in pending]
        if merged:
            # Deterministic-merge guard (late worker-span delivery).  New
            # events must extend the drained order; one whose seq falls
            # *inside* it would silently rewrite history for anyone who
            # already read it.  Each buffer is in seq order, so its first
            # pending record decides -- checked before anything is
            # consumed, so the offender stays put and every later read
            # raises too.
            first = min(pending, key=_first_slot)
            if first[0] - self._base < merged[-1].seq:
                raise LateEmitError(
                    f"{sum(cuts) // _WIDTH} event(s) emitted after the merged "
                    f"order was observed would reorder the drained prefix "
                    f"(first offender: {first[3].value} seq={first[0] - self._base}, "
                    f"drained max seq={merged[-1].seq})"
                )
        runs = [_decode(buf, cut, self._base) for buf, cut in zip(pending, cuts)]
        merged.extend(runs[0] if len(runs) == 1 else sorted(itertools.chain(*runs), key=_seq_of))
        return merged

    @property
    def events(self) -> list[Event]:
        """Snapshot of retained events in emission order."""
        with self._lock:
            return list(self._drain())

    @property
    def total_emitted(self) -> int:
        with self._lock:
            if self._buffered:
                return len(self._merged) + sum(map(len, self._buffers)) // _WIDTH
            return self._sink.n

    @property
    def buffered(self) -> bool:
        """True when emissions take the per-thread buffered path."""
        return self._buffered

    @property
    def dropped(self) -> int:
        """Events lost to the ring buffer (0 for an unbounded log)."""
        if self.capacity is None:
            return 0
        return max(0, self.total_emitted - self.capacity)

    def seal(self) -> None:
        """Close the log: drain once more, then make any further emission
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
        """Forget every event, unseal, and restart numbering at seq 0."""
        with self._lock:
            for buf in self._buffers:
                buf.clear()
            self._merged.clear()
            if self._buffered:
                self._base = next(self._count) + 1
        # Outside the lock: a fresh recorder registers this thread's
        # buffer under it.
        self._open()

    def __len__(self) -> int:
        return self.total_emitted - self.dropped

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def by_kind(self, *kinds: EventKind) -> list[Event]:
        wanted = frozenset(kinds)
        return [e for e in self.events if e.kind in wanted]


class NullEventLog(EventLog):
    """The disabled log: every emission is a no-op.

    Schedulers/runtimes hold this by default so fault-free benchmark runs
    pay only an identity/flag check (and not even that where call sites
    cache the check, which all hot paths do)."""

    enabled = False

    def __init__(self) -> None:  # noqa: D107 - trivially inherits
        super().__init__()

    def emit(self, kind: EventKind, key: Hashable = None, life: int = 0, **data: Any) -> None:
        return None

    def emit_at(
        self, kind: EventKind, t: float, worker: int, key: Hashable = None, life: int = 0, **data: Any
    ) -> None:
        return None


def _zero() -> int:
    return 0


#: Shared disabled log; identity-comparable (``log is NULL_LOG``).
NULL_LOG = NullEventLog()


def events_in_order(events: Iterable[Event]) -> list[Event]:
    """Events sorted by global sequence number (emission order)."""
    return sorted(events, key=_seq_of)
