"""Parent side of remote dispatch: one runtime over any worker channel.

:class:`RemoteRuntime` keeps every piece of scheduler state -- task map,
join counters, recovery table, block store -- in the **parent**, exactly
where :class:`~repro.runtime.threadpool.ThreadedRuntime` keeps it;
scheduler frames still run on N parent threads with per-worker deques
and randomized stealing.  Only the *compute phase* (the pure, stateless
kernels of Theorem 1) crosses a channel to a
:class:`~repro.runtime.worker.WorkerSession`.  Schedulers probe the
runtime for :meth:`RemoteRuntime.compute_dispatch` once and call it in
place of ``spec.compute(key, ctx)``.  Per task it

1. reads every declared input from the parent's store -- the
   **fault gate**: corruption flags, checksum mismatches and evictions
   raise *here*, inside the scheduler's existing ``except FaultError``
   recovery path, before anything ships -- and holds the values for the
   duration of the dispatch, so a worker's lazy ``fetch`` is served from
   them;
2. ships a job naming the inputs, with the payloads the staging policy
   puts on the message;
3. writes the returned outputs back through the parent context, so
   footprint enforcement, store versioning and fingerprinting stay
   parent-side and single-owner.

**Staging: push what is not resident.**  Every channel carries a
byte-bounded *residency table* ``(block, version) -> value`` of what its
worker was pushed or computed (every worker session keeps both).
:func:`stage` (under the channel lock, so atomic with outbox order)
ships ``(block, version, payload)`` for an input the table does not hold
*by identity* and the bare ``(block, version)`` otherwise: a block
crosses a channel at most once, with the job that needs it.  Where
workers share the parent's memory, a segment-backed payload travels as
its :class:`~repro.memory.shm.ShmDescriptor`.  Versions are written once
by deterministic kernels (Theorem 1), so a worker-held copy is stale
only by absence; ``corrupt_data`` and re-execution rewrites swap the
stored object, miss by identity and are pushed again.  The table is a
hint: a worker that evicted an entry, or whose job failed before
attaching, resolves the bare ref by the lazy ``fetch`` round trip; a
replaced channel starts with an empty table.

:class:`~repro.runtime.procpool.ProcessRuntime` and
:class:`~repro.runtime.cluster.ClusterRuntime` are this class plus the
three things that genuinely differ: how a channel is opened and
retired, how its silence is judged, and whether its workers share the
parent's memory (:attr:`RemoteRuntime.SHARES_MEMORY`).

**Dispatch is pipelined.**

* *Outstanding-job windows, placed.*  Up to ``inflight`` jobs are in
  flight on one channel, so its worker moves from job to job without
  sleeping on an empty channel.  :class:`ChannelPool` owns the windows
  and picks, among live channels with a free slot, the fewest jobs in
  flight, then (only on a tie) the fewest input bytes the residency
  table does not hold, then the channel released longest ago.
* *Micro-batched sends.*  A submitter appends its job to the channel's
  outbox; the holder of its flusher role ships everything queued
  meanwhile as one ``("jobs", [...])`` message -- flat combining.
* *One reader per channel.*  Workers stream one reply per job.  The
  submitter that takes the channel's free ``reader`` slot reads replies
  for *all* its channel-mates, resolving each under the channel lock;
  the others wait on the channel's condition until theirs lands.  A
  flusher takes the slot only after its sends: a send blocked on a full
  socket must leave a channel-mate free to drain the worker's replies.

**A lost worker is a detected compute-phase fault**, one policy for
both runtimes (:meth:`RemoteRuntime._channel_lost`): process death or a
closed connection (``died``/``closed``), heartbeat silence or a corrupt frame
(``transport``) logs ``WORKER_DOWN`` with that reason and resolves
*every* job in flight on the channel as crashed; each submitter raises
:class:`~repro.exceptions.WorkerCrashError` for its own task and the FT
scheduler re-executes exactly the unfinished jobs through
RECOVERTASKONCE -- replies streamed before the loss are never re-run.
Then the slot's replacement opens (one ``WORKER_DOWN``/``WORKER_UP``
pair and one crash count per death, keyed by the ``die_on``-flagged job
when the death was injected).  A task that kills every worker it runs
on is bounded by the scheduler, not here: each loss costs it a life,
and FT fails the run at the task's life ceiling
(:data:`repro.core.ft.MAX_LIVES`).  The baseline Nabbit scheduler has
no recovery path, and a crash fails the run (faithful to the paper).

The reader of an observed run also computes each job's **queued**
time: a worker runs its channel's jobs in FIFO order, so job *B*
started (approximately) when the reply before it arrived.  ``queued =
clamp(previous_reply_arrival - t_sent, 0, round_trip)`` is how long B
sat behind its channel-mates -- deliberate pipelining backlog, not
dispatch cost -- and attribution subtracts it (``repro.obs.attribution``).
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
import time
from typing import Any, Callable, Hashable, Iterable

from repro.comm import frame
from repro.comm.core import CommClosedError
from repro.comm.tcp import SocketComm
from repro.exceptions import SchedulerError, WorkerCrashError
from repro.graph.taskspec import BlockRef
from repro.memory.shm import payload_nbytes
from repro.obs.events import EventKind, EventLog
from repro.obs.live import MetricsRegistry
from repro.runtime.api import RunResult
from repro.runtime.threadpool import ThreadedRuntime
from repro.runtime.worker import BlockCache

#: Reply-poll granularity of a channel's reader (also each silent-channel
#: liveness check and waiting submitter's abort check interval).
POLL_SECONDS = 0.05

#: Submit gives up if no window slot frees up for this long (pool
#: accounting bug, or every channel wedged without dying).
_ACQUIRE_TIMEOUT_SECONDS = 60.0

#: Job ids, unique per parent process (``next`` on a count is atomic
#: under the GIL -- no lock needed).
_JIDS = itertools.count(1)

#: Reply sentinel: the channel died before this job's reply arrived.
CRASHED = object()

#: Default outstanding-job window per channel.
DEFAULT_INFLIGHT = 2

class PendingJob:
    """One job in flight on a channel: ``reply`` stays ``None`` until the
    channel's reader fills it (or the channel dies and it becomes
    :data:`CRASHED`), always under the channel lock."""

    __slots__ = ("jid", "key", "life", "die", "values", "reply", "t_sent", "queued")

    def __init__(self, jid: int, key: Hashable, life: int, die: bool, values: dict) -> None:
        self.jid = jid
        self.key = key
        self.life = life
        self.die = die
        #: The held input payloads, ``(block, version) -> value``: what a
        #: worker's lazy fetch for this job is served from.
        self.values = values
        self.reply: Any = None
        self.t_sent = 0.0
        self.queued = 0.0


class PipelineChannel:
    """One worker channel: its comm plus the pipelining state.

    ``lock`` (and ``cond``, built on it) guards the mutable bookkeeping,
    the ``reader`` slot and ``flushing`` role included, and is never held
    across a blocking call.  Only the flusher sends jobs; the comm
    serializes whole messages.
    """

    __slots__ = ("comm", "peer", "info", "lock", "cond", "reader", "flushing", "waiting",
                 "outbox", "pending", "resident", "dead", "spec", "last_reply", "load", "freed",
                 "slot")

    def __init__(self, comm: SocketComm, peer: Any, **info: Any) -> None:
        self.comm = comm
        #: What the runtime judges and retires the channel by: the worker
        #: ``Process`` (pipe runtime) or the dialed address (cluster).
        self.peer = peer
        #: The worker's identity as WORKER_DOWN/WORKER_UP report it; a
        #: loss adds its ``reason`` (and the pipe runtime the exit code).
        self.info = info
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        #: The one submitter allowed inside ``comm.poll``/``recv``, or None.
        self.reader: PendingJob | None = None
        #: A submitter is shipping the outbox / submitters wait on ``cond``.
        self.flushing, self.waiting = False, 0
        #: Queued for the next flush: ``(spec, job, msg)`` triples.
        self.outbox: list[tuple[Any, PendingJob, tuple]] = []
        #: jid -> PendingJob for every job sent (or queued) but unresolved.
        self.pending: dict[int, PendingJob] = {}
        #: What the worker was pushed or computed, ``(block, version) ->
        #: value`` (a hint: it may have evicted).
        self.resident = BlockCache()
        self.dead = False
        #: The spec last sent (held: its identity cannot be recycled).
        self.spec: Any = None
        #: Parent-clock arrival time of the most recent reply (queued-time
        #: estimation; None until the first reply).
        self.last_reply: float | None = None
        self.load = self.freed = 0  #: jobs in flight / release stamp (the pool's)
        self.slot = 0  #: the pool slot it fills; its replacement inherits it


class ChannelPool:
    """The live channels and their outstanding-job windows, under one
    lock: where a job runs is a decision, not an accident of reply
    order.  Load comes before locality -- a worker holding every input
    is still one worker, and placing by missing bytes first serialises
    any graph whose kernels outlast its transfers."""

    def __init__(self, window: int) -> None:
        self.window = window
        self.channels: list[PipelineChannel] = []
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._waiting = self._releases = 0

    def add(self, handle: PipelineChannel) -> None:
        with self._lock:
            self.channels.append(handle)
            self._cond.notify(self.window)

    def remove(self, handle: PipelineChannel) -> None:
        with self._lock:
            if handle in self.channels:
                self.channels.remove(handle)

    def acquire(self, values: dict, aborted: Callable[[], bool]) -> PipelineChannel:
        """Take a window slot for a job reading ``values``, waiting for one."""
        deadline = None
        with self._lock:
            while True:
                best, tied = None, False
                for h in self.channels:
                    if h.dead or h.load >= self.window:
                        continue
                    if best is None or h.load < best.load:
                        best, tied = h, False
                    elif h.load == best.load:
                        tied = True
                if best is not None:
                    break
                if aborted():
                    raise SchedulerError("run aborted while waiting for a worker channel")
                now = time.perf_counter()
                deadline = deadline or now + _ACQUIRE_TIMEOUT_SECONDS
                if now > deadline:  # pragma: no cover - pool accounting bug
                    raise SchedulerError("no worker channel became available within 60s")
                self._waiting += 1
                self._cond.wait(0.25)  # verify: ok=blocking-under-lock (the wait releases _lock, which _cond is built on)
                self._waiting -= 1
            if tied:
                least = best.load
                best = min((h for h in self.channels if h.load == least and not h.dead),
                           key=lambda h: (_missing_bytes(h, values), h.freed))
            best.load += 1
            return best

    def release(self, handle: PipelineChannel) -> None:
        with self._lock:
            handle.load -= 1
            self._releases += 1
            handle.freed = self._releases
            if self._waiting:
                self._cond.notify()


def _missing_bytes(handle: PipelineChannel, values: dict) -> int:
    """What staging a job reading ``values`` there would push: bytes
    the channel's residency table does not hold by identity."""
    table = handle.resident
    return sum(payload_nbytes(v) for ref, v in values.items() if table.peek(ref) is not v)


def stage(handle: PipelineChannel, values: dict, describe: Callable | None = None) -> list:
    """A job's wire inputs on ``handle`` (call under its lock): the bare
    ``(block, version)`` for an input the residency table holds by
    identity, else ``(block, version, payload)``, entered into the table;
    the payload is ``describe(ref)`` (a shm descriptor) or the value.
    A hit is a use: the table stays LRU, like the worker's cache."""
    touch = handle.resident.touch
    return [ref if touch(ref, value) else _push(handle, ref, value, describe)
            for ref, value in values.items()]


def _push(handle: PipelineChannel, ref: tuple, value: Any, describe: Callable | None) -> tuple:
    handle.resident.put(ref, value, payload_nbytes(value))
    desc = describe(BlockRef(*ref)) if describe is not None else None
    return (*ref, value if desc is None else desc)


class RemoteRuntime(ThreadedRuntime):
    """Work-stealing thread pool whose compute phases run on remote
    workers, with pipelined batched dispatch.  Subclasses provide:

    * ``_open_channel(index)`` -- open a channel for pool slot ``index``,
      at bring-up and for a lost channel's replacement alike;
    * ``_retire(handle)`` -- runtime-specific farewell, at pool shutdown
      (``stop`` is already sent; the comm is closed afterwards) and on
      loss (``handle.info["reason"]`` says how it was lost);
    * ``_silent_reason(handle)`` -- liveness verdict for a channel that
      owes replies but stays quiet.

    ``die_on`` is an iterable of task keys; the first dispatch of each
    makes its worker die *before* computing.  One-shot per key: the
    recovered task's re-dispatch runs normally.
    """

    #: Whether workers map the parent's shm segments (push descriptors).
    #: Never on a dialed channel: a worker on another host cannot attach,
    #: and its ``FileNotFoundError`` would read as a memory-reuse fault.
    SHARES_MEMORY = False

    def __init__(
        self,
        workers: int,
        seed: int | None,
        event_log: EventLog | None,
        metrics: MetricsRegistry | None,
        die_on: Iterable[Hashable] | None,
        channels: int | None,
        inflight: int,
    ) -> None:
        super().__init__(workers, seed, event_log, metrics=metrics)
        self._die_on = set(die_on or ())
        self._die_lock = threading.Lock()
        self._pool_lock = threading.Lock()
        self._channels = max(1, workers if channels is None else channels)
        self._pool = ChannelPool(max(1, inflight))
        #: ``(spec, pickle)``, matched by identity: an ``id()`` is reused.
        self._spec_pickled: tuple[Any, bytes] | None = None
        self._crashes = 0
        # Scopes worker-side cache entries to one pool (one run): a
        # long-lived worker server must never serve one run's bytes to
        # another run's identically-named block version.
        self._run_token = ""
        if metrics is not None:
            # Pre-built instruments: the dispatch hot path must never pay
            # registry lookup/label work, only a cached-flag test + observe.
            self._dispatch_hist = metrics.histogram(
                "repro_dispatch_seconds",
                "full remote compute round trip (queue wait + ship + kernel + reply)",
            )
            self._crash_counter = metrics.counter(
                "repro_worker_crashes_total", "workers lost mid-dispatch and replaced"
            )
            self._fetch_counter = metrics.counter(
                "repro_comm_fetches_total", "block payloads shipped, pushed or fetched"
            )
            self._fetch_bytes = metrics.counter(
                "repro_comm_fetch_bytes_total", "payload bytes shipped, pushed or fetched"
            )
            self._spec_bytes = metrics.counter("repro_comm_spec_bytes_total", "spec bytes sent")

    @property
    def worker_crashes(self) -> int:
        """Workers lost mid-dispatch (and replaced)."""
        return self._crashes

    # -- subclass hooks ---------------------------------------------------------

    def _open_channel(self, index: int) -> PipelineChannel:
        raise NotImplementedError

    def _retire(self, handle: PipelineChannel) -> None:
        raise NotImplementedError

    def _silent_reason(self, handle: PipelineChannel) -> str | None:
        raise NotImplementedError

    # -- pool lifecycle ---------------------------------------------------------

    def execute(self, root: Callable[[], None]) -> RunResult:
        # Open the pool while the calling thread is the only live thread:
        # forking after the scheduler threads exist risks inheriting locks
        # (import lock, allocator locks) mid-acquisition.
        self._ensure_pool()
        try:
            return super().execute(root)
        finally:
            self._shutdown_pool()

    def _ensure_pool(self) -> None:
        # Not the channel list: it is empty while a lone channel is replaced.
        if self._run_token:
            return
        with self._pool_lock:
            if self._run_token:
                return
            self._run_token = f"{os.getpid():x}.{id(self):x}.{time.monotonic_ns():x}"
            handles = [
                self._open_channel(i)  # verify: ok=blocking-under-lock (cold path: pool is built before any scheduler thread exists to contend)
                for i in range(self._channels)
            ]
            for i, h in enumerate(handles):
                h.slot = i
                self._pool.add(h)

    def _shutdown_pool(self) -> None:
        with self._pool_lock:
            handles, self._pool = self._pool.channels, ChannelPool(self._pool.window)
            self._spec_pickled, self._run_token = None, ""
        for h in handles:
            try:
                h.comm.send(("stop",))
            except CommClosedError:
                pass
        for h in handles:
            self._retire(h)
            h.comm.close()

    # -- the dispatch seam ------------------------------------------------------

    def compute_dispatch(self, spec: Any, key: Hashable, ctx: Any, life: int = 0) -> None:
        """Run ``spec.compute(key, ...)`` on a remote worker.

        Called by the schedulers in place of a direct ``spec.compute``;
        raises the same :class:`~repro.exceptions.FaultError` family a
        local compute would, plus :class:`WorkerCrashError` when the
        worker is lost mid-task.  ``life`` is the incarnation being
        computed -- it only attributes telemetry (SPAN events), never
        scheduling decisions.
        """
        obs = self._log is not None
        mx = self._mx
        t0 = self._log.now() if obs else (time.perf_counter() if mx else 0.0)
        plans = getattr(spec, "plans", None)
        if plans is not None:
            refs = plans[key].inputs
        else:  # a bare spec (inputs + compute only), driven without a scheduler
            refs = [r if type(r) is BlockRef else BlockRef(*r) for r in spec.inputs(key)]
        # Every read goes through the fault gate (the store's: the refs are declared).
        store = ctx.store
        read = store.read
        values = {(ref.block, ref.version): read(ref) for ref in refs}
        die = False
        if self._die_on:
            with self._die_lock:
                if key in self._die_on:
                    self._die_on.discard(key)
                    die = True
        job = PendingJob(next(_JIDS), key, life, die, values)
        describe = getattr(store, "descriptor", None) if self.SHARES_MEMORY else None
        handle, reply = self._dispatch_job(spec, job, describe)
        if reply[0] == "fail":
            raise reply[2]  # FaultError -> scheduler recovery
        _, _, blob, spans = reply
        # Result arrays are views over the transport buffer.
        written = blob.load()
        if obs:
            log = self._log
            end = log.now()
            # Worker-measured phases (durations only; foreign clock); the
            # lazy fetches are inside the kernel ...
            log.emit(EventKind.SPAN, key, life, phase="attach", wall=spans.get("attach", 0.0))
            log.emit(EventKind.SPAN, key, life, phase="fetch", wall=spans.get("fetch", 0.0))
            log.emit(EventKind.SPAN, key, life, phase="kernel",
                     wall=spans.get("kernel", 0.0), cpu=spans.get("kernel_cpu", 0.0))
            log.emit(EventKind.SPAN, key, life, phase="serialize",
                     wall=spans.get("serialize", 0.0))
            # ... the parent-estimated time this job sat behind its
            # channel-mates (pipelining backlog, not dispatch cost) ...
            if job.queued > 0.0:
                log.emit(EventKind.SPAN, key, life, phase="queued", wall=job.queued)
            # ... and the parent-measured full round trip on the log clock.
            log.emit(EventKind.SPAN, key, life, phase="dispatch", wall=end - t0, t0=t0)
        if mx:
            self._dispatch_hist.observe(
                (self._log.now() if obs else time.perf_counter()) - t0
            )
        # The worker kept its outputs; the table holds what the store now
        # does (a shm store rebuilds it over a fresh segment), not the reply.
        for reftup, value in written:
            ref = BlockRef(*reftup)
            ctx.write(ref, value)
            held = store.peek(ref)
            handle.resident.put(reftup, held, payload_nbytes(held))

    def _spec_blob(self, spec: Any) -> bytes:
        held = self._spec_pickled
        if held is None or held[0] is not spec:
            held = self._spec_pickled = (spec, pickle.dumps(spec))
        if self._mx:  # one call, one announcement
            self._spec_bytes.inc(len(held[1]))
        return held[1]

    def _shipped(self, handle: PipelineChannel, job: PendingJob, block: Hashable,
                 version: int, nbytes: int, mode: str) -> None:
        """Account one payload put on the wire, pushed with its job or
        served to a fetch (absence of a FETCH for a read is the hit)."""
        if self._log is not None:
            self._log.emit(EventKind.FETCH, job.key, job.life, block=block,
                           version=version, nbytes=nbytes, mode=mode, **handle.info)
        if self._mx:
            self._fetch_counter.inc()
            self._fetch_bytes.inc(nbytes)

    # -- submit -----------------------------------------------------------------

    def _dispatch_job(
        self, spec: Any, me: PendingJob, describe: Callable | None
    ) -> tuple[PipelineChannel, Any]:
        """Ship one job and block until its reply: ``(channel, reply)``.

        One channel-lock section stages, queues, and takes the flusher role
        if free, else the reader slot if free: the push-or-ref decision is
        atomic with outbox order, so a payload or descriptor always reaches
        the worker before any bare ref naming it.
        """
        self._ensure_pool()
        while True:
            handle = self._pool.acquire(me.values, self.aborted)
            try:
                with handle.lock:
                    if handle.dead:
                        continue  # it died since the pick: pick again
                    inputs = stage(handle, me.values, describe)
                    handle.pending[me.jid] = me
                    handle.outbox.append((spec, me, (me.jid, me.key, inputs, me.die, me.life)))
                    batch = None if handle.flushing else handle.outbox
                    if batch is not None:
                        handle.flushing, handle.outbox = True, []
                    elif handle.reader is None:  # never both roles: see the module doc
                        handle.reader = me
                try:
                    if self._mx or self._log is not None:
                        for b, v, payload in (i for i in inputs if len(i) == 3):
                            self._shipped(handle, me, b, v, payload_nbytes(payload), "push")
                    if batch is not None:
                        self._flush(handle, batch, me)
                except BaseException:  # leave no role for later jobs to wait on
                    with handle.lock:
                        handle.pending.pop(me.jid, None)
                        if batch is not None:
                            handle.flushing = False
                        if handle.reader is me:
                            handle.reader = None
                        handle.cond.notify_all()
                    raise
                reply = self._await_pipelined(handle, me)
            finally:
                self._pool.release(handle)
            if reply is CRASHED:
                raise WorkerCrashError(
                    me.key, pid=handle.info.get("pid"), exitcode=handle.info.get("exitcode")
                )
            return handle, reply

    # -- the combining send path ------------------------------------------------

    def _flush(self, handle: PipelineChannel, batch: list, me: PendingJob) -> None:
        """Ship ``batch``, then what was queued meanwhile, holding the flusher
        role; the section that finds the outbox empty drops the role and
        takes the reader slot for ``me`` if it is free."""
        while True:
            now = time.perf_counter() if self._log is not None else 0.0
            msgs: list[tuple] = []
            try:
                for spec, job, msg in batch:
                    if handle.spec is not spec:
                        if msgs:
                            self._ship_jobs(handle, msgs)
                            msgs = []
                        handle.comm.send(("spec", self._spec_blob(spec), self._run_token))
                        handle.spec = spec
                    job.t_sent = now
                    msgs.append(msg)
                self._ship_jobs(handle, msgs)
            except CommClosedError:
                self._channel_lost(handle, "closed")
                return
            with handle.lock:
                batch, handle.outbox = handle.outbox, []
                if not batch:
                    handle.flushing = False
                    if handle.reader is None and me.reply is None and not handle.dead:
                        handle.reader = me
                    return

    def _ship_jobs(self, handle: PipelineChannel, msgs: list[tuple]) -> None:
        # One OOB message per burst: inline payloads in the job tuples
        # ship as scattered buffer segments, never re-pickled.
        handle.comm.send_oob(("jobs", msgs))

    # -- the receive path: one reader per channel -------------------------------

    def _await_pipelined(self, handle: PipelineChannel, me: PendingJob) -> Any:
        """Block until ``me`` resolves, reading the channel whenever its
        reader slot is free; a reader leaving a dead channel closes it."""
        while True:
            if handle.reader is not me:  # only this thread sets or clears its own claim
                with handle.cond:
                    if me.reply is not None:
                        return me.reply
                    if self.aborted():
                        handle.pending.pop(me.jid, None)
                        raise SchedulerError(
                            f"run aborted while task {me.key!r} awaited a worker reply"
                        )
                    if handle.reader is not None or handle.dead:
                        handle.waiting += 1
                        handle.cond.wait(POLL_SECONDS)
                        handle.waiting -= 1
                        continue
                    handle.reader = me
            try:
                self._read_channel(handle, me)
            finally:
                if handle.reader is me:  # left without its own reply
                    with handle.lock:
                        handle.reader = None
                        dead = handle.dead
                        handle.cond.notify_all()
                    if dead:
                        handle.comm.close()
            if me.reply is not None:
                return me.reply

    def _read_channel(self, handle: PipelineChannel, me: PendingJob) -> None:
        """Read replies for every job in flight on ``handle`` until our
        own resolves or the channel is lost.  Runs in the reader slot and
        outside every lock: we are the only thread inside the comm."""
        comm = handle.comm
        while me.reply is None and not handle.dead:
            try:
                if comm.poll(POLL_SECONDS):
                    self._route_reply(handle, comm.recv())
                    continue
            except CommClosedError:
                self._channel_lost(handle, "closed")
                return
            except frame.FrameError:  # corrupt framing; a bad pickle is not retried
                self._channel_lost(handle, "transport")
                return
            reason = self._silent_reason(handle)
            if reason is not None:
                try:
                    if comm.poll(0):  # a final reply raced the death
                        self._route_reply(handle, comm.recv())
                        continue
                except (CommClosedError, frame.FrameError):
                    pass
                self._channel_lost(handle, reason)
                return
            if self.aborted():
                return

    def _route_reply(self, handle: PipelineChannel, msg: tuple) -> None:
        tag = msg[0]
        if tag == "fetch":
            self._serve_fetch(handle, msg)
            return
        if tag not in ("done", "fail"):
            return  # late echo from a dying worker; never actionable
        with handle.lock:
            p = handle.pending.pop(msg[1], None)
            if p is None:
                return  # reply for a job resolved another way (late, post-crash)
            if p.t_sent:  # stamped: the run is observed
                now = time.perf_counter()
                prev, handle.last_reply = handle.last_reply, now
                if prev is not None:
                    # The worker runs this channel's jobs in FIFO order, so this
                    # job started when the reply before it arrived: everything
                    # between t_sent and then is pipelining backlog, not cost.
                    p.queued = min(max(0.0, prev - p.t_sent), now - p.t_sent)
            p.reply = msg
            if p is handle.reader:  # the reader leaves with its own reply
                handle.reader = None
            if handle.waiting:
                handle.cond.notify_all()

    def _serve_fetch(self, handle: PipelineChannel, msg: tuple) -> None:
        """Serve a worker's lazy ``fetch`` from the dispatching job's held
        values (runs in the channel's reader)."""
        _, jid, block, version = msg
        with handle.lock:
            p = handle.pending.get(jid)
        payload = None
        if p is not None and (block, version) in p.values:
            payload = frame.encode_oob(p.values[(block, version)])
            self._shipped(handle, p, block, version, payload.nbytes, "fetch")
        try:
            handle.comm.send_oob(("data", block, version, payload))
        except CommClosedError:
            self._channel_lost(handle, "closed")

    # -- channel loss -----------------------------------------------------------

    def _channel_lost(self, handle: PipelineChannel, reason: str) -> None:
        """Exactly-once handling of a lost channel: retire it, log the
        death, resolve every in-flight job as crashed (recovery starts on
        the surviving channels), then open its slot's replacement.  One
        closer: closing under a reader would free its descriptor for the
        replacement, and it would block on a channel not its own."""
        with handle.lock:
            if handle.dead:
                return
            handle.dead = True
            pending = list(handle.pending.values())
            handle.pending.clear()
            handle.outbox = []
            unread = handle.reader is None
        if unread:  # else the reader closes it as it leaves the slot
            handle.comm.close()
        self._pool.remove(handle)
        handle.info["reason"] = reason
        # Outside the pool lock, like the replacement below: reaping a
        # corpse or dialing can take seconds, and every other thread that
        # loses a worker meanwhile must not pile up behind it.
        self._retire(handle)
        with self._pool_lock:
            self._crashes += 1
        if self._mx:
            self._crash_counter.inc()
        if self._log is not None:  # before a crashed submitter resumes
            # The injected death names its victim.
            down_key = next((p.key for p in pending if p.die),
                            pending[0].key if pending else None)
            self._log.emit(EventKind.WORKER_DOWN, down_key, 0, **handle.info)
        with handle.lock:
            for p in pending:
                p.reply = CRASHED
            handle.cond.notify_all()
        fresh = self._open_channel(handle.slot)
        fresh.slot = handle.slot
        if self._log is not None:  # before anyone can place a job on it
            self._log.emit(EventKind.WORKER_UP, None, 0, **fresh.info)
        self._pool.add(fresh)
