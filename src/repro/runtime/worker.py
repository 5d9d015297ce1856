"""Worker side of remote dispatch: one serve loop, one compute context.

:class:`WorkerSession` is the whole worker half of the job protocol
(docs/DISTRIBUTED.md has the message table).  It runs unchanged in a
forked pipe child of ``ProcessRuntime`` and on every connection a
:class:`~repro.runtime.cluster.WorkerServer` accepts (the server, not
the session, decides to heartbeat).  An injected death ends the session
and closes its comm; the session's host decides whether the process
dies too (:data:`CRASH_EXIT_CODE`).

A job names its inputs as ``(block, version)`` or ``(block, version,
payload)``.  Every session **keeps** what it is pushed -- a value as its
one owning copy, a :class:`~repro.memory.shm.ShmDescriptor` as the view
of a segment attached once -- and the outputs it computes, in the
versioned :class:`BlockCache`, so the parent names them by a bare ref
from then on (``runtime/dispatch.py``, "Staging").  A bare ref the cache
misses is resolved by a lazy ``fetch`` round trip to the parent.  Writes
are buffered and applied by the parent, which re-enforces the declared
footprint there.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Callable, Hashable

from repro.comm import frame
from repro.comm.core import CommClosedError
from repro.comm.tcp import SocketComm
from repro.exceptions import OverwrittenError, SchedulerError
from repro.graph.taskspec import BlockRef
from repro.memory.shm import Attachment, ShmDescriptor, attach_payload, own_payload, payload_nbytes

#: Exit code of a process an injected (``die_on``) death ends (tests assert on it).
CRASH_EXIT_CODE = 73

#: Default worker-side block-cache budget.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

#: Input-table marker: declared, but no payload rode the job message.
#: (A shipped payload may itself be ``None``, so ``None`` cannot mark it.)
_LAZY = object()


class BlockCache:
    """Byte-bounded LRU of decoded block payloads, keyed by
    ``(run_token, block, version)``.

    Versioned keys are what make this cache coherent with zero
    invalidation traffic: a version's bytes never change once written
    (determinism, Theorem 1), so an entry can be stale only by
    *absence*, never by content.  That guarantee holds *within* a run;
    across runs the same ``(block, version)`` pair can name different
    data, so entries are additionally scoped by the dispatching
    runtime's ``run token`` -- a long-lived server reused by many runs
    never crosses their payloads.

    Each session holds its run token from :meth:`retain` to
    :meth:`release`; the entries of a token nobody holds are *dead* (no
    session will present it again) and are the first victims of
    :meth:`put`, one per arriving block -- so a server holds its live
    runs, not its history, and a buffer freed is one the next block
    reuses.  A cache nobody retains on is a plain LRU.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()
        #: Entries of released tokens, oldest release first.
        self._dead: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()
        #: Sessions holding each token (channels of one run share a server).
        self._holders: dict[str, int] = {}
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def retain(self, token: str) -> None:
        """One more session presents ``token``; entries it left dead (a
        channel replaced mid-run) are live again."""
        with self._lock:
            held = self._holders.get(token, 0)
            self._holders[token] = held + 1
            if not held:
                _move_scope(token, self._dead, self._entries)

    def release(self, token: str) -> None:
        """A session holding ``token`` ended; the last one out leaves the
        token's entries dead."""
        with self._lock:
            self._holders[token] -= 1
            if not self._holders[token]:
                del self._holders[token]
                _move_scope(token, self._entries, self._dead)

    def get(self, key: tuple) -> tuple[bool, Any]:
        with self._lock:
            try:
                value, _ = self._entries[key]
            except KeyError:
                self.misses += 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            return True, value

    def peek(self, key: tuple) -> Any:
        """The held value or ``None``; not a use (no recency, no counts)."""
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def touch(self, key: tuple, value: Any) -> bool:
        """Whether ``value`` itself is held at ``key``, whose entry becomes
        the most recent (a use, not a counted hit).  Lock-free: each step is
        GIL-atomic, and an entry evicted between them reads as not held."""
        entries = self._entries
        try:
            entries.move_to_end(key)
            return entries[key][0] is value
        except KeyError:
            return False

    def put(self, key: tuple, value: Any, nbytes: int) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            reclaim = bool(self._dead)  # one dead entry per put, budget or no
            while reclaim or (self._bytes > self.capacity_bytes and len(self) > 1):
                _, (_, evicted) = (self._dead or self._entries).popitem(last=False)
                self._bytes -= evicted
                reclaim = False

    @property
    def nbytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries) + len(self._dead)


def _move_scope(token: str, src: OrderedDict, dst: OrderedDict) -> None:
    for key in [k for k in list(src) if k[0] == token]:  # a lock-free touch may reorder src
        dst[key] = src.pop(key)


def _portable_exc(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round-trip, else a summary that
    does (exception classes with required constructor args often pickle
    but fail to *unpickle*)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return SchedulerError(f"worker exception: {type(exc).__name__}: {exc}")


class WorkerContext:
    """The compute context a worker hands to ``spec.compute``."""

    __slots__ = ("key", "jid", "_inputs", "_session", "written", "fetches",
                 "fetch_seconds", "fetch_bytes")

    def __init__(self, session: "WorkerSession", key: Hashable, jid: int, inputs: dict) -> None:
        self.key = key
        self.jid = jid
        self._inputs = inputs
        self._session = session
        self.written: list[tuple[tuple, Any]] = []
        self.fetches = 0
        self.fetch_seconds = 0.0
        self.fetch_bytes = 0

    def read(self, ref: BlockRef) -> Any:
        if type(ref) is not BlockRef:
            ref = BlockRef(*ref)
        try:
            value = self._inputs[ref]
        except KeyError:
            raise SchedulerError(
                f"task {self.key!r} read undeclared input {ref!r} on a worker"
            ) from None
        if value is _LAZY:
            value = self._cached_or_fetched(ref)
        return value

    def _cached_or_fetched(self, ref: BlockRef) -> Any:
        s = self._session
        ck = (s.token, ref.block, ref.version)
        hit, value = s.cache.get(ck)
        if hit:
            return value
        t0 = time.perf_counter()
        s.comm.send(("fetch", self.jid, ref.block, ref.version))
        # The parent may pipeline new ``jobs``/``spec`` frames ahead of
        # the ``data`` reply; they wait in the session backlog, which
        # the serve loop drains before its next recv.
        while True:
            msg = s.comm.recv()
            if msg[0] == "data":
                break
            s.backlog.append(msg)
        self.fetches += 1
        self.fetch_seconds += time.perf_counter() - t0
        payload = msg[3]
        if payload is None:
            raise SchedulerError(f"parent could not serve {ref!r} for task {self.key!r}")
        # Array payloads decode as zero-copy views over the transport
        # buffer.  The cache outlives the buffer's loan, so cache an
        # *owning* copy -- the one copy per fetched block the zero-copy
        # budget allows.
        value, nbytes = s.kept(ref.block, ref.version, payload.load())
        self.fetch_bytes += nbytes
        return value

    def write(self, ref: BlockRef, value: Any) -> None:
        self.written.append((tuple(ref), value))


class WorkerSession:
    """One parent connection served to the end: a spec, then job batches,
    one streamed ``done``/``fail`` reply per job, until ``stop`` or peer
    loss.  The serving thread *is* the compute thread, so none of the
    session state needs a lock.

    ``job_done(payloads, nbytes)`` is called after each successful job
    with what it received, pushed or fetched (the worker server's
    metrics hook).
    """

    def __init__(
        self,
        comm: SocketComm,
        cache: BlockCache,
        job_done: Callable[[int, int], None] | None = None,
    ) -> None:
        self.comm = comm
        self.cache = cache
        self.token = ""
        self._job_done = job_done
        self._spec: Any = None
        #: Frames a fetch wait pulled off the wire ahead of its data reply.
        self.backlog: deque = deque()
        #: Shm segments attached for cached views, open until the session ends.
        self._attachments: list[Attachment] = []

    def serve(self) -> bool:
        """Serve until ``stop`` or peer loss (False) or an injected death
        (True: jobs batched behind the dying one are lost with it,
        exactly like a real crash).  The comm is closed unless the
        session died: then the caller ends it, a process by exiting, so
        that the parent sees the loss only once nothing of the process
        (a server's listener) can still answer a redial."""
        comm = self.comm
        died = False
        try:
            while True:
                msg = self.backlog.popleft() if self.backlog else comm.recv()
                tag = msg[0]
                if tag == "stop":
                    return False
                if tag == "ping":
                    comm.send(("pong",))
                elif tag == "spec":
                    self._spec = pickle.loads(msg[1])
                    self._hold(msg[2])
                elif tag == "jobs":
                    for jid, key, inputs, die, _life in msg[1]:
                        if die:
                            died = True
                            return True
                        self._run_job(jid, key, inputs)
                else:
                    comm.send(("fail", None, SchedulerError(f"unknown message tag {tag!r}")))
        except CommClosedError:
            return False  # parent gone; its liveness policy handles the rest
        finally:
            self._hold("")
            for attachment in self._attachments:
                attachment.close()
            if not died:
                comm.close()

    def _hold(self, token: str) -> None:
        """Make ``token`` the session's cache scope (``""``: none)."""
        if token != self.token:
            if token:
                self.cache.retain(token)
            if self.token:
                self.cache.release(self.token)
            self.token = token

    def _receive(self, inputs: list) -> tuple[dict, int, int]:
        """The job's input table, keeping every pushed payload -- a value
        :meth:`kept`, a descriptor's view cached uncopied -- with bare
        refs left :data:`_LAZY`: ``(table, payloads, bytes)``."""
        table: dict = {}
        count = nbytes = 0
        for block, version, *shipped in inputs:
            if not shipped:
                table[(block, version)] = _LAZY
                continue
            value = shipped[0]
            if isinstance(value, ShmDescriptor):
                try:
                    value, attachment = attach_payload(value)
                except FileNotFoundError:
                    # Unlinked since the descriptor was taken (evicted or
                    # rewritten): the memory-reuse fault of a parent-side read.
                    raise OverwrittenError(block, version, None) from None
                self._attachments.append(attachment)
                n = payload_nbytes(value)
                self.cache.put((self.token, block, version), value, n)
            else:
                value, n = self.kept(block, version, value)
            table[(block, version)] = value
            count += 1
            nbytes += n
        return table, count, nbytes

    def kept(self, block: Hashable, version: int, value: Any) -> tuple[Any, int]:
        """Cache ``value`` under the run token: ``(cached, nbytes)``.  The
        cache outlives a transport buffer's loan and accounts what it
        holds, so an array that does not own its memory (a decoded view,
        a slice of a kernel temporary) is copied -- once per block."""
        value, _ = own_payload(value)
        nbytes = payload_nbytes(value)
        self.cache.put((self.token, block, version), value, nbytes)
        return value, nbytes

    def _run_job(self, jid: int, key: Hashable, inputs: list) -> None:
        """Run one job and stream its reply.

        The parent cannot see where time goes on this side, so the
        worker measures its own phases -- input attach, lazy fetches,
        kernel wall + process-CPU, reply serialization -- and ships the
        numbers back with the result.  Durations only: the two sides do
        not share a clock epoch.  The reply ships out-of-band: the
        transport gathers result arrays straight from their memory.
        """
        spans: dict[str, float] = {}
        try:
            if self._spec is None:
                raise SchedulerError(f"job {key!r} arrived before its task spec")
            t_at = time.perf_counter()
            table, pushed, pushed_bytes = self._receive(inputs)
            ctx = WorkerContext(self, key, jid, table)
            spans["attach"] = time.perf_counter() - t_at
            t_kw = time.perf_counter()
            t_kc = time.process_time()
            self._spec.compute(key, ctx)
            spans["kernel_cpu"] = time.process_time() - t_kc
            spans["kernel"] = time.perf_counter() - t_kw
            spans["fetch"] = ctx.fetch_seconds
            t_sz = time.perf_counter()
            blob = frame.encode_oob(ctx.written)
            spans["serialize"] = time.perf_counter() - t_sz
            reply: tuple = ("done", jid, blob, spans)
            if self._job_done is not None:
                self._job_done(ctx.fetches + pushed, ctx.fetch_bytes + pushed_bytes)
            # A consumer placed here reads these without a transfer.
            for (block, version), value in ctx.written:
                self.kept(block, version, value)
        except Exception as exc:
            reply = ("fail", jid, _portable_exc(exc))
        try:
            self.comm.send_oob(reply)
        except CommClosedError:
            raise
        except Exception:
            # Unpicklable result: say so instead of dying.  If even this
            # cannot ship, the error ends the session and the parent's
            # peer-loss path takes over.
            self.comm.send(
                ("fail", jid, SchedulerError(f"worker reply for task {key!r} failed to serialize"))
            )
