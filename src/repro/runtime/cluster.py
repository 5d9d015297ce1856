"""Cluster runtime: compute phases executed by remote worker servers.

:class:`ClusterRuntime` is :class:`~repro.runtime.dispatch.RemoteRuntime`
over dialed channels: each channel is a ``repro.comm`` connection to a
:class:`WorkerServer` (``python -m repro worker --listen tcp://...``, or
an ``inproc://`` server in this process), which serves it with the
shared :class:`~repro.runtime.worker.WorkerSession`.

What is specific to a dialed channel:

* **Opening and retiring.**  One dial loop opens every channel, a
  replacement included: each round pings every address once, from the
  slot's own round-robin address on, so a severed server gets its
  channel back and a dead one costs a refused dial, with backoff only
  between rounds.  ``DISCONNECT`` (with the loss reason, or
  ``shutdown``) precedes ``WORKER_DOWN``; ``CONNECT`` precedes ``WORKER_UP``.
* **Silence.**  Every worker server heartbeats, an in-process one too;
  ``heartbeat_timeout`` seconds without a byte from a worker that owes a
  reply is peer loss even when the kernel never delivers an RST.
* **Staging.**  Exactly the pipe runtime's, minus shared memory: an
  input its worker does not hold rides the job message by value
  (``FETCH`` event, ``mode="push"``), one it was pushed before or
  computed itself is a bare ``(block, version)`` ref read from its
  byte-bounded :class:`~repro.runtime.worker.BlockCache`, and a ref it
  has since evicted is fetched lazily (``mode="fetch"``), the one
  blocking round trip left in the data plane.  Store versions are
  written once and kernels are deterministic, so the versioned key
  makes the cache trivially coherent -- a re-executed producer
  regenerates bit-identical bytes, and an *evicted* version faults
  parent-side before dispatch, so a stale entry can never be asked for
  a version the store would refuse.

``die_on`` ends the worker's session *before* it computes, closing its
connection; a server process then exits with ``os._exit(73)`` (genuine
process death, indistinguishable from ``kill -9``), while an
``inproc://`` server, which has no process of its own, loses only the
connection (the yanked-cable case).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Hashable, Iterable

from repro.comm.core import CommClosedError, connect, listen, retry_rounds
from repro.comm.tcp import SocketComm
from repro.exceptions import SchedulerError
from repro.obs.events import NULL_LOG, EventKind, EventLog
from repro.obs.live import MetricsRegistry
from repro.runtime.dispatch import (
    DEFAULT_INFLIGHT,
    PipelineChannel,
    RemoteRuntime,
)
from repro.runtime.worker import CRASH_EXIT_CODE, DEFAULT_CACHE_BYTES, BlockCache, WorkerSession

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "BlockCache",
    "ClusterRuntime",
    "WorkerServer",
]

#: Parent-side liveness policy: a worker connection that stays byte-silent
#: this long while owing a reply is declared dead.  Workers heartbeat
#: every HEARTBEAT_INTERVAL_SECONDS (0.25 s), so the default tolerates
#: ~8 consecutive missed beats; see docs/DISTRIBUTED.md for tuning.
DEFAULT_HEARTBEAT_TIMEOUT = 2.0

#: Rounds of the dial loop before opening a channel gives up; each tries
#: every address once, with jittered backoff only between rounds.
DIAL_ROUNDS = 8


class WorkerServer:
    """A compute server: listens on an address and serves every inbound
    connection with a :class:`~repro.runtime.worker.WorkerSession`.

    One server handles any number of parent connections (each on its own
    handler thread); the block cache is shared across them.  Run one per
    node with ``python -m repro worker --listen tcp://HOST:PORT``.
    """

    def __init__(
        self,
        listen_addr: str,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._listen_addr = listen_addr
        self.cache = BlockCache(cache_bytes)
        self._listener: Any = None
        self._stopped = threading.Event()
        self._mx = metrics is not None
        if metrics is not None:
            self._jobs_counter = metrics.counter(
                "repro_worker_jobs_total", "compute phases executed by this worker server"
            )
            self._fetch_counter = metrics.counter(
                "repro_comm_fetches_total", "block payloads received, pushed or fetched"
            )
            self._fetch_bytes = metrics.counter(
                "repro_comm_fetch_bytes_total", "payload bytes received, pushed or fetched"
            )
            metrics.callback_gauge(
                "repro_worker_cache_bytes",
                lambda: float(self.cache.nbytes),
                "bytes resident in the versioned block cache",
            )
            metrics.callback_gauge(
                "repro_worker_cache_entries",
                lambda: float(len(self.cache)),
                "entries resident in the versioned block cache",
            )

    @property
    def address(self) -> str:
        """The concrete bound address (kernel-assigned port filled in)."""
        if self._listener is None:
            raise SchedulerError("WorkerServer.address read before start()")
        return self._listener.address

    def start(self) -> "WorkerServer":
        self._listener = listen(self._listen_addr, self._serve_connection)
        return self

    def close(self) -> None:
        self._stopped.set()
        if self._listener is not None:
            self._listener.close()

    def wait(self) -> None:
        """Block until :meth:`close` (the ``repro worker`` CLI's main loop)."""
        self._stopped.wait()

    def _serve_connection(self, comm: SocketComm) -> None:
        comm.start_heartbeat()  # the parent watches for these beats
        died = WorkerSession(comm, self.cache, self._job_done).serve()
        # An in-process server has no process of its own to lose.
        if died and not self._listen_addr.startswith("inproc://"):
            os._exit(CRASH_EXIT_CODE)

    def _job_done(self, payloads: int, nbytes: int) -> None:
        if self._mx:
            self._jobs_counter.inc()
            if payloads:
                self._fetch_counter.inc(payloads)
                self._fetch_bytes.inc(nbytes)


class ClusterRuntime(RemoteRuntime):
    """Work-stealing thread pool whose compute phases run on remote
    :class:`WorkerServer` processes reached through ``repro.comm``.

    Parameters beyond :class:`ThreadedRuntime`'s:

    ``addresses``
        Worker-server addresses (``tcp://host:port`` or an
        ``inproc://name`` server in this process).  Channels are
        assigned round-robin; every dial, a lost channel's replacement
        included, tries its slot's address first, then the others.
    ``die_on``
        Iterable of task keys; the first dispatch of each kills its
        worker (process death on TCP, a closed connection on inproc).
        One-shot per key, exactly like ``ProcessRuntime``'s.
    ``heartbeat_timeout``
        Seconds of byte-silence after which a connection owing a
        reply is declared dead; ``None``
        disables the check and trusts transport-level EOF alone.
    ``channels``
        Connection count; defaults to ``workers`` (one per scheduler
        thread).
    ``inflight``
        Outstanding-job window per channel (K jobs in flight before a
        dispatching thread must wait for a reply slot).
    """

    def __init__(
        self,
        workers: int = 4,
        seed: int | None = None,
        event_log: EventLog | None = None,
        addresses: Iterable[str] | None = None,
        die_on: Iterable[Hashable] | None = None,
        metrics: MetricsRegistry | None = None,
        heartbeat_timeout: float | None = DEFAULT_HEARTBEAT_TIMEOUT,
        channels: int | None = None,
        inflight: int = DEFAULT_INFLIGHT,
    ) -> None:
        super().__init__(workers, seed, event_log, metrics, die_on, channels, inflight)
        self._addresses = list(addresses or ())
        if not self._addresses:
            raise ValueError("ClusterRuntime needs at least one worker address")
        self._hb_timeout = heartbeat_timeout

    def _open_channel(self, index: int) -> PipelineChannel:
        k = index % len(self._addresses)
        last: Exception | None = None
        for _ in retry_rounds(DIAL_ROUNDS):
            for addr in self._addresses[k:] + self._addresses[:k]:
                try:
                    return self._dial(addr)
                except CommClosedError as exc:
                    last = exc
        raise SchedulerError(f"no worker address answered in {DIAL_ROUNDS} rounds: {last}")

    def _dial(self, addr: str) -> PipelineChannel:
        comm = connect(addr)
        # A completed TCP handshake is not proof of a live server: the
        # kernel accepts into a dying process's listen backlog right up
        # to FD teardown.  A connection counts only once a handler
        # thread has answered a ping.
        try:
            comm.send(("ping",))
            reply = comm.recv(timeout=10.0)
        except (CommClosedError, TimeoutError) as exc:
            comm.close()
            raise CommClosedError(f"worker at {addr} accepted but never answered: {exc}")
        if reply != ("pong",):  # pragma: no cover - protocol bug
            comm.close()
            raise CommClosedError(f"worker at {addr} answered ping with {reply!r}")
        if self._log is not NULL_LOG:
            self._log.emit(EventKind.CONNECT, None, 0, addr=addr)
        return PipelineChannel(comm, addr, addr=addr)

    def _retire(self, handle: PipelineChannel) -> None:
        if self._log is not NULL_LOG:
            reason = handle.info.get("reason", "shutdown")
            self._log.emit(EventKind.DISCONNECT, None, 0, addr=handle.peer, reason=reason)

    def _silent_reason(self, handle: PipelineChannel) -> str | None:
        if self._hb_timeout is not None and handle.comm.idle_seconds() > self._hb_timeout:
            return "heartbeat"
        return None
