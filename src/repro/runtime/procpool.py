"""Process-pool runtime: real multi-core execution of compute phases.

:class:`ProcessRuntime` is :class:`~repro.runtime.dispatch.RemoteRuntime`
over forked same-host workers: each channel is a ``pipe_pair`` whose
child end runs the shared :class:`~repro.runtime.worker.WorkerSession`,
so kernels execute on real cores with no GIL in the way.

What is specific to a same-host channel:

* **Opening and retiring.**  The pool forks (where available) at the
  top of ``execute()``, while the calling thread is still the only
  thread, and is torn down when the run quiesces.  A retired worker is
  reaped, at shutdown and on loss alike (``WORKER_DOWN`` carries its pid
  and exit code); ``RemoteRuntime`` then forks the replacement through
  ``_open_channel``.  A forked worker first closes its copies
  of every other pipe end the parent held, its own channel's parent
  end included, so the parent's death reaches it as EOF and it exits.
  It inherits the parent's imports: an app's module imports what its
  kernels need (scipy only for LU and Cholesky), so a forked worker never
  imports on a task's path and a fork costs no more than its run uses.
* **Silence.**  A quiet channel is dead iff its process is.
* **Staging.**  A worker shares the parent's memory
  (:attr:`ProcessRuntime.SHARES_MEMORY`), so an input backed by a
  shared-memory segment is pushed as its zero-copy
  :class:`~repro.memory.shm.ShmDescriptor`, which the worker attaches
  once and keeps; small blocks and blocks of stores without the shm
  backend are pushed by value.  Either way a block is pushed to a
  worker at most once and named by a bare ref from then on, exactly as
  on a cluster channel (``runtime/dispatch.py``, "Staging").

``charge`` stays a no-op: this runtime lives on the wall clock.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Hashable, Iterable

from repro.comm.pipe import pipe_pair, wrap_connection
from repro.obs.events import EventLog
from repro.obs.live import MetricsRegistry
from repro.runtime.dispatch import DEFAULT_INFLIGHT, PipelineChannel, RemoteRuntime
from repro.runtime.worker import CRASH_EXIT_CODE, BlockCache, WorkerSession

__all__ = ["CRASH_EXIT_CODE", "DEFAULT_INFLIGHT", "ProcessRuntime"]


def _worker_main(raw_conn: Any, inherited: Iterable[Any]) -> None:
    """Entry point of a worker process: close the other channel ends a
    fork copied in, then serve the inherited pipe end; an injected
    death exits the process."""
    for conn in tuple(inherited):
        if conn is not raw_conn:
            conn.close()
    if WorkerSession(wrap_connection(raw_conn, peer="pipe://parent"), BlockCache()).serve():
        os._exit(CRASH_EXIT_CODE)


class ProcessRuntime(RemoteRuntime):
    """Work-stealing thread pool whose compute phases run in a pool of
    persistent worker processes over shared memory.

    Parameters beyond :class:`ThreadedRuntime`'s:

    ``die_on``
        Iterable of task keys; the first dispatch of each makes its
        worker process exit immediately (``os._exit``) *before*
        computing -- real process-death fault injection.  One-shot per
        key: the recovered task's re-dispatch runs normally.
    ``start_method``
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheap, inherits the imported kernels) else ``spawn``,
        whose worker imports them when it unpickles the spec.
    ``procs``
        Worker-process count; defaults to ``workers`` (one per scheduler
        thread).  With pipelining, fewer processes than threads still
        keeps every core busy: up to ``inflight`` threads feed each
        process.
    ``inflight``
        Outstanding-job window per worker process (K jobs in flight
        before a dispatching thread must wait for a reply slot).
    """

    SHARES_MEMORY = True

    def __init__(
        self,
        workers: int = 4,
        seed: int | None = None,
        event_log: EventLog | None = None,
        die_on: Iterable[Hashable] | None = None,
        start_method: str | None = None,
        metrics: MetricsRegistry | None = None,
        procs: int | None = None,
        inflight: int = DEFAULT_INFLIGHT,
    ) -> None:
        super().__init__(workers, seed, event_log, metrics, die_on, procs, inflight)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._mp = multiprocessing.get_context(start_method)
        #: Both ends of every pipe this runtime holds open.  A forked
        #: worker closes its copies of all but its own child end: while
        #: any process holds a channel's parent end, that channel's
        #: worker never sees EOF, and would outlive a killed parent.  A
        #: parent end leaves the set only once closed (a lost channel's
        #: reader closes it after its replacement forks).
        self._ends: set[Any] = set()

    def _open_channel(self, index: int = 0) -> PipelineChannel:
        parent_comm, child_comm = pipe_pair(self._mp)
        # In place: a concurrent replacement's fork reads this very set.
        self._ends.difference_update([end for end in tuple(self._ends) if end.fileno() < 0])
        self._ends.update((parent_comm.connection, child_comm.connection))
        forked = self._mp.get_start_method() == "fork"
        proc = self._mp.Process(
            target=_worker_main,
            # A forked child reads the set after the fork: every end open
            # at that moment.  A spawned child inherits none to close.
            args=(child_comm.connection, self._ends if forked else ()),
            daemon=True,
            name="repro-compute",
        )
        proc.start()
        child_comm.close()
        self._ends.discard(child_comm.connection)
        return PipelineChannel(parent_comm, proc, pid=proc.pid)

    def _retire(self, handle: PipelineChannel) -> None:
        # Stopped, dead or dying, a worker exits; behind a corrupt stream it lives on.
        proc = handle.peer
        if handle.info.get("reason") == "transport":
            proc.terminate()
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=1.0)
        handle.info["exitcode"] = proc.exitcode

    def _silent_reason(self, handle: PipelineChannel) -> str | None:
        return None if handle.peer.is_alive() else "died"
