"""Process-pool runtime: real multi-core execution of compute phases.

:class:`ProcessRuntime` is :class:`~repro.runtime.dispatch.RemoteRuntime`
over forked same-host workers: each channel is a ``pipe_pair`` whose
child end runs the shared :class:`~repro.runtime.worker.WorkerSession`,
so kernels execute on real cores with no GIL in the way.

What is specific to a same-host channel:

* **Opening and replacing.**  The pool forks (where available) at the
  top of ``execute()``, while the calling thread is still the only
  thread, and is torn down when the run quiesces.  A dead worker is
  reaped (``WORKER_DOWN`` carries its pid and exit code) and a fresh
  child forked in its place.
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
from typing import Any, Hashable, Iterable

from repro.comm.pipe import pipe_pair, wrap_connection
from repro.obs.events import EventLog
from repro.obs.live import MetricsRegistry
from repro.runtime.dispatch import DEFAULT_INFLIGHT, PipelineChannel, RemoteRuntime
from repro.runtime.worker import CRASH_EXIT_CODE, BlockCache, WorkerSession

__all__ = ["CRASH_EXIT_CODE", "DEFAULT_INFLIGHT", "ProcessRuntime"]


def _worker_main(raw_conn: Any) -> None:
    """Entry point of a worker process: serve the inherited pipe end."""
    WorkerSession(wrap_connection(raw_conn, peer="pipe://parent"), BlockCache()).serve()


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
        available (cheap, inherits the imported kernels) else ``spawn``.
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

    def _open_channel(self, index: int = 0) -> PipelineChannel:
        parent_comm, child_comm = pipe_pair(self._mp)
        proc = self._mp.Process(
            target=_worker_main,
            args=(child_comm.connection,),
            daemon=True,
            name="repro-compute",
        )
        proc.start()
        child_comm.close()
        return PipelineChannel(parent_comm, proc, pid=proc.pid)

    def _replace_channel(self, dead: PipelineChannel, reason: str) -> PipelineChannel:
        dead.peer.join(timeout=1.0)
        dead.info["exitcode"] = dead.peer.exitcode
        return self._open_channel()

    def _retire(self, handle: PipelineChannel) -> None:
        proc = handle.peer
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=1.0)

    def _silent_reason(self, handle: PipelineChannel) -> str | None:
        return None if handle.peer.is_alive() else "died"
