"""Work-stealing execution runtimes.

The scheduler (``repro.core``) is written against a tiny
:class:`~repro.runtime.api.ExecutionContext` surface -- ``spawn`` a frame,
``charge`` virtual cost -- and therefore runs unchanged on every runtime:

* :class:`~repro.runtime.inline.InlineRuntime` -- serial LIFO stack;
  the reference executor for unit tests and P=1 measurements.
* :class:`~repro.runtime.simulator.SimulatedRuntime` -- a deterministic
  discrete-event simulation of P workers with per-worker deques and
  randomized stealing, in *virtual time* driven by a
  :class:`~repro.runtime.costmodel.CostModel`.  This is the substitute for
  the paper's 48-core Cilk++ testbed (see DESIGN.md): the scheduling
  protocol is identical, only time is virtual.
* :class:`~repro.runtime.threadpool.ThreadedRuntime` -- real ``threading``
  workers with the same deque/steal protocol, used to stress the
  scheduler's synchronization under genuine interleaving (the GIL
  serializes the pure-Python bookkeeping, so this stresses races, not
  scalability).
* :class:`~repro.runtime.dispatch.RemoteRuntime` -- the threaded
  runtime with compute phases dispatched to remote workers running
  :class:`~repro.runtime.worker.WorkerSession`: GIL-free execution with
  wall-clock makespans; a lost worker surfaces as a recoverable
  compute-phase fault.  Two subclasses open its channels:
  :class:`~repro.runtime.procpool.ProcessRuntime` forks same-host
  workers over pipes and a shared-memory block store;
  :class:`~repro.runtime.cluster.ClusterRuntime` dials
  :class:`~repro.runtime.cluster.WorkerServer` processes
  (``tcp://host:port`` or in-process ``inproc://``), which keep the
  block payloads they are pushed and the outputs they compute, cached
  by version, so a block crosses a channel at most once.

Frames follow the Cilk discipline the paper's pseudocode assumes: a frame
never blocks; ``spawn(fn, *args)`` pushes the tuple ``(fn, args)`` -- one
C-level op, no frame object and no closure -- to the bottom of the
spawning worker's deque, and a worker runs it as ``fn(*args)``; owners
pop bottom (LIFO), thieves steal top (FIFO).  ``execute(root)`` runs the
callable ``root()`` as the first frame.
"""

from repro.runtime.api import ExecutionContext, RunResult, Runtime
from repro.runtime.cluster import ClusterRuntime, WorkerServer
from repro.runtime.costmodel import CostModel
from repro.runtime.deque import WorkDeque
from repro.runtime.inline import InlineRuntime
from repro.runtime.procpool import ProcessRuntime
from repro.runtime.simulator import SimulatedRuntime
from repro.runtime.threadpool import ThreadedRuntime

__all__ = [
    "ExecutionContext",
    "RunResult",
    "Runtime",
    "CostModel",
    "WorkDeque",
    "ClusterRuntime",
    "InlineRuntime",
    "ProcessRuntime",
    "WorkerServer",
    "SimulatedRuntime",
    "ThreadedRuntime",
]
