"""Real-thread work-stealing executor.

Runs the identical scheduler code on genuine :mod:`threading` workers with
per-worker :class:`~repro.runtime.deque.WorkDeque`\\ s and randomized
stealing.  The GIL serializes the *scheduler bookkeeping* (pure-Python
frame dispatch, map/lock traffic), so bookkeeping-bound graphs see no
multicore speedup here -- though NumPy/BLAS kernels release the GIL
during compute, so kernel-bound graphs can overlap.  This runtime's
primary job is to *stress-test* the fault-tolerant scheduler's
synchronization -- task locks, atomic join-counter protocol, concurrent
recovery races -- under true nondeterministic interleavings; for
GIL-free multicore compute use
:class:`~repro.runtime.procpool.ProcessRuntime` (see
docs/PERFORMANCE.md for choosing between them).  Virtual ``charge``
calls are ignored; ``makespan`` is wall-clock seconds.

Observability: pass ``event_log=EventLog()`` to record steal and
park/unpark events; the runtime also provides worker attribution
(``obs_worker``) and a run-relative wall clock (``obs_now``) to any log
bound to it, and always reports per-worker frame/steal/busy breakdowns
in :class:`~repro.runtime.api.RunResult`.  Pass
``metrics=MetricsRegistry()`` for *live* telemetry: the runtime
registers pull-based gauges (per-worker busy time and frame counts,
queue depths, outstanding frames) that ``registry.collect()`` (the
``python -m repro top`` redraw) or the ``/metrics`` endpoint samples
while the run is in flight.

Exceptions escaping a frame are scheduler bugs (detected faults are caught
inside the scheduler): the pool shuts down and re-raises the first one.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable

from repro.obs.events import EventKind, EventLog
from repro.obs.live import MetricsRegistry
from repro.runtime.api import RunResult
from repro.runtime.deque import WorkDeque

#: Safety net of an idle worker's wait.  Every event that ends an idle
#: episode notifies (a spawn, the last frame, a failure), so this bounds
#: only what a lost wake-up could cost: it degrades to polling, never to
#: a hang.
_PARK_TIMEOUT_SECONDS = 0.05


class ThreadedRuntime:
    """Work-stealing thread pool executing frames to quiescence."""

    #: Frames genuinely race: trace counters must stay lock-protected.
    concurrent_frames = True

    def __init__(
        self,
        workers: int = 4,
        seed: int | None = None,
        event_log: EventLog | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self._workers = workers
        self._seed = seed
        self._log = event_log
        #: Live telemetry registry, or None (off): instruments are built
        #: only when it is set.
        self._metrics = metrics
        #: Cached publication guard (the metrics twin of the schedulers'
        #: ``_obs``): hot paths test this bool, never the registry.
        self._mx = metrics is not None
        self._local = threading.local()
        self._deques: list[WorkDeque[tuple[Callable[..., None], tuple]]] = []
        self._outstanding = 0
        self._count_lock = threading.Lock()
        self._failure: BaseException | None = None
        self._failure_lock = threading.Lock()
        self._stop = threading.Event()
        #: Idle workers wait here; ``_parked`` (written under it) is how
        #: many, so ``spawn`` pays one int test when nobody does.
        self._cond = threading.Condition()
        self._parked = 0
        self._running = False
        self._steals = 0
        self._frames = 0
        self._parks = 0
        self._worker_frames: list[int] = []
        self._worker_steals: list[int] = []
        self._worker_busy: list[float] = []
        # Anchor the observability clock at construction: the scheduler may
        # emit events (e.g. task_created for the sink) before execute()
        # starts, and per-worker timestamps must stay monotonic across that
        # boundary.
        self._t0 = time.perf_counter()

    @property
    def workers(self) -> int:
        return self._workers

    # -- observability surface ------------------------------------------------------

    def obs_now(self) -> float:
        """Wall-clock seconds since the runtime was created."""
        return time.perf_counter() - self._t0

    def obs_worker(self) -> int:
        """Id of the worker the calling thread belongs to (0 outside)."""
        wid = getattr(self._local, "wid", None)
        return 0 if wid is None else wid

    # -- ExecutionContext surface ---------------------------------------------------

    def spawn(self, fn: Callable[..., None], *args: Any, label: str = "") -> None:
        wid = getattr(self._local, "wid", None)
        if wid is None:
            raise RuntimeError("spawn called from outside a worker thread")
        with self._count_lock:
            self._outstanding += 1
        self._deques[wid].push_bottom((fn, args))
        if self._parked:
            with self._cond:
                self._cond.notify()

    def charge(self, amount: float) -> None:
        """Virtual cost is meaningless on the wall clock; ignored."""

    def aborted(self) -> bool:
        """True once the run is tearing down after a scheduler failure.

        Set only on the worker-exception path (a scheduler bug, never a
        recovered task fault).  The pipelined dispatch path polls this so
        threads blocked waiting for a worker channel or a remote reply
        unwind instead of waiting out their full timeouts.
        """
        return self._stop.is_set()

    # -- driver ----------------------------------------------------------------------

    def execute(self, root: Callable[[], None]) -> RunResult:
        if self._running:
            raise RuntimeError("ThreadedRuntime is not reentrant")
        self._running = True
        if self._log is not None:
            self._log.bind_runtime(self)
        self._deques = [WorkDeque() for _ in range(self._workers)]
        self._outstanding = 1
        self._failure = None
        self._stop.clear()
        self._steals = 0
        self._frames = 0
        self._parks = 0
        self._worker_frames = [0] * self._workers
        self._worker_steals = [0] * self._workers
        self._worker_busy = [0.0] * self._workers
        if self._metrics is not None:
            self._register_live_gauges(self._metrics)
        self._deques[0].push_bottom((root, ()))
        started = time.perf_counter()
        threads = [
            threading.Thread(target=self._worker, args=(w,), name=f"repro-worker-{w}", daemon=True)
            for w in range(self._workers)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            self._running = False
        if self._failure is not None:
            raise self._failure
        makespan = time.perf_counter() - started
        if self._log is not None:
            # The run's budget window on the log clock: attribution
            # measures each worker's thread start/stop latency as the gap
            # between this span and its worker_loop span.
            self._log.emit(EventKind.SPAN, phase="run", wall=makespan,
                           t0=started - self._t0)
        return RunResult(
            makespan=makespan,
            frames=self._frames,
            steals=self._steals,
            workers=self._workers,
            busy_time=list(self._worker_busy),
            worker_frames=list(self._worker_frames),
            worker_steals=list(self._worker_steals),
            parks=self._parks,
        )

    def _register_live_gauges(self, mxr: MetricsRegistry) -> None:
        """Publish pull-based gauges for state the run already maintains.

        Everything here is a :class:`~repro.obs.live.CallbackGauge` read
        only when ``registry.collect()`` (a redraw or a scrape) samples
        it -- the worker loop is never taxed for a value somebody else
        can read.
        """
        mxr.gauge("repro_workers", "configured pool width").set(self._workers)
        mxr.callback_gauge(
            "repro_outstanding_frames",
            lambda: self._outstanding,
            "frames spawned but not yet executed",
        )
        mxr.callback_gauge(
            "repro_run_elapsed_seconds",
            self.obs_now,
            "wall-clock seconds since the runtime was created",
        )
        for w in range(self._workers):
            mxr.callback_gauge(
                "repro_worker_busy_seconds",
                lambda w=w: self._worker_busy[w],
                "cumulative frame-execution wall time per worker",
                worker=w,
            )
            mxr.callback_gauge(
                "repro_worker_frames",
                lambda w=w: self._worker_frames[w],
                "frames executed per worker",
                worker=w,
            )
            mxr.callback_gauge(
                "repro_queue_depth",
                lambda w=w: len(self._deques[w]),
                "work-deque depth per worker",
                worker=w,
            )

    def _wake_all(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def _worker(self, wid: int) -> None:
        self._local.wid = wid
        rng = random.Random(None if self._seed is None else self._seed * 0x9E3779B1 + wid)
        my = self._deques[wid]
        log = self._log
        obs = log is not None
        mx = self._mx
        worker_busy = self._worker_busy
        worker_frames = self._worker_frames
        local_frames = 0
        local_steals = 0
        local_parks = 0
        local_busy = 0.0
        idle = False
        # Worker-loop span: everything between here and loop exit is the
        # worker either running frames (busy), parked, or *finding work*
        # (pop/steal probes, count checks, GIL waits between frames).
        # Attribution subtracts busy + parked from this span to measure
        # that third, otherwise-invisible cost.
        t_loop0 = log.now() if obs else 0.0
        try:
            while not self._stop.is_set():
                frame = my.pop_bottom()
                if frame is None and self._workers > 1:
                    victim = rng.randrange(self._workers - 1)
                    if victim >= wid:  # uniform over the *other* workers
                        victim += 1
                    vdeque = self._deques[victim]
                    frame = vdeque.steal_top()
                    if frame is not None:
                        local_steals += 1
                        if obs:
                            log.emit(EventKind.STEAL, victim=victim, depth=len(vdeque))
                if frame is None:
                    with self._count_lock:
                        if self._outstanding == 0:
                            break
                    if not idle:
                        idle = True
                        local_parks += 1
                        if obs:
                            log.emit(EventKind.PARK)
                    with self._cond:
                        self._parked += 1
                        # A spawner that read ``_parked`` as 0 pushed before
                        # the increment above, so this check sees its frame.
                        if not (self._stop.is_set() or self._outstanding == 0
                                or any(self._deques)):
                            self._cond.wait(_PARK_TIMEOUT_SECONDS)
                        self._parked -= 1
                    continue
                if idle:
                    idle = False
                    if obs:
                        log.emit(EventKind.UNPARK)
                fn, args = frame
                started = time.perf_counter()
                try:
                    fn(*args)
                finally:
                    local_busy += time.perf_counter() - started
                    local_frames += 1
                    if mx:
                        # Single writer per index; a GIL-atomic list store
                        # is the whole cost of live per-worker telemetry
                        # (loop exit writes the final values either way).
                        worker_busy[wid] = local_busy
                        worker_frames[wid] = local_frames
                    with self._count_lock:
                        self._outstanding -= 1
                        done = self._outstanding == 0
                    if done:
                        self._wake_all()  # parked workers see outstanding == 0 and exit
        except BaseException as exc:  # scheduler bug: fail the whole run
            with self._failure_lock:
                if self._failure is None:
                    self._failure = exc
            self._stop.set()
            self._wake_all()
        finally:
            if obs:
                log.emit(EventKind.SPAN, phase="worker_loop",
                         wall=log.now() - t_loop0, t0=t_loop0)
            with self._count_lock:
                self._frames += local_frames
                self._steals += local_steals
                self._parks += local_parks
                self._worker_frames[wid] = local_frames
                self._worker_steals[wid] = local_steals
                self._worker_busy[wid] = local_busy
