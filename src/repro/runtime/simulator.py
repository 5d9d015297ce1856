"""Deterministic discrete-event simulation of randomized work stealing.

This runtime is the reproduction's substitute for the paper's 48-core
Cilk++ testbed.  It executes frames *for real* (all side effects happen in
process) but schedules them among ``P`` virtual workers in virtual time:

* each worker owns a deque; spawns are *published* to the bottom of the
  spawning worker's deque at the spawning frame's completion time; owners
  pop bottom (LIFO), thieves steal top (FIFO);
* the worker with the smallest clock acts next, and a thief may only take
  a frame whose publication time has passed -- so in the virtual timeline
  no frame ever starts before the frame that spawned it completed.  Since
  the scheduler publishes a task's ``Computed`` status and successor
  notifications from a frame spawned *after* the compute frame (see
  ``repro.core``), data dependences are respected in virtual time;
* an idle worker probes uniformly random victims.  Runs of failed probes
  are batched by sampling the attempt count from the matching geometric
  distribution (capped at the next scheduled event so cross-worker state
  stays fresh).  A worker with nothing to steal *parks*; each publication
  wakes up to as many parked workers as frames were published, at the
  publication time -- modelling thieves that were spinning until work
  appeared, without simulating every probe.

Costs come from a :class:`~repro.runtime.costmodel.CostModel`; frames
accumulate additional charges (task compute cost, lock/atomic overheads)
through :meth:`SimulatedRuntime.charge` while they run.

Determinism: given the same seed, frame set, and charges, the simulation
is bit-for-bit reproducible -- the property the figure harness relies on
for error bars driven purely by seeds.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from typing import Any, Callable

from repro.obs.events import EventKind, EventLog
from repro.runtime.api import RunResult
from repro.runtime.costmodel import CostModel

_INF = float("inf")


class SimulatedRuntime:
    """Virtual-time work-stealing executor over ``P`` simulated workers.

    The driver loop is the single hottest function in the repo (every
    figure-harness point executes it millions of times), so it is written
    in deliberately flat style: hot globals and attributes bound to
    locals, cost-model fields hoisted out of the loop, the spawn buffer
    reused across frames, and a heap fast path that keeps a worker
    running its own deque without a push+pop round-trip whenever it
    strictly precedes every other scheduled event (strict inequality
    preserves tie-breaking, so results stay bit-for-bit identical).
    """

    STEAL_POLICIES = ("random", "round_robin", "richest")

    #: Virtual concurrency only -- frames execute serially in the driver
    #: thread, so schedulers may unlock trace bumps (``assume_serial``).
    concurrent_frames = False

    __slots__ = (
        "_workers",
        "cost_model",
        "seed",
        "record_timeline",
        "steal_policy",
        "timeline",
        "_log",
        "_running",
        "_accum",
        "_spawn_buffer",
        "_spawn_cost",
        "_pending",
        "_current_worker",
        "_frame_start",
    )

    def __init__(
        self,
        workers: int = 1,
        cost_model: CostModel | None = None,
        seed: int = 0,
        record_timeline: bool = False,
        steal_policy: str = "random",
        event_log: EventLog | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if steal_policy not in self.STEAL_POLICIES:
            raise ValueError(
                f"unknown steal policy {steal_policy!r}; expected one of "
                f"{self.STEAL_POLICIES}"
            )
        self._workers = workers
        self.cost_model = cost_model or CostModel()
        self.seed = seed
        self.record_timeline = record_timeline
        self.steal_policy = steal_policy
        """Victim selection: ``random`` (uniform probing -- the ABP
        protocol NABBIT's bounds assume), ``round_robin`` (deterministic
        scan from the thief's id), or ``richest`` (an omniscient
        longest-deque oracle -- an upper-bound comparator, not
        implementable on real hardware without global state)."""
        self.timeline: list[tuple[float, float, int, str]] = []
        self._log = event_log
        self._running = False
        self._accum = 0.0
        self._spawn_buffer: list[tuple] = []  # (fn, args, label)
        self._spawn_cost = self.cost_model.spawn_cost
        self._pending = 0
        self._current_worker = 0
        self._frame_start = 0.0

    @property
    def workers(self) -> int:
        return self._workers

    # -- observability surface ------------------------------------------------------

    def obs_now(self) -> float:
        """Virtual time inside the currently executing frame: the frame's
        start instant plus the charges it has accumulated so far."""
        return self._frame_start + self._accum

    def obs_worker(self) -> int:
        """Virtual worker the current frame is attributed to."""
        return self._current_worker

    # -- schedule decision points --------------------------------------------------

    def _choose_victim(self, rng: random.Random, stealable: list[int]) -> int:
        """Index into ``stealable`` of the victim a random-policy steal
        takes.  This is the simulator's one genuinely free interleaving
        choice (owners always pop their own bottom), so it is factored out
        as an overridable decision point: ``repro.verify.explore`` derives
        a runtime that enumerates alternatives here to explore the
        schedule space systematically."""
        return rng.randrange(len(stealable))

    # -- ExecutionContext surface (valid only while a frame runs) -----------------

    def spawn(self, fn: Callable[..., None], *args: Any, label: str = "") -> None:
        if not self._running:
            raise RuntimeError("spawn called outside execute()")
        self._spawn_buffer.append((fn, args, label))
        self._accum += self._spawn_cost

    def charge(self, amount: float) -> None:
        self._accum += amount

    # -- driver --------------------------------------------------------------------

    def execute(self, root: Callable[[], None]) -> RunResult:
        if self._running:
            raise RuntimeError("SimulatedRuntime is not reentrant")
        self._running = True
        try:
            return self._run(root)
        finally:
            self._running = False

    def _run(self, root: Callable[[], None]) -> RunResult:
        cm = self.cost_model
        P = self._workers
        log = self._log
        obs = log is not None
        if obs:
            log.bind_runtime(self)
        rng = random.Random(self.seed)
        # Hot bindings: every name the per-frame path touches is a local.
        heappush = heapq.heappush
        heappop = heapq.heappop
        frame_overhead = cm.frame_overhead
        steal_cost = cm.steal_cost
        failed_steal_cost = cm.failed_steal_cost
        self._spawn_cost = cm.spawn_cost
        policy = self.steal_policy
        policy_rr = policy == "round_robin"
        policy_rich = policy == "richest"
        rec_tl = self.record_timeline
        # Deques hold (publication_time, (fn, args, label)); publication
        # times within a deque are nondecreasing because the owner pushes
        # at successive frame-completion instants.  The root's label is
        # "root": execute() takes a bare callable.
        deques: list[deque[tuple[float, tuple]]] = [deque() for _ in range(P)]
        deques[0].append((0.0, (root, (), "root")))
        self._pending = 1
        clocks = [0.0] * P
        busy = [0.0] * P
        heap: list[tuple[float, int, int]] = [(0.0, w, w) for w in range(P)]
        seq = P
        parked: list[int] = []  # kept sorted for deterministic sampling
        makespan = 0.0
        frames = 0
        steals = 0
        failed_steals = 0
        parks = 0
        worker_frames = [0] * P
        worker_steals = [0] * P
        self.timeline = []
        timeline = self.timeline
        buf = self._spawn_buffer
        buf.clear()  # a frame that raised on a previous run may have left spawns

        def wake(count: int, at: float) -> None:
            nonlocal seq
            for _ in range(min(count, len(parked))):
                i = rng.randrange(len(parked))
                pw = parked.pop(i)
                clocks[pw] = max(clocks[pw], at)
                if obs:
                    log.emit_at(EventKind.UNPARK, max(clocks[pw], at), pw)
                heappush(heap, (clocks[pw], seq, pw))
                seq += 1

        # ``carry`` short-circuits the heappush/heappop round-trip: when the
        # finishing worker still has local work and its completion instant
        # *strictly* precedes every scheduled event, the pop would return the
        # entry just pushed (strictness matters -- on a time tie the earlier
        # pushed entry wins by seq, so ties must go through the heap).  Wake
        # pushes happen at >= end with later seqs and so never outrank the
        # carried worker either; results are bit-for-bit unchanged.
        carry = -1
        while self._pending > 0:
            if carry >= 0:
                w = carry
                now = clocks[w]
                carry = -1
            else:
                if not heap:
                    raise AssertionError("pending frames but every worker parked")
                now, _, w = heappop(heap)
                clocks[w] = now
            frame: tuple | None = None
            start = now
            dq = deques[w]
            if dq:
                _, frame = dq.pop()  # owner: bottom, LIFO
            elif P > 1:
                stealable = []
                min_future = _INF
                for v in range(P):
                    if v == w or not deques[v]:
                        continue
                    avail = deques[v][0][0]
                    if avail <= now:
                        stealable.append(v)
                    elif avail < min_future:
                        min_future = avail
                if not stealable:
                    if min_future is _INF:
                        # Nothing anywhere to run or steal: spin-park until
                        # the next publication wakes us.
                        parked.append(w)
                        parked.sort()
                        parks += 1
                        if obs:
                            log.emit_at(EventKind.PARK, now, w)
                        continue
                    # Work exists but is not yet published for us: spin
                    # until the earliest publication instant.
                    clocks[w] = min_future
                    heappush(heap, (min_future, seq, w))
                    seq += 1
                    continue
                if policy_rr:
                    # Deterministic scan from the thief's id: failed
                    # probes are the empty deques passed over.
                    stealable_set = set(stealable)
                    fails = 0
                    victim = stealable[0]
                    for off in range(1, P):
                        v = (w + off) % P
                        if v == w:
                            continue
                        if v in stealable_set:
                            victim = v
                            break
                        fails += 1
                    failed_steals += fails
                    start = now + fails * failed_steal_cost + steal_cost
                elif policy_rich:
                    # Omniscient oracle: longest stealable deque, one probe.
                    victim = max(stealable, key=lambda v: (len(deques[v]), -v))
                    start = now + steal_cost
                else:
                    # Batch the failed probes preceding a successful steal:
                    # attempts ~ Geometric(p), capped at the next event so
                    # the snapshot of stealable deques stays fresh.
                    p = len(stealable) / (P - 1)
                    if p >= 1.0:
                        k = 1
                    else:
                        u = rng.random()
                        k = 1 + int(math.log1p(-u) / math.log1p(-p))
                    horizon = heap[0][0] if heap else _INF
                    if horizon < _INF:
                        k_max = max(1, int((horizon - now) / failed_steal_cost) + 1)
                    else:
                        k_max = k
                    if k > k_max:
                        failed_steals += k_max
                        clocks[w] = now + k_max * failed_steal_cost
                        heappush(heap, (clocks[w], seq, w))
                        seq += 1
                        continue
                    failed_steals += k - 1
                    start = now + (k - 1) * failed_steal_cost + steal_cost
                    victim = stealable[self._choose_victim(rng, stealable)]
                _, frame = deques[victim].popleft()  # thief: top, FIFO
                steals += 1
                worker_steals[w] += 1
                dq = deques[w]  # children publish to the thief's own deque
                if obs:
                    log.emit_at(
                        EventKind.STEAL, start, w, victim=victim, depth=len(deques[victim])
                    )
            else:
                raise AssertionError("single worker idle with pending frames")

            # Execute the frame; its spawns are published at completion.
            fn, args, label = frame
            self._accum = frame_overhead
            self._current_worker = w
            self._frame_start = start
            fn(*args)
            n_spawned = len(buf)
            acc = self._accum
            end = start + acc
            clocks[w] = end
            busy[w] += acc
            frames += 1
            worker_frames[w] += 1
            self._pending += n_spawned - 1
            if end > makespan:
                makespan = end
            if rec_tl:
                timeline.append((start, end, w, label))
            if n_spawned:
                for child in buf:
                    dq.append((end, child))
                buf.clear()
            if dq and (not heap or end < heap[0][0]):
                carry = w
            else:
                heappush(heap, (end, seq, w))
                seq += 1
            if n_spawned and parked:
                wake(n_spawned, end)

        return RunResult(
            makespan=makespan,
            frames=frames,
            steals=steals,
            failed_steals=failed_steals,
            workers=P,
            busy_time=busy,
            worker_frames=worker_frames,
            worker_steals=worker_steals,
            parks=parks,
        )
