"""Integration tests for the multi-process runtime.

Parity is the contract: for every app, FTScheduler + ProcessRuntime must
produce *bit-identical* results to FTScheduler + InlineRuntime -- with
and without injected faults -- because the compute kernels are the same
pure functions, only executed in worker processes over shared-memory
views.  Speedup is asserted only on hosts with >= 4 cores; on smaller
hosts the same test asserts bounded per-task dispatch overhead instead,
so a single-core CI lane still exercises the full dispatch path.
"""

import os
import select
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.apps import AppConfig, make_app
from repro.core import FTScheduler, NabbitScheduler
from repro.core.ft import MAX_LIVES
from repro.detect.checksum import SharedMemoryChecksumStore
from repro.detect.silent import SilentFaultInjector, plan_silent_faults
from repro.exceptions import SchedulerError, WorkerCrashError
from repro.faults import FaultInjector, plan_faults
from repro.graph.builders import grid_graph
from repro.obs.events import EventKind, EventLog
from repro.runtime import InlineRuntime, ProcessRuntime, dispatch
from repro.runtime.tracing import ExecutionTrace

APPS = ("lcs", "cholesky")


def assert_identical(got, want):
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()
    else:
        assert got == want


def run_ft(app, runtime, shared, plan=None):
    store = app.make_store(True, shared=shared)
    trace = ExecutionTrace()
    hooks = FaultInjector(plan, app, store, trace) if plan is not None else None
    FTScheduler(app, runtime, store=store, hooks=hooks, trace=trace).run()
    result = app.extract(store)
    if shared:
        store.close()
    return result, trace


@pytest.mark.parametrize("app_name", APPS)
class TestParity:
    def test_bit_identical_without_faults(self, app_name):
        app = make_app(app_name, scale="tiny")
        want, _ = run_ft(app, InlineRuntime(), shared=False)
        got, _ = run_ft(app, ProcessRuntime(workers=2, seed=0), shared=True)
        assert_identical(got, want)

    def test_bit_identical_under_fault_plan(self, app_name):
        app = make_app(app_name, scale="tiny")
        plan = plan_faults(app, phase="after_compute", task_type="v=rand", count=2, seed=3)
        want, t0 = run_ft(app, InlineRuntime(), shared=False, plan=plan)
        got, t1 = run_ft(app, ProcessRuntime(workers=2, seed=0), shared=True, plan=plan)
        assert_identical(got, want)
        assert t0.total_recoveries > 0 and t1.total_recoveries > 0

    def test_parity_with_non_shared_store(self, app_name):
        # Any store works with any runtime: a plain BlockStore simply
        # ships payloads to workers by pickle instead of descriptor.
        app = make_app(app_name, scale="tiny")
        want, _ = run_ft(app, InlineRuntime(), shared=False)
        got, _ = run_ft(app, ProcessRuntime(workers=2, seed=0), shared=False)
        assert_identical(got, want)


def _sockets_held(pid):
    """How many of ``pid``'s descriptors are sockets."""
    fds = f"/proc/{pid}/fd"
    return sum(os.readlink(os.path.join(fds, fd)).startswith("socket:") for fd in os.listdir(fds))


class _SocketCountingRuntime(ProcessRuntime):
    """Records worker pids in fork order, and each live worker's socket
    count as the run quiesces (before ``stop``)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.opened, self.sockets = [], {}

    def _open_channel(self, index=0):
        handle = super()._open_channel(index)
        self.opened.append(handle.info["pid"])
        return handle

    def _shutdown_pool(self):
        for handle in self._pool.channels:
            self.sockets[handle.info["pid"]] = _sockets_held(handle.info["pid"])
        super()._shutdown_pool()


class TestWorkerDeath:
    def test_crash_recovers_and_result_verifies(self):
        app = make_app("lcs", scale="tiny")
        store = app.make_store(True, shared=True)
        log = EventLog()
        rt = ProcessRuntime(workers=2, seed=0, die_on=[(1, 1)], event_log=log)
        sched = FTScheduler(app, rt, store=store, event_log=log)
        sched.run()
        try:
            app.verify(store)
        finally:
            store.close()
        assert rt.worker_crashes == 1
        assert sched.trace.total_recoveries >= 1
        downs = [e for e in log.events if e.kind is EventKind.WORKER_DOWN]
        assert len(downs) == 1
        assert downs[0].key == (1, 1)
        assert downs[0].data["exitcode"] == 73

    def test_pool_survives_repeated_crashes(self):
        app = make_app("cholesky", scale="tiny")
        store = app.make_store(True, shared=True)
        keys = [k for k in app_keys(app)][:3]
        rt = ProcessRuntime(workers=2, seed=0, die_on=keys)
        FTScheduler(app, rt, store=store).run()
        try:
            app.verify(store)
        finally:
            store.close()
        assert rt.worker_crashes == len(keys)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc/<pid>/fd")
    def test_a_replacement_holds_no_more_sockets_than_a_first_worker(self):
        # A lost channel's reader closes its parent end only after the
        # replacement is forked; that end must still be among the ends
        # the new child closes, or the child keeps it open for life.
        app = make_app("lcs", scale="tiny")
        store = app.make_store(True)
        rt = _SocketCountingRuntime(workers=2, seed=0, die_on=[(1, 1)])
        FTScheduler(app, rt, store=store).run()
        app.verify(store)
        assert rt.worker_crashes == 1
        first_gen, replacement = rt.opened[:2], rt.opened[2]
        (survivor,) = [pid for pid in rt.sockets if pid in first_gen]
        assert rt.sockets[replacement] == rt.sockets[survivor]

    def test_a_task_that_kills_every_worker_fails_the_run(self):
        # Every execution of the root exits its worker; recovery would
        # re-dispatch it for ever.  Each loss costs the root a life, and
        # the run fails at its ceiling.
        rt = ProcessRuntime(workers=2, seed=0)
        sched = FTScheduler(grid_graph(3, 3, compute=_exits_on_the_root), rt)
        with pytest.raises(SchedulerError,
                           match=rf"task \(0, 0\) failed on each of its {MAX_LIVES} lives"):
            sched.run()
        assert rt.worker_crashes == MAX_LIVES

    def test_nabbit_baseline_fails_on_crash(self):
        # The fault-oblivious baseline has no recovery path: a worker
        # death is terminal, exactly like a flagged fault (faithful to
        # the paper's comparison).
        app = make_app("lcs", scale="tiny")
        store = app.make_store(False, shared=True)
        rt = ProcessRuntime(workers=2, seed=0, die_on=[(1, 1)])
        with pytest.raises(WorkerCrashError):
            NabbitScheduler(app, rt, store=store).run()
        store.close()


def _exits_on_the_root(key, ctx):
    if key == (0, 0):
        os._exit(73)


#: Worker deaths the soak injects: a bounded slice in tier-1, the full
#: 2 000 in CI (``REPRO_SOAK_DEATHS=2000``, remote-runtimes job).
SOAK_DEATHS = int(os.environ.get("REPRO_SOAK_DEATHS", "160"))


def test_die_on_soak_with_two_jobs_in_flight():
    # Every death at inflight=2 takes the pool through remove/replace/
    # add with submitters parked on the window condition; a lost slot
    # or waiter shows up as a hang or a wrong crash count.  The die
    # keys form a dependence chain (the diagonal), so no two are ever in
    # flight together and each kills exactly one worker.
    app = make_app("lcs", config=AppConfig(n=64, block=8, seed=5))
    want = app.reference()
    diagonal = [(i, i) for i in range(app.config.blocks)]
    crashes = 0
    while crashes < SOAK_DEATHS:
        store = app.make_store(True, shared=True)
        rt = ProcessRuntime(workers=2, seed=crashes, die_on=diagonal, inflight=2)
        try:
            FTScheduler(app, rt, store=store).run()
            assert app.extract(store) == want
        finally:
            store.close()
        assert rt.worker_crashes == len(diagonal)
        crashes += rt.worker_crashes
    assert crashes == SOAK_DEATHS


def app_keys(app):
    """All task keys, in a deterministic (reverse-BFS) order."""
    seen = []
    stack = [app.sink_key()]
    visited = set()
    while stack:
        k = stack.pop()
        if k in visited:
            continue
        visited.add(k)
        seen.append(k)
        stack.extend(app.predecessors(k))
    return seen


class TestChecksumIntegration:
    def test_silent_fault_detected_and_recovered(self):
        app = make_app("cholesky", scale="tiny")
        store = SharedMemoryChecksumStore(app.ft_policy)
        app.seed_store(store)
        plan = plan_silent_faults(app, count=2, seed=13)
        trace = ExecutionTrace()
        injector = SilentFaultInjector(plan, app, store, trace=trace)
        rt = ProcessRuntime(workers=2, seed=0)
        FTScheduler(app, rt, store=store, hooks=injector, trace=trace).run()
        try:
            app.verify(store)
        finally:
            store.close()
        assert store.detection.mismatches >= 1
        assert trace.total_recoveries >= 1


class TestScaling:
    def test_speedup_or_bounded_overhead(self):
        cores = os.cpu_count() or 1
        if cores >= 4:
            self._assert_speedup()
        else:
            # Not a silent skip: on small hosts the dispatch path still
            # runs end to end and must stay cheap per task.
            self._assert_bounded_overhead()

    def _assert_speedup(self):
        # Kernel-dominated sizes so compute, not bookkeeping, is timed.
        for name, cfg in (
            ("lcs", AppConfig(n=4096, block=512)),
            ("cholesky", AppConfig(n=768, block=96)),
        ):
            times = {}
            for label, make_rt, shared in (
                ("inline", InlineRuntime, False),
                ("proc", lambda: ProcessRuntime(workers=4, seed=0), True),
            ):
                app = make_app(name, config=cfg)
                store = app.make_store(True, shared=shared)
                rt = make_rt()
                t0 = time.perf_counter()
                FTScheduler(app, rt, store=store).run()
                times[label] = time.perf_counter() - t0
                if shared:
                    store.close()
            assert times["inline"] / times["proc"] >= 1.8, (name, times)

    def _assert_bounded_overhead(self):
        app = make_app("lcs", scale="tiny")
        n_tasks = app.config.blocks ** 2
        store = app.make_store(True, shared=True)
        rt = ProcessRuntime(workers=2, seed=0)
        t0 = time.perf_counter()
        FTScheduler(app, rt, store=store).run()
        elapsed = time.perf_counter() - t0
        try:
            app.verify(store)
        finally:
            store.close()
        # Generous absolute bound: dispatch (ship descriptor, IPC round
        # trip, attach) must stay well under 50 ms per task even on a
        # loaded single-core host.
        assert elapsed / n_tasks < 0.05, f"{elapsed:.3f}s for {n_tasks} tasks"


class TestRuntimeSurface:
    def test_run_result_contract(self):
        app = make_app("lcs", scale="tiny")
        store = app.make_store(True, shared=True)
        rt = ProcessRuntime(workers=2, seed=0)
        res = FTScheduler(app, rt, store=store).run().run
        store.close()
        assert res.workers == 2
        assert res.frames == sum(res.worker_frames)
        assert res.steals == sum(res.worker_steals)
        assert res.makespan > 0

    def test_pool_reusable_across_runs(self):
        rt = ProcessRuntime(workers=2, seed=0)
        for _ in range(2):
            app = make_app("lcs", scale="tiny")
            store = app.make_store(True, shared=True)
            FTScheduler(app, rt, store=store).run()
            try:
                app.verify(store)
            finally:
                store.close()

    def test_reused_runtime_never_ships_a_freed_specs_pickle(self, monkeypatch):
        # A spec freed between two execute() calls can hand its address
        # to the next one.  Force that collision (every id() the dispatch
        # module takes is the same) instead of waiting for the allocator:
        # a pickle table keyed by id(spec) then serves run 1's spec --
        # and its input strings -- to run 2's workers, silently.
        monkeypatch.setattr(dispatch, "id", lambda obj: 7, raising=False)
        rt = ProcessRuntime(workers=2, seed=0)
        for seed in (1, 2):
            app = make_app("lcs", config=AppConfig(n=64, block=8, seed=seed))
            store = app.make_store(True, shared=True)
            FTScheduler(app, rt, store=store).run()
            try:
                app.verify(store)
            finally:
                store.close()

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ProcessRuntime(workers=0)

    def test_spawn_start_method_bit_identical(self):
        # A spawned child gets its pipe end as a socket the parent passes
        # across exec, not as inherited memory.
        app = make_app("lcs", scale="tiny")
        want, _ = run_ft(app, InlineRuntime(), shared=False)
        rt = ProcessRuntime(workers=2, seed=0, start_method="spawn")
        got, _ = run_ft(app, rt, shared=True)
        assert_identical(got, want)

    def test_idle_channel_stays_byte_silent(self):
        # Heartbeats are a worker server's decision: a forked worker's
        # comm could beat, but the session must not start it.
        rt = ProcessRuntime(workers=1, seed=0)
        handle = rt._open_channel()
        try:
            assert not handle.comm.poll(0.7)  # pumps (and timestamps) any beat
            assert handle.comm.idle_seconds() > 0.5
        finally:
            handle.comm.send(("stop",))
            rt._retire(handle)
            handle.comm.close()


def _alive(pid):
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/stat")
def test_workers_exit_when_the_parent_is_killed(src_env):
    # A worker learns of its parent's death only as EOF on its channel,
    # which never comes while any process -- the worker itself, or a
    # worker forked after it -- still holds the channel's parent end.
    parent = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent("""
            import time
            from repro.runtime import ProcessRuntime
            rt = ProcessRuntime(workers=2)
            rt._ensure_pool()
            print(*(h.info["pid"] for h in rt._pool.channels), flush=True)
            time.sleep(60)
        """)],
        stdout=subprocess.PIPE, text=True, env=src_env,
    )
    try:
        ready, _, _ = select.select([parent.stdout], [], [], 60.0)
        pids = [int(p) for p in parent.stdout.readline().split()] if ready else []
    finally:
        parent.send_signal(signal.SIGKILL)
        parent.wait()
        parent.stdout.close()
    assert len(pids) == 2
    deadline = time.monotonic() + 5.0
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in pids if _alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"workers {survivors} outlived their killed parent"
