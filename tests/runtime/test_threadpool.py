"""Unit tests for the real-thread work-stealing runtime."""

import sys
import threading
import time

import pytest

from repro.runtime import threadpool
from repro.runtime.threadpool import ThreadedRuntime


class TestExecution:
    def test_all_frames_run(self):
        rt = ThreadedRuntime(workers=4, seed=1)
        count = [0]
        lock = threading.Lock()

        def root():
            for _ in range(200):
                def child():
                    with lock:
                        count[0] += 1
                rt.spawn(child)

        res = rt.execute(root)
        assert count[0] == 200
        assert res.frames == 201

    def test_nested_spawning(self):
        rt = ThreadedRuntime(workers=3, seed=2)
        seen = []
        lock = threading.Lock()

        def task(depth, tag):
            with lock:
                seen.append(tag)
            if depth:
                rt.spawn(task, depth - 1, tag + "L")
                rt.spawn(task, depth - 1, tag + "R")

        rt.execute(lambda: task(6, "x"))
        assert len(seen) == 2 ** 7 - 1
        assert len(set(seen)) == len(seen)

    def test_single_worker(self):
        rt = ThreadedRuntime(workers=1)
        ran = []
        rt.execute(lambda: ran.append(1))
        assert ran == [1]

    def test_makespan_is_positive_wallclock(self):
        rt = ThreadedRuntime(workers=2, seed=0)
        res = rt.execute(lambda: None)
        assert res.makespan > 0
        assert res.workers == 2

    def test_work_actually_distributes(self):
        rt = ThreadedRuntime(workers=4, seed=3)
        tids = set()
        lock = threading.Lock()

        def root():
            for _ in range(300):
                def child():
                    import time
                    time.sleep(0.0002)
                    with lock:
                        tids.add(threading.get_ident())
                rt.spawn(child)

        rt.execute(root)
        assert len(tids) >= 2  # at least one steal occurred


class TestRunResultCounters:
    """The runtime's internal counters must surface in RunResult,
    per worker, and be mutually consistent."""

    def _spawn_tree(self, rt, depth=7):
        def task(d):
            if d:
                rt.spawn(lambda: task(d - 1))
                rt.spawn(lambda: task(d - 1))

        return lambda: task(depth)

    def test_per_worker_frames_and_steals_exposed(self):
        rt = ThreadedRuntime(workers=4, seed=11)
        res = rt.execute(self._spawn_tree(rt))
        assert len(res.worker_frames) == 4
        assert len(res.worker_steals) == 4
        assert sum(res.worker_frames) == res.frames == 2 ** 8 - 1
        assert sum(res.worker_steals) == res.steals

    def test_per_worker_busy_time_recorded(self):
        rt = ThreadedRuntime(workers=2, seed=12)

        def root():
            for _ in range(20):
                def child():
                    import time
                    time.sleep(0.0005)
                rt.spawn(child)

        res = rt.execute(root)
        assert len(res.busy_time) == 2
        assert sum(res.busy_time) > 0
        # Busy time is spent inside the makespan window.
        assert all(b <= res.makespan + 1e-6 for b in res.busy_time)

    def test_parks_counted(self):
        # One long-running frame keeps the pool non-quiescent while the
        # other workers find nothing to do, so they must park.
        import time

        rt = ThreadedRuntime(workers=4, seed=13)
        res = rt.execute(lambda: time.sleep(0.02))
        assert res.parks >= 1

    def test_single_worker_never_steals(self):
        rt = ThreadedRuntime(workers=1, seed=14)
        res = rt.execute(self._spawn_tree(rt, depth=4))
        assert res.steals == 0
        assert res.worker_steals == [0]
        assert res.worker_frames == [res.frames]

    def test_counters_consistent_under_contention(self):
        # Blocking frames force steals and idle episodes at once; the
        # per-worker vectors must still sum to the totals exactly.
        import time

        rt = ThreadedRuntime(workers=4, seed=15)

        def root():
            for i in range(60):
                rt.spawn(lambda i=i: time.sleep(0.0005 if i % 3 else 0.002))

        res = rt.execute(root)
        assert sum(res.worker_frames) == res.frames == 61
        assert sum(res.worker_steals) == res.steals
        assert res.steals >= 1


class TestParkSymmetry:
    """One idle episode = exactly one PARK, and one UNPARK if work ever
    reappeared for that worker -- regardless of how many waits the
    episode took (regression: the idle loop must not re-emit PARK per
    wait)."""

    @staticmethod
    def _per_worker_kinds(log):
        from repro.obs.events import EventKind

        per = {}
        for e in log.events:
            if e.kind in (EventKind.PARK, EventKind.UNPARK):
                per.setdefault(e.worker, []).append(e.kind)
        return per

    def test_park_unpark_alternate_per_worker(self):
        import time

        from repro.obs.events import EventKind, EventLog

        log = EventLog()
        rt = ThreadedRuntime(workers=4, seed=16, event_log=log)

        def root():
            # Staggered bursts: workers drain, park, then get new work.
            for _ in range(4):
                time.sleep(0.005)
                for _ in range(8):
                    rt.spawn(lambda: time.sleep(0.0005))

        res = rt.execute(root)
        per = self._per_worker_kinds(log)
        assert per, "contended run produced no park events"
        for worker, kinds in per.items():
            for i, kind in enumerate(kinds):
                want = EventKind.PARK if i % 2 == 0 else EventKind.UNPARK
                assert kind is want, f"worker {worker}: {kinds}"
            parks = sum(1 for k in kinds if k is EventKind.PARK)
            unparks = len(kinds) - parks
            # A worker may end the run parked (quiescence), never the
            # other way around.
            assert parks - unparks in (0, 1), f"worker {worker}: {kinds}"
        total_parks = sum(
            1 for e in log.events if e.kind is EventKind.PARK
        )
        assert total_parks == res.parks


class TestParking:
    """Idle workers wait on the pool's condition: everything that ends
    an idle episode must notify.  The safety timeout is raised out of
    reach so a lost wake-up shows as a missed deadline, not as polling."""

    @pytest.fixture(autouse=True)
    def no_safety_net(self, monkeypatch):
        monkeypatch.setattr(threadpool, "_PARK_TIMEOUT_SECONDS", 120.0)

    @staticmethod
    def _finishes(fn, deadline):
        outcome = []

        def target():
            try:
                outcome.append(fn())
            except BaseException as exc:
                outcome.append(exc)

        t = threading.Thread(target=target, daemon=True)
        t.start()
        t.join(timeout=deadline)
        assert not t.is_alive(), f"still running after {deadline}s (lost wake-up?)"
        return outcome[0]

    def test_many_tiny_graphs_never_lose_a_wakeup(self):
        rt = ThreadedRuntime(workers=4, seed=7)
        ran = [0]
        lock = threading.Lock()

        def leaf():
            with lock:
                ran[0] += 1

        def root():
            for _ in range(3):
                rt.spawn(lambda: rt.spawn(leaf))

        def graphs():
            for _ in range(1000):
                assert rt.execute(root).frames == 7

        before = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self._finishes(graphs, deadline=90.0)
        finally:
            sys.setswitchinterval(before)
        assert ran[0] == 3000

    def test_failure_while_another_worker_is_parked_ends_the_run(self):
        rt = ThreadedRuntime(workers=2, seed=8)

        def root():
            deadline = time.monotonic() + 30.0
            while not rt._parked and time.monotonic() < deadline:
                time.sleep(0.001)
            assert rt._parked == 1
            raise ValueError("boom")

        outcome = self._finishes(lambda: rt.execute(root), deadline=30.0)
        assert isinstance(outcome, ValueError) and rt.aborted()

    def test_thief_never_probes_its_own_deque(self, monkeypatch):
        probes = []

        class Watched(threadpool.WorkDeque):
            def steal_top(self):
                probes.append((rt.obs_worker(), rt._deques.index(self)))
                return super().steal_top()

        monkeypatch.setattr(threadpool, "WorkDeque", Watched)
        rt = ThreadedRuntime(workers=2, seed=9)

        def root():
            for _ in range(50):
                rt.spawn(lambda: time.sleep(0.0002))

        rt.execute(root)
        assert probes and all(thief != victim for thief, victim in probes)


class TestFailure:
    def test_frame_exception_propagates(self):
        rt = ThreadedRuntime(workers=3, seed=4)

        def root():
            rt.spawn(lambda: (_ for _ in ()).throw(ValueError("boom")))

        with pytest.raises(ValueError, match="boom"):
            rt.execute(root)

    def test_pool_reusable_after_failure(self):
        rt = ThreadedRuntime(workers=2, seed=5)
        with pytest.raises(ValueError):
            rt.execute(lambda: (_ for _ in ()).throw(ValueError("x")))
        ran = []
        rt.execute(lambda: ran.append(1))
        assert ran == [1]


class TestGuards:
    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ThreadedRuntime(workers=0)

    def test_spawn_from_outside_worker_rejected(self):
        rt = ThreadedRuntime(workers=2)
        with pytest.raises(RuntimeError):
            rt.spawn(lambda: None)

    def test_charge_is_noop(self):
        ThreadedRuntime(workers=1).charge(5.0)  # must not raise
