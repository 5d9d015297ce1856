"""Integration tests for the cluster runtime.

Same contract as the process-pool tests: FTScheduler + ClusterRuntime
must produce *bit-identical* results to FTScheduler + InlineRuntime --
with and without injected faults -- because only the pure compute phase
crosses the wire; every piece of scheduler state stays in the parent.
In-process :class:`WorkerServer` instances stand in for remote nodes
(``inproc://`` for speed, ``tcp://127.0.0.1`` for the real socket path);
:class:`TestSpawnedWorkers` runs real ``python -m repro worker``
processes for what only a process can show: an ``os._exit`` death, a
``kill -9`` mid-run and a ``/metrics`` scrape.
"""

import itertools
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import comm
from repro.apps import AppConfig, make_app
from repro.apps.lcs import LCSApp
from repro.comm.core import CommClosedError
from repro.core import FTScheduler
from repro.core.ft import MAX_LIVES
from repro.exceptions import SchedulerError
from repro.faults import FaultInjector, plan_faults
from repro.graph.builders import grid_graph
from repro.obs.events import EventKind, EventLog
from repro.runtime import ClusterRuntime, InlineRuntime, WorkerServer
from repro.obs.live import MetricsRegistry
from repro.runtime.cluster import BlockCache
from repro.runtime.cluster_cli import cluster_main
from repro.runtime.tracing import ExecutionTrace
from repro.runtime.worker import CRASH_EXIT_CODE

APPS = ("lcs", "cholesky")

_ids = itertools.count()


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


@pytest.fixture
def server():
    srv = WorkerServer(f"inproc://worker-{next(_ids)}").start()
    yield srv
    srv.close()


@pytest.fixture
def tcp_server():
    srv = WorkerServer("tcp://127.0.0.1:0").start()
    yield srv
    srv.close()


def settle(server, timeout=10.0):
    """Wait until every session of ``server`` has ended (a handler thread
    sees its ``stop`` a moment after the parent's run returns)."""
    deadline = time.monotonic() + timeout
    while server.cache._holders:
        assert time.monotonic() < deadline, "worker sessions never released their token"
        time.sleep(0.001)


def cache_tokens(cache):
    return {key[0] for key in (*cache._entries, *cache._dead)}


def assert_identical(got, want):
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()
    else:
        assert got == want


def run_ft(app, runtime, plan=None):
    store = app.make_store(True)
    trace = ExecutionTrace()
    hooks = FaultInjector(plan, app, store, trace) if plan is not None else None
    FTScheduler(app, runtime, store=store, hooks=hooks, trace=trace).run()
    return app.extract(store), trace


@pytest.mark.parametrize("app_name", APPS)
class TestParity:
    def test_bit_identical_without_faults(self, app_name, server):
        app = make_app(app_name, scale="tiny")
        want, _ = run_ft(app, InlineRuntime())
        rt = ClusterRuntime(workers=2, seed=0, addresses=[server.address])
        got, _ = run_ft(app, rt)
        assert_identical(got, want)

    def test_bit_identical_under_fault_plan(self, app_name, server):
        app = make_app(app_name, scale="tiny")
        plan = plan_faults(app, phase="after_compute", task_type="v=rand", count=2, seed=3)
        want, t0 = run_ft(app, InlineRuntime(), plan=plan)
        rt = ClusterRuntime(workers=2, seed=0, addresses=[server.address])
        got, t1 = run_ft(app, rt, plan=plan)
        assert_identical(got, want)
        assert t0.total_recoveries > 0 and t1.total_recoveries > 0

    def test_bit_identical_over_tcp(self, app_name, tcp_server):
        app = make_app(app_name, scale="tiny")
        want, _ = run_ft(app, InlineRuntime())
        rt = ClusterRuntime(workers=2, seed=0, addresses=[tcp_server.address])
        got, _ = run_ft(app, rt)
        assert_identical(got, want)


#: The sink kernel's length in :class:`_SlowSinkLCS`.
SLOW_KERNEL_SECONDS = 1.5


class _SlowSinkLCS(LCSApp):
    """LCS whose sink kernel first sleeps :data:`SLOW_KERNEL_SECONDS`, on
    its first execution in this process only: a run that declares the
    slow worker dead re-executes the sink at full speed and finishes."""

    slept = threading.Event()

    def compute_full(self, key, ctx):
        if key == self.sink_key() and not self.slept.is_set():
            self.slept.set()
            time.sleep(SLOW_KERNEL_SECONDS)
        super().compute_full(key, ctx)


class TestWorkerDeath:
    def test_severed_connection_recovers_and_verifies(self, server):
        app = make_app("lcs", scale="tiny")
        store = app.make_store(True)
        log = EventLog()
        rt = ClusterRuntime(workers=2, seed=0, addresses=[server.address],
                            die_on=[(1, 1)], event_log=log)
        sched = FTScheduler(app, rt, store=store, event_log=log)
        sched.run()
        app.verify(store)
        assert rt.worker_crashes == 1
        assert sched.trace.total_recoveries >= 1
        downs = [e for e in log.events if e.kind is EventKind.WORKER_DOWN]
        assert len(downs) == 1 and downs[0].key == (1, 1)
        # The comm substrate narrates the loss around the crash:
        # a DISCONNECT for the severed channel, a CONNECT for its
        # replacement (beyond the N dials of pool bring-up).
        disconnects = [e for e in log.events if e.kind is EventKind.DISCONNECT]
        assert any(e.data["reason"] not in ("shutdown",) for e in disconnects)
        connects = [e for e in log.events if e.kind is EventKind.CONNECT]
        assert len(connects) == 3  # 2 at bring-up + 1 replacement

    def test_repeated_deaths_survived(self, server):
        app = make_app("cholesky", scale="tiny")
        keys = app_keys(app)[:3]
        store = app.make_store(True)
        rt = ClusterRuntime(workers=2, seed=0, addresses=[server.address],
                            die_on=keys[:3])
        FTScheduler(app, rt, store=store).run()
        app.verify(store)
        assert rt.worker_crashes == 3

    @pytest.mark.parametrize("scheme", ("tcp", "inproc"))
    def test_heartbeat_silence_declared_dead(self, scheme):
        """A worker that owes a reply and stops heartbeating is declared
        dead without any transport-level EOF (the powered-off-node case)."""
        backing = WorkerServer("unused://never-started")
        stalled = [False]

        def handler(c):
            if not stalled[0]:
                stalled[0] = True
                while True:  # answer the dial validation, then go silent
                    try:
                        msg = c.recv()
                    except CommClosedError:
                        return
                    if msg[0] == "ping":
                        c.send(("pong",))
                        continue
                    time.sleep(3600)  # owes a reply; never beats
            else:
                backing._serve_connection(c)

        addr = "tcp://127.0.0.1:0" if scheme == "tcp" else f"inproc://stalled-{next(_ids)}"
        lis = comm.listen(addr, handler)
        try:
            app = make_app("lcs", scale="tiny")
            store = app.make_store(True)
            log = EventLog()
            rt = ClusterRuntime(workers=1, seed=0, addresses=[lis.address],
                                event_log=log, heartbeat_timeout=0.5)
            sched = FTScheduler(app, rt, store=store, event_log=log)
            sched.run()
            app.verify(store)
            assert rt.worker_crashes == 1
            assert sched.trace.total_recoveries >= 1
            downs = [e for e in log.events if e.kind is EventKind.WORKER_DOWN]
            assert [e.data["reason"] for e in downs] == ["heartbeat"]
        finally:
            lis.close()

    def test_a_kernel_longer_than_the_timeout_is_no_death(self, server):
        # An in-process session beats too: its one worker computes for
        # twice the timeout while owing the reply, and only the server's
        # heartbeats keep the parent from declaring it dead.
        _SlowSinkLCS.slept.clear()
        app = _SlowSinkLCS(make_app("lcs", scale="tiny").config)
        store = app.make_store(True)
        log = EventLog()
        rt = ClusterRuntime(workers=1, seed=0, addresses=[server.address],
                            event_log=log, heartbeat_timeout=SLOW_KERNEL_SECONDS / 2)
        FTScheduler(app, rt, store=store, event_log=log).run()
        app.verify(store)
        assert rt.worker_crashes == 0
        assert not [e for e in log.events if e.kind is EventKind.WORKER_DOWN]

    def test_a_task_that_kills_every_worker_fails_the_run(self, server):
        # Every execution of the root severs its connection; recovery
        # would re-dispatch it for ever.  Each loss costs the root a
        # life, and the run fails at its ceiling.
        rt = ClusterRuntime(workers=2, seed=0, addresses=[server.address])
        sched = FTScheduler(grid_graph(3, 3, compute=_severs_on_the_root), rt)
        with pytest.raises(SchedulerError,
                           match=rf"task \(0, 0\) failed on each of its {MAX_LIVES} lives"):
            sched.run()
        assert rt.worker_crashes == MAX_LIVES


def _severs_on_the_root(key, ctx):
    # On a worker the context belongs to its session: closing the
    # session's connection is what a death does to an in-process server.
    if key == (0, 0):
        ctx._session.comm.close()


class SpawnedWorker:
    """A ``python -m repro worker`` process and the addresses it printed."""

    def __init__(self, env, listen="tcp://127.0.0.1:0", metrics=False):
        cmd = [sys.executable, "-m", "repro", "worker", "--listen", listen]
        if metrics:
            cmd += ["--metrics-port", "0"]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                     text=True, env=env)
        try:
            self.address = self._printed("listening ")
            self.metrics_url = self._printed("metrics ") if metrics else None
        except AssertionError:
            self.stop()
            raise

    def _printed(self, prefix):
        line = self.proc.stdout.readline()
        assert line.startswith(prefix), f"worker printed {line!r}, not {prefix!r}..."
        return line[len(prefix):].strip()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=10.0)
        self.proc.stdout.close()


class SpawnedPair:
    """Two worker processes shared by a test class; a test that kills
    one gets a fresh one from the next :meth:`live`."""

    def __init__(self, env):
        self.env = env
        self.workers = [SpawnedWorker(env), SpawnedWorker(env)]

    def live(self):
        for i, w in enumerate(self.workers):
            if w.proc.poll() is not None:
                w.stop()
                self.workers[i] = SpawnedWorker(self.env)
        return list(self.workers)

    def close(self):
        for w in self.workers:
            w.stop()


@pytest.fixture(scope="class")
def spawned(src_env):
    pair = SpawnedPair(src_env)
    yield pair
    pair.close()


class TestSpawnedWorkers:
    def test_cluster_command_parity_with_and_without_faults(self, spawned, capsys):
        # LCS and Cholesky, bit-identical to inline under no plan and
        # under an after-compute plan, with an O(config) spec per channel.
        addresses = ",".join(w.address for w in spawned.live())
        assert cluster_main(["--addresses", addresses]) == 0
        assert "cluster parity passed" in capsys.readouterr().out

    def test_die_on_exits_the_worker_process(self, spawned):
        workers = spawned.live()
        app = make_app("lcs", scale="tiny")
        store = app.make_store(True)
        log = EventLog()
        rt = ClusterRuntime(workers=2, seed=0, addresses=[w.address for w in workers],
                            die_on=[(1, 1)], event_log=log)
        sched = FTScheduler(app, rt, store=store, event_log=log)
        sched.run()
        app.verify(store)
        assert rt.worker_crashes == 1
        assert sched.trace.total_recoveries >= 1
        downs = [e for e in log.events if e.kind is EventKind.WORKER_DOWN]
        assert len(downs) == 1 and downs[0].key == (1, 1)
        # The dead server costs one refused dial, not a backoff on its address.
        (lost,) = [e for e in log.events
                   if e.kind is EventKind.DISCONNECT and e.data["reason"] != "shutdown"]
        (up,) = [e for e in log.events if e.kind is EventKind.WORKER_UP]
        assert up.seq > lost.seq and up.t - lost.t < 1.0
        deadline = time.monotonic() + 10.0
        while all(w.proc.poll() is None for w in workers):
            assert time.monotonic() < deadline, "no worker process exited"
            time.sleep(0.01)
        assert sorted(w.proc.poll() or 0 for w in workers) == [0, CRASH_EXIT_CODE]

    def test_kill9_mid_run_recovers(self, spawned):
        victim, survivor = spawned.live()
        app = make_app("cholesky", scale="tiny")
        store = app.make_store(True)
        metrics = MetricsRegistry()
        rt = ClusterRuntime(workers=2, seed=0, addresses=[victim.address, survivor.address],
                            metrics=metrics, heartbeat_timeout=2.0)
        dispatches = metrics.histogram("repro_dispatch_seconds")
        done = threading.Event()

        def killer():
            # Two full round trips in: the run is demonstrably mid-flight.
            while not done.is_set():
                if dispatches.count >= 2:
                    os.kill(victim.proc.pid, signal.SIGKILL)
                    return
                time.sleep(0.001)

        kt = threading.Thread(target=killer, daemon=True)
        kt.start()
        sched = FTScheduler(app, rt, store=store)
        sched.run()
        done.set()
        kt.join(timeout=5.0)
        assert not kt.is_alive()
        app.verify(store)
        assert victim.proc.wait(timeout=10.0) == -signal.SIGKILL
        assert rt.worker_crashes >= 1
        assert sched.trace.total_recoveries >= 1

    def test_a_dead_server_costs_one_refused_dial(self, spawned):
        # Slot 0's own address is a server killed before the run: its dial
        # is refused once and the survivor answers in the same round,
        # with no backoff spent on the dead address (~2.8 s if it were).
        dead, live = spawned.live()
        dead.proc.kill()
        dead.proc.wait(timeout=10.0)
        app = make_app("lcs", scale="tiny")
        want, _ = run_ft(app, InlineRuntime())
        log = EventLog()
        rt = ClusterRuntime(workers=2, seed=0, addresses=[dead.address, live.address],
                            event_log=log)
        t0 = time.perf_counter()
        got, _ = run_ft(app, rt)
        assert time.perf_counter() - t0 < 1.0
        assert_identical(got, want)
        connects = [e.data["addr"] for e in log.events if e.kind is EventKind.CONNECT]
        assert connects == [live.address] * 2

    def test_metrics_endpoint_serves_on_the_listen_host(self, src_env):
        worker = SpawnedWorker(src_env, listen="tcp://0.0.0.0:0", metrics=True)
        try:
            assert worker.metrics_url.startswith("http://0.0.0.0:")
            port = worker.address.rpartition(":")[2]
            app = make_app("lcs", scale="tiny")
            want, _ = run_ft(app, InlineRuntime())
            rt = ClusterRuntime(workers=2, seed=0, addresses=[f"tcp://127.0.0.1:{port}"])
            got, _ = run_ft(app, rt)
            assert_identical(got, want)
            url = worker.metrics_url.replace("0.0.0.0", "127.0.0.1", 1)
            with urllib.request.urlopen(url, timeout=10.0) as resp:
                text = resp.read().decode()
        finally:
            worker.stop()
        # A served run must have *moved* each family: one that is merely
        # present can be one nobody feeds.
        for family in ("repro_worker_jobs_total", "repro_comm_fetches_total",
                       "repro_comm_fetch_bytes_total", "repro_worker_cache_bytes"):
            values = [float(line.rsplit(None, 1)[1]) for line in text.splitlines()
                      if line.startswith(family)]
            assert values and values[0] > 0, f"{family}: {values!r}"


#: Worker deaths the soak injects: a bounded slice in tier-1, the full
#: 2 000 in CI (``REPRO_SOAK_DEATHS=2000``, remote-runtimes job).
SOAK_DEATHS = int(os.environ.get("REPRO_SOAK_DEATHS", "160"))


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def test_die_on_soak_with_two_jobs_in_flight(server):
    # The sibling of the ProcessRuntime soak: here a death is the close
    # of an inproc socket, with no fork and no corpse.  A reader may be
    # inside the comm when another submitter declares it lost, so the
    # one-closer rule (no close while a reader sits between poll and
    # recv) is raced in-process on real descriptors; the diagonal die
    # keys kill exactly one worker each.  Every lost or finished
    # connection must give its descriptors back.
    fds = _open_fds() if os.path.isdir("/proc/self/fd") else None
    app = make_app("lcs", config=AppConfig(n=64, block=8, seed=5))
    want = app.reference()
    diagonal = [(i, i) for i in range(app.config.blocks)]
    crashes = 0
    while crashes < SOAK_DEATHS:
        store = app.make_store(True)
        rt = ClusterRuntime(workers=2, seed=crashes, addresses=[server.address],
                            die_on=diagonal, inflight=2)
        FTScheduler(app, rt, store=store).run()
        assert app.extract(store) == want
        assert rt.worker_crashes == len(diagonal)
        crashes += rt.worker_crashes
    assert crashes == SOAK_DEATHS
    if fds is not None:
        deadline = time.monotonic() + 10.0  # the last sessions end asynchronously
        while _open_fds() > fds and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _open_fds() <= fds


class TestLazyFetchAndCache:
    def test_fetches_match_cache_misses_and_cache_hits_save_traffic(self, server):
        app = make_app("lcs", scale="tiny")
        store = app.make_store(True)
        log = EventLog()
        rt = ClusterRuntime(workers=2, seed=0, addresses=[server.address],
                            event_log=log)
        FTScheduler(app, rt, store=store, event_log=log).run()
        app.verify(store)
        shipped = [e for e in log.events if e.kind is EventKind.FETCH]
        # Every lazy fetch is a worker cache miss and nothing else is: a
        # pushed payload is read from the job's own input table, a
        # resident one (pushed earlier, or produced on that worker) is a
        # cache hit with no FETCH event at all.
        fetched = [e for e in shipped if e.data["mode"] == "fetch"]
        assert len(fetched) == server.cache.misses
        assert server.cache.hits > 0  # bare refs served without any transfer
        assert all(e.data["nbytes"] > 0 for e in shipped)
        # Cache hits save traffic: fewer payloads cross than inputs are read.
        declared = sum(len(app.inputs(k)) for k in app_keys(app))
        assert 0 < len(shipped) < declared

    def test_run_token_scopes_cache_across_runs(self, server):
        # Two runs reusing the same (block, version) names for different
        # data: run 2 presents its own token, so run 1's identically
        # named entries can never serve it -- they are dead, and are
        # what run 2's own blocks displace.
        run_ft(make_app("lcs", config=AppConfig(n=64, block=8, seed=1)),
               ClusterRuntime(workers=2, seed=0, addresses=[server.address]))
        settle(server)
        working_set = len(server.cache)
        first_tokens = cache_tokens(server.cache)
        assert working_set > 0 and len(first_tokens) == 1
        app = make_app("lcs", config=AppConfig(n=64, block=8, seed=2))
        store = app.make_store(True)
        FTScheduler(app, ClusterRuntime(workers=2, seed=0, addresses=[server.address]),
                    store=store).run()
        app.verify(store)  # a hit on a run-1 entry would be run 1's data
        settle(server)
        second_tokens = cache_tokens(server.cache)
        assert len(second_tokens) == 1 and second_tokens != first_tokens
        assert len(server.cache) <= working_set


class TestControlPlaneBytes:
    def test_spec_bytes_are_counted_and_independent_of_n(self, server):
        # The spec announcement is in no span or event; the counter is
        # what makes it visible.  One announcement per used channel,
        # O(config): the input matrix travels as blocks, not in the spec.
        import pickle

        from repro.obs.live import MetricsRegistry
        from repro.obs.top import parse_prometheus, render_dashboard

        per_channel = []
        for n in (64, 256):
            app = make_app("cholesky", config=AppConfig(n=n, block=32))
            metrics = MetricsRegistry()
            rt = ClusterRuntime(workers=2, seed=0, addresses=[server.address],
                                metrics=metrics)
            run_ft(app, rt)
            total = metrics.counter("repro_comm_spec_bytes_total").value
            blob = len(pickle.dumps(app))
            assert total in (blob, 2 * blob)  # a channel no job reached got no spec
            per_channel.append(blob)
        assert 0 < per_channel[0] < 4096 and abs(per_channel[1] - per_channel[0]) <= 16
        frame = render_dashboard(parse_prometheus(metrics.render_prometheus()), "t")
        assert f"control: {total / 1e3:.1f} kB of spec announced over comm" in frame


class TestBlockCache:
    def test_hit_miss_accounting(self):
        c = BlockCache(capacity_bytes=1000)
        assert c.get(("t", "a", 0)) == (False, None)
        c.put(("t", "a", 0), "va", 100)
        assert c.get(("t", "a", 0)) == (True, "va")
        assert (c.hits, c.misses) == (1, 1)
        assert c.nbytes == 100 and len(c) == 1

    def test_lru_eviction_under_byte_bound(self):
        c = BlockCache(capacity_bytes=250)
        c.put(("t", "a", 0), "va", 100)
        c.put(("t", "b", 0), "vb", 100)
        c.get(("t", "a", 0))  # refresh a: b is now least-recent
        c.put(("t", "c", 0), "vc", 100)  # over budget -> evict b
        assert c.get(("t", "b", 0)) == (False, None)
        assert c.get(("t", "a", 0))[0] and c.get(("t", "c", 0))[0]
        assert c.nbytes <= 250

    def test_replacement_does_not_double_count(self):
        c = BlockCache(capacity_bytes=1000)
        c.put(("t", "a", 0), "v1", 400)
        c.put(("t", "a", 0), "v2", 300)
        assert c.nbytes == 300 and len(c) == 1

    def test_single_oversized_entry_is_kept(self):
        # The cache never evicts down to empty: a single entry larger
        # than the budget still serves the task that fetched it.
        c = BlockCache(capacity_bytes=10)
        c.put(("t", "a", 0), "big", 500)
        assert c.get(("t", "a", 0)) == (True, "big")


class TestCacheScopes:
    """A token is live while a session holds it; dead entries are the
    first victims of ``put``, one per arriving block."""

    def test_entries_stay_live_until_the_last_holder_releases(self):
        c = BlockCache(capacity_bytes=1000)
        c.retain("t")
        c.retain("t")  # a second channel of the same run
        c.put(("t", "a", 0), "va", 100)
        c.release("t")
        assert c.get(("t", "a", 0)) == (True, "va")
        c.put(("t", "b", 0), "vb", 100)  # nothing dead: nothing reclaimed
        assert len(c) == 2
        c.release("t")
        assert c.get(("t", "a", 0)) == (False, None)
        assert len(c) == 2 and c.nbytes == 200  # dead, not yet displaced

    def test_retaining_a_released_token_revives_its_entries(self):
        c = BlockCache(capacity_bytes=1000)
        c.retain("t")
        c.put(("t", "a", 0), "va", 100)
        c.release("t")  # the run's only channel was lost ...
        assert c.get(("t", "a", 0)) == (False, None)
        c.retain("t")  # ... and its replacement announces the same run
        assert c.get(("t", "a", 0)) == (True, "va")
        c.put(("t", "b", 0), "vb", 100)
        assert len(c) == 2 and c.nbytes == 200

    def test_dead_entries_are_reclaimed_one_per_put(self):
        c = BlockCache(capacity_bytes=10_000)  # no budget pressure at all
        c.retain("old")
        for name in "abc":
            c.put(("old", name, 0), name, 100)
        c.release("old")
        c.retain("new")
        for i, held in enumerate((3, 3, 3, 4, 5)):  # one out per block in
            c.put(("new", i, 0), i, 100)
            assert len(c) == held
        assert cache_tokens(c) == {"new"}

    def test_dead_entries_go_before_any_live_one_under_pressure(self):
        c = BlockCache(capacity_bytes=300)
        c.retain("live")
        c.retain("old")
        c.put(("live", "x", 0), "vx", 100)  # least recent of all
        c.put(("old", "a", 0), "va", 100)
        c.put(("old", "b", 0), "vb", 100)
        c.release("old")
        c.put(("live", "y", 0), "vy", 100)
        c.put(("live", "z", 0), "vz", 100)
        assert c.peek(("live", "x", 0)) == "vx" and cache_tokens(c) == {"live"}
        c.put(("live", "w", 0), "vw", 100)  # nothing dead left: plain LRU
        assert c.peek(("live", "x", 0)) is None and c.nbytes == 300

    def test_unscoped_tables_are_plain_lru(self):
        # The residency table keys (block, version) and never retains:
        # nothing there is ever dead, whatever a block is called -- even
        # the name of a token released elsewhere.
        worker = BlockCache(1000)
        worker.retain("t")
        worker.release("t")
        table = BlockCache(capacity_bytes=250)
        table.put(("t", 0), "v0", 100)
        table.put(("u", 0), "v1", 100)
        assert len(table) == 2 and table.peek(("t", 0)) == "v0"
        table.put(("v", 0), "v2", 100)
        assert table.peek(("t", 0)) is None and len(table) == 2

    def test_severed_session_releases_its_token(self, server):
        app = make_app("lcs", scale="tiny")
        store = app.make_store(True)
        rt = ClusterRuntime(workers=2, seed=0, addresses=[server.address], die_on=[(1, 1)])
        FTScheduler(app, rt, store=store).run()
        app.verify(store)
        assert rt.worker_crashes == 1
        settle(server)  # the severed session and both survivors let go
        assert not server.cache._entries

    @pytest.mark.parametrize("transport", ["server", "tcp_server"])
    def test_thirty_runs_hold_one_runs_blocks(self, transport, request):
        srv = request.getfixturevalue(transport)
        app = make_app("cholesky", scale="tiny")
        want, _ = run_ft(app, InlineRuntime())
        one_run = 0
        for _ in range(30):
            got, _ = run_ft(app, ClusterRuntime(workers=2, seed=0, addresses=[srv.address]))
            assert_identical(got, want)
            settle(srv)
            one_run = one_run or srv.cache.nbytes
            assert 0 < srv.cache.nbytes <= 2 * one_run

    def test_cache_gauges_stay_at_one_runs_worth(self):
        # What a scrape of a worker's /metrics reads: the gauges, not the
        # cache object.  Growth with the run count is the cache keeping
        # history again.
        from repro.obs.live import MetricsRegistry

        metrics = MetricsRegistry()
        srv = WorkerServer(f"inproc://worker-{next(_ids)}", metrics=metrics).start()
        app = make_app("cholesky", config=AppConfig(n=512, block=64))
        held = []
        try:
            for _ in range(12):
                run_ft(app, ClusterRuntime(workers=2, seed=0, addresses=[srv.address]))
                settle(srv)
                held.append((metrics.value("repro_worker_cache_bytes"),
                             metrics.value("repro_worker_cache_entries")))
        finally:
            srv.close()
        (bytes0, entries0) = held[0]
        assert bytes0 > 0 and entries0 > 0
        assert all(b <= 2 * bytes0 and n <= 2 * entries0 for b, n in held), held

    def test_concurrent_runs_on_one_server_share_no_hit(self, server):
        # Same block names, different data, same cache, at the same time.
        failures = []

        def runs(seed):
            try:
                for _ in range(3):
                    app = make_app("lcs", config=AppConfig(n=64, block=8, seed=seed))
                    store = app.make_store(True)
                    rt = ClusterRuntime(workers=2, seed=0, addresses=[server.address])
                    FTScheduler(app, rt, store=store).run()
                    app.verify(store)
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=runs, args=(seed,)) for seed in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads) and not failures


class TestRuntimeSurface:
    def test_addresses_required(self):
        with pytest.raises(ValueError):
            ClusterRuntime(workers=2)

    def test_run_result_contract(self, server):
        app = make_app("lcs", scale="tiny")
        store = app.make_store(True)
        rt = ClusterRuntime(workers=2, seed=0, addresses=[server.address])
        res = FTScheduler(app, rt, store=store).run().run
        assert res.workers == 2
        assert res.frames == sum(res.worker_frames)
        assert res.makespan > 0

    def test_runtime_reusable_across_runs(self, server):
        rt = ClusterRuntime(workers=2, seed=0, addresses=[server.address])
        for _ in range(2):
            app = make_app("lcs", scale="tiny")
            store = app.make_store(True)
            FTScheduler(app, rt, store=store).run()
            app.verify(store)

    def test_reused_runtime_never_serves_an_earlier_runs_blocks(self, server):
        # Same runtime, same server, same (block, version) names, new
        # data: every run gets its own cache scope and its own spec.
        rt = ClusterRuntime(workers=2, seed=0, addresses=[server.address])
        for seed in (1, 2, 3):
            app = make_app("lcs", config=AppConfig(n=64, block=8, seed=seed))
            store = app.make_store(True)
            FTScheduler(app, rt, store=store).run()
            app.verify(store)

    def test_a_kernel_that_writes_nothing_fails_the_run(self, server):
        # The compute seam's output check covers a remote compute too.
        rt = ClusterRuntime(workers=1, seed=0, addresses=[server.address])
        sched = FTScheduler(grid_graph(3, 3, compute=_writes_nothing), rt)
        with pytest.raises(SchedulerError, match=r"task \(0, 0\) returned without writing"):
            sched.run()
        assert sched.trace.total_recoveries == 0

    def test_one_server_shared_by_many_channels(self, server):
        # More parent threads than servers: all four channels multiplex
        # onto the single server's handler threads.
        app = make_app("cholesky", scale="tiny")
        want, _ = run_ft(app, InlineRuntime())
        rt = ClusterRuntime(workers=4, seed=0, addresses=[server.address])
        got, _ = run_ft(app, rt)
        assert_identical(got, want)


def _writes_nothing(key, ctx):
    pass
