"""The remote data plane's traffic shape: a block crosses a channel at
most once, and with the job that needs it.

Every channel carries a residency table of what its worker holds
(pushed payloads, kept outputs); staging pushes an input the table does
not hold *by identity* and names it by a bare ref otherwise; the lazy
``fetch`` is the fallback that makes the table a hint.  Every payload
that crosses the wire is one ``FETCH`` event (``mode`` ``push`` or
``fetch``, plus the channel's ``addr`` or ``pid``), which is what these
tests count.  On ``ProcessRuntime`` over a shared store a segment-backed
push is the version's ``ShmDescriptor``; a cluster channel never carries
one.  In-process servers, no timing.
"""

import itertools
import statistics
import sys
from collections import Counter

import numpy as np
import pytest

from repro.apps import make_app
from repro.apps.base import AppConfig
from repro.core import FTScheduler
from repro.detect.checksum import ChecksumStore, SharedMemoryChecksumStore
from repro.detect.silent import SilentFaultInjector, plan_silent_faults
from repro.exceptions import DataCorruptionError
from repro.faults import FaultInjector, plan_faults
from repro.graph.taskspec import BlockRef
from repro.memory.blockstore import BlockStore
from repro.memory.context import StoreComputeContext
from repro.memory.shm import ShmDescriptor
from repro.obs.events import EventKind, EventLog
from repro.obs.replay import assert_consistent
from repro.runtime import ClusterRuntime, InlineRuntime, ProcessRuntime, WorkerServer
from repro.runtime.dispatch import ChannelPool, PipelineChannel, stage
from repro.runtime.tracing import ExecutionTrace
from repro.runtime.worker import BlockCache
from repro.verify.invariants import check_log

_ids = itertools.count()

#: 4x4 tiles of 32 KiB: 20 tasks, 40 declared inputs.
CFG = AppConfig(n=256, block=64)
TILE_BYTES = 64 * 64 * 8

#: 8x8 tiles of 32 KiB: 120 tasks, enough jobs for placement to matter.
#: FIFO-token placement pushed 107-122 payloads a run; placement that
#: weighs what a channel already holds pushes 65-109 (thread timing
#: decides a run, so the ceiling bounds the median of several).
WIRE_CFG = AppConfig(n=512, block=64)
PUSH_CEILING = 107

#: 4x4 tiles of 72 KiB: above ``SMALL_BLOCK_BYTES``, so a shared store
#: backs every tile with a segment.
SHM_CFG = AppConfig(n=384, block=96)


def start_server(**kwargs):
    return WorkerServer(f"inproc://res-{next(_ids)}", **kwargs).start()


@pytest.fixture
def servers():
    started = [start_server() for _ in range(2)]
    yield started
    for srv in started:
        srv.close()


def run(app, runtime, log=None):
    store = app.make_store(True)
    sched = FTScheduler(app, runtime, store=store, event_log=log)
    sched.run()
    return app.extract(store), sched


def shipped(log):
    return [e for e in log.events if e.kind is EventKind.FETCH]


class TestTrafficShape:
    def test_no_version_crosses_a_channel_twice_and_nothing_is_fetched(self, servers):
        app = make_app("cholesky", config=CFG)
        want, _ = run(app, InlineRuntime())
        log = EventLog()
        rt = ClusterRuntime(workers=2, seed=0, event_log=log,
                            addresses=[s.address for s in servers])
        got, _ = run(app, rt, log)
        assert (got == want).all()
        events = shipped(log)
        assert events and {e.data["mode"] for e in events} == {"push"}
        per_channel = Counter(
            (e.data["addr"], e.data["block"], e.data["version"]) for e in events
        )
        assert max(per_channel.values()) == 1
        # No lazy fetch means no worker cache miss either.
        assert [s.cache.misses for s in servers] == [0, 0]

    def test_pushes_stay_under_the_ceiling_and_no_job_waits_behind_an_idle_channel(
        self, servers, monkeypatch
    ):
        # Placement is checked at the pick, under the pool's own
        # (reentrant) condition: a job must never go behind another while
        # a live channel has nothing in flight.
        piled = []
        pick = ChannelPool.acquire

        def watched(pool, values, aborted):
            with pool._cond:
                best = pick(pool, values, aborted)
                piled.append(best.load > 1 and any(
                    h.load == 0 and not h.dead for h in pool.channels))
                return best

        monkeypatch.setattr(ChannelPool, "acquire", watched)
        app = make_app("cholesky", config=WIRE_CFG)
        pushes = []
        for seed in range(8):
            log = EventLog()
            store = app.make_store(True)
            rt = ClusterRuntime(workers=2, seed=seed, event_log=log,
                                addresses=[s.address for s in servers])
            FTScheduler(app, rt, store=store, event_log=log).run()
            app.verify(store)
            events = shipped(log)
            assert events and {e.data["mode"] for e in events} == {"push"}
            per_channel = Counter(
                (e.data["addr"], e.data["block"], e.data["version"]) for e in events
            )
            assert max(per_channel.values()) == 1
            pushes.append(len(events))
        assert statistics.median(pushes) <= PUSH_CEILING, pushes
        assert piled and not any(piled)

    def test_contended_table_still_ships_each_version_once(self, servers):
        # Four scheduler threads staging onto one channel's table (and
        # entering kept outputs into it) under a 10 us switch interval: a
        # lost update would show as a repeated push or a fallback fetch.
        app = make_app("cholesky", config=CFG)
        want, _ = run(app, InlineRuntime())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for seed in range(3):
                log = EventLog()
                rt = ClusterRuntime(workers=4, seed=seed, event_log=log, channels=1,
                                    inflight=4, addresses=[servers[0].address])
                got, _ = run(app, rt, log)
                assert (got == want).all()
                events = shipped(log)
                assert {e.data["mode"] for e in events} == {"push"}
                versions = [(e.data["block"], e.data["version"]) for e in events]
                assert len(versions) == len(set(versions))
        finally:
            sys.setswitchinterval(interval)

    def test_evicting_worker_falls_back_to_fetch_bit_identically(self):
        app = make_app("cholesky", config=CFG)
        want, _ = run(app, InlineRuntime())
        server = start_server(cache_bytes=TILE_BYTES)
        try:
            log = EventLog()
            rt = ClusterRuntime(workers=2, seed=0, event_log=log,
                                addresses=[server.address])
            got, _ = run(app, rt, log)
        finally:
            server.close()
        assert got.dtype == want.dtype and (got == want).all()
        fetched = [e for e in shipped(log) if e.data["mode"] == "fetch"]
        assert fetched and len(fetched) == server.cache.misses

    def test_replacement_channel_starts_with_an_empty_table(self):
        app = make_app("cholesky", config=CFG)
        want, _ = run(app, InlineRuntime())
        sink = app.sink_key()
        server = start_server()
        try:
            log = EventLog()
            # One channel: every producer ran on the worker that dies, so
            # the sink's inputs are all resident there at its first
            # dispatch, and the recovered sink can only land on the
            # replacement.
            rt = ClusterRuntime(workers=1, seed=0, event_log=log, die_on=[sink],
                                addresses=[server.address])
            got, sched = run(app, rt, log)
        finally:
            server.close()
        assert (got == want).all()
        assert rt.worker_crashes == 1 and sched.trace.total_recoveries >= 1
        events = list(log.events)
        up = next(i for i, e in enumerate(events) if e.kind is EventKind.WORKER_UP)
        for_sink = [(i, e) for i, e in enumerate(events)
                    if e.kind is EventKind.FETCH and e.key == sink]
        assert [e for i, e in for_sink if i < up] == []  # resident: bare refs
        after = [e for i, e in for_sink if i > up]
        assert {e.data["mode"] for e in after} == {"push"}
        assert len(after) == len(app.inputs(sink))  # the new table held nothing
        # Push events are comm substrate: the replayed counters and the
        # paper's guarantees read the same off the merged log.
        assert_consistent(log, sched.trace)
        assert check_log(log, app) == []


class _ChainSpec:
    """``p`` writes block ``x``; every other key reads it and writes its sum."""

    def inputs(self, key):
        return [] if key == "p" else [BlockRef("x", 0)]

    def outputs(self, key):
        return [BlockRef("x" if key == "p" else key, 0)]

    def compute(self, key, ctx):
        if key == "p":
            ctx.write(BlockRef("x", 0), np.arange(1024.0))
        else:
            ctx.write(BlockRef(key, 0), float(ctx.read(BlockRef("x", 0)).sum()))


class TestIdentityGuard:
    """A version the consumer's worker holds is swapped in the parent
    store: the swapped payload is what the next consumer computes with."""

    @pytest.fixture
    def dispatch(self):
        server = start_server()
        log = EventLog()
        rt = ClusterRuntime(workers=1, seed=0, event_log=log, addresses=[server.address])
        spec = _ChainSpec()

        def go(store, key):
            rt.compute_dispatch(spec, key, StoreComputeContext(spec, store, key))

        go.log = log
        yield go
        rt._shutdown_pool()
        server.close()

    def test_silent_corruption_of_a_resident_version_reaches_the_consumer(self, dispatch):
        store = BlockStore()
        dispatch(store, "p")
        dispatch(store, "c1")
        clean = float(np.arange(1024.0).sum())
        assert store.read(BlockRef("c1", 0)) == clean
        assert shipped(dispatch.log) == []  # x was produced there: never shipped
        assert store.corrupt_data(BlockRef("x", 0), lambda a: a + 1.0)
        dispatch(store, "c2")
        assert store.read(BlockRef("c2", 0)) == clean + 1024.0
        assert [(e.key, e.data["mode"]) for e in shipped(dispatch.log)] == [("c2", "push")]
        # The re-pushed payload replaced the worker's copy: still one ship.
        dispatch(store, "c3")
        assert store.read(BlockRef("c3", 0)) == clean + 1024.0
        assert len(shipped(dispatch.log)) == 1

    def test_checksum_store_convicts_it_at_the_parent_gate(self, dispatch):
        store = ChecksumStore()
        dispatch(store, "p")
        dispatch(store, "c1")
        assert store.corrupt_data(BlockRef("x", 0), lambda a: a + 1.0)
        with pytest.raises(DataCorruptionError):
            dispatch(store, "c2")
        assert store.detection.mismatches == 1


class TestStaging:
    def test_back_to_back_jobs_ship_a_shared_input_once(self):
        handle = PipelineChannel(None, None)
        shared, own = np.arange(64.0), np.arange(8.0)
        with handle.lock:  # staged back to back, before either is flushed
            one = stage(handle, {("s", 0): shared, ("a", 0): own})
            two = stage(handle, {("s", 0): shared})
        assert [i[:2] for i in one] == [("s", 0), ("a", 0)]
        assert one[0][2] is shared and one[1][2] is own
        assert two == [("s", 0)]
        # Same version, different object (a rewrite): shipped again.
        rewritten = shared.copy()
        (again,) = stage(handle, {("s", 0): rewritten})
        assert again[2] is rewritten
        assert stage(handle, {("s", 0): rewritten}) == [("s", 0)]

    def test_table_is_byte_bounded(self):
        tile = np.zeros(1024)
        handle = PipelineChannel(None, None)
        handle.resident = BlockCache(2 * tile.nbytes)
        for name in "abc":
            stage(handle, {(name, 0): tile})
        assert handle.resident.nbytes <= 2 * tile.nbytes
        (evicted,) = stage(handle, {("a", 0): tile})
        assert len(evicted) == 3  # "a" fell out of the table: pushed again


class _Recording:
    """Remote-runtime mixin: every job message shipped, as ``(channel,
    key, inputs)`` -- what went on the wire, payload kinds included."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.jobs = []

    def _ship_jobs(self, handle, msgs):
        self.jobs.extend((handle, key, inputs) for _, key, inputs, *_ in msgs)
        super()._ship_jobs(handle, msgs)


class RecordingProcessRuntime(_Recording, ProcessRuntime):
    pass


class RecordingClusterRuntime(_Recording, ClusterRuntime):
    pass


def pushed_payloads(jobs):
    return [i[2] for _, _, inputs in jobs for i in inputs if len(i) == 3]


class TestDescriptorStaging:
    """``ProcessRuntime`` over a shared store stages like a cluster
    channel; the payload of a segment-backed push is its descriptor."""

    def run_shared(self, app, store, hooks=None, trace=None):
        log = EventLog()
        rt = RecordingProcessRuntime(workers=2, seed=0, event_log=log)
        FTScheduler(app, rt, store=store, hooks=hooks, trace=trace, event_log=log).run()
        try:
            got = app.extract(store)
        finally:
            store.close()
        assert store.shm_stats.segments_created >= 1
        pushed = pushed_payloads(rt.jobs)
        assert any(isinstance(p, ShmDescriptor) for p in pushed)
        # Every push, descriptor or value, is one FETCH event.
        assert len(pushed) == len([e for e in shipped(log) if e.data["mode"] == "push"])
        return got, rt, log

    def test_fault_free_pushes_each_version_once_per_worker(self):
        app = make_app("cholesky", config=SHM_CFG)
        want, _ = run(app, InlineRuntime())
        got, rt, log = self.run_shared(app, app.make_store(True, shared=True))
        assert got.dtype == want.dtype and (got == want).all()
        events = shipped(log)
        assert {e.data["mode"] for e in events} == {"push"}
        per_worker = Counter((e.data["pid"], e.data["block"], e.data["version"]) for e in events)
        assert max(per_worker.values()) == 1
        # A consumer placed on the channel that computed its input names
        # it by a bare ref: the table holds the store's object, not the
        # reply the worker sent.
        computed_on, local = {}, 0
        for handle, key, inputs in rt.jobs:
            for block, version, *payload in inputs:
                if computed_on.get((block, version)) is handle:
                    assert not payload, (key, block, version)
                    local += 1
            for ref in app.outputs(key):
                computed_on[tuple(ref)] = handle
        assert local >= 1

    def test_after_compute_faults_keep_parity(self):
        app = make_app("cholesky", config=SHM_CFG)
        want, _ = run(app, InlineRuntime())
        plan = plan_faults(app, phase="after_compute", task_type="v=rand", count=2, seed=3)
        store, trace = app.make_store(True, shared=True), ExecutionTrace()
        got, _, _ = self.run_shared(
            app, store, hooks=FaultInjector(plan, app, store, trace), trace=trace)
        assert (got == want).all()
        assert trace.total_recoveries > 0

    def test_silent_in_place_corruption_is_caught_and_recovered(self):
        app = make_app("cholesky", config=SHM_CFG)
        want, _ = run(app, InlineRuntime())
        store, trace = SharedMemoryChecksumStore(app.ft_policy), ExecutionTrace()
        app.seed_store(store)
        injector = SilentFaultInjector(plan_silent_faults(app, count=2, seed=13), app, store,
                                       trace=trace)
        got, _, _ = self.run_shared(app, store, hooks=injector, trace=trace)
        assert (got == want).all()
        assert injector.fired and store.detection.mismatches >= 1
        assert trace.total_recoveries >= 1

    def test_cluster_never_ships_a_descriptor(self, servers):
        # A worker on another host cannot attach the parent's segment.
        app = make_app("cholesky", config=SHM_CFG)
        want, _ = run(app, InlineRuntime())
        store = app.make_store(True, shared=True)
        rt = RecordingClusterRuntime(workers=2, seed=0, addresses=[s.address for s in servers])
        FTScheduler(app, rt, store=store).run()
        try:
            got = app.extract(store)
        finally:
            store.close()
        assert (got == want).all() and store.shm_stats.segments_created >= 1
        pushed = pushed_payloads(rt.jobs)
        assert pushed and not any(isinstance(p, ShmDescriptor) for p in pushed)
