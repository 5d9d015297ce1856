"""Tests for the pipelined/batched dispatch fast path (ROADMAP item 4).

Three layers:

* **wire protocol** -- a raw worker driven directly over its comm, once
  as a forked pipe child and once as an ``inproc://`` ``WorkerServer``
  connection (the same ``WorkerSession`` serves both): multiple jobs in
  one ``("jobs", [...])`` message stream one reply each, a
  ``die``-flagged job kills the worker mid-batch after the earlier
  jobs' replies have been sent, a pushed shm descriptor is attached
  once and kept, so bare refs to it read the cache, a bare ref the
  worker does not hold is fetched (and fails the job if the parent
  cannot serve it), one job may mix inline payloads with lazily
  fetched refs, a kernel's error crosses as itself when it survives a
  pickle round-trip (else as a summary), and an unknown tag or a reply
  that fails to serialize is answered with a ``fail`` (so every send
  site runs here);
* **channel loss** -- one submitter at a time reads a channel, and a
  dead channel's comm is closed once, never under that reader (the
  fd-reuse hang); a replacement's ``WORKER_UP`` precedes any event
  naming it;
* **runtime integration** -- pipelined configurations (fewer processes
  than scheduler threads, inflight windows > 1) keep bit-identical
  parity with and without fault plans, a crash mid-pipeline re-executes
  only unfinished jobs through one WORKER_DOWN/WORKER_UP pair, and the
  ``queued`` spans keep attribution tiling.
"""

import itertools
import pickle
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro import comm
from repro.apps import make_app
from repro.comm import frame
from repro.comm.core import CommClosedError
from repro.core import FTScheduler
from repro.exceptions import SchedulerError
from repro.faults import FaultInjector, plan_faults
from repro.graph.taskspec import BlockRef
from repro.memory.shm import materialize_segment
from repro.obs.attribution import attribute_run
from repro.obs.events import EventKind, EventLog
from repro.runtime import ClusterRuntime, InlineRuntime, ProcessRuntime, WorkerServer
from repro.runtime.dispatch import (
    CRASHED,
    ChannelPool,
    PendingJob,
    PipelineChannel,
    RemoteRuntime,
)
from repro.runtime.procpool import CRASH_EXIT_CODE
from repro.runtime.tracing import ExecutionTrace

_ids = itertools.count()


# ---------------------------------------------------------------------------
# wire protocol, against a raw worker


class _NoInputSpec:
    """Picklable no-input spec: writes its key back (tracks execution)."""

    def inputs(self, key):
        return []

    def compute(self, key, ctx):
        ctx.write(BlockRef("out", 0), key)


class _SumSpec:
    """Picklable spec reading one version of block ``in``: writes its sum."""

    def __init__(self, version=0):
        self.ref = BlockRef("in", version)

    def inputs(self, key):
        return [self.ref]

    def compute(self, key, ctx):
        ctx.write(BlockRef("out", 0), float(np.asarray(ctx.read(self.ref)).sum()))


class _MixedSpec:
    """Picklable spec reading three blocks: the sum of two, and the
    third passed through untouched."""

    def inputs(self, key):
        return [BlockRef("a", 0), BlockRef("b", 0), BlockRef("c", 0)]

    def compute(self, key, ctx):
        a, b, c = (ctx.read(BlockRef(name, 0)) for name in "abc")
        ctx.write(BlockRef("out", 0), (float(np.sum(a) + np.sum(b)), c))


class _PicklesOnce:
    """Survives one pickling: the worker's round-trip check of an
    exception carrying it passes, and the reply that ships it fails."""

    def __init__(self):
        self.left = 1

    def __reduce__(self):
        if not self.left:
            raise TypeError("pickled twice")
        self.left -= 1
        return (_PicklesOnce, ())


class _NeedsArg(Exception):
    """Pickles, but fails to unpickle: its constructor wants two args."""

    def __init__(self, a, b):
        super().__init__(a)


class _RaisingSpec(_NoInputSpec):
    """Picklable spec whose kernel raises: a ``ValueError`` for key
    ``plain``, an exception that cannot round-trip for any other key."""

    def compute(self, key, ctx):
        raise ValueError(key) if key == "plain" else _NeedsArg(key, 0)


class _UnshippableErrorSpec(_NoInputSpec):
    """Picklable spec whose kernel raises an error its reply cannot ship."""

    def compute(self, key, ctx):
        raise ValueError(_PicklesOnce())


class _PipeWorker:
    """A forked ``ProcessRuntime`` worker, driven by hand."""

    def __init__(self):
        self.handle = ProcessRuntime(workers=1, seed=0)._open_channel()
        self.comm = self.handle.comm

    def assert_died(self):
        self.handle.peer.join(timeout=5.0)
        assert self.handle.peer.exitcode == CRASH_EXIT_CODE

    def close(self):
        self.handle.peer.join(timeout=5.0)
        assert not self.handle.peer.is_alive()


class _ServerWorker:
    """One connection to an in-process ``WorkerServer``, driven by hand."""

    def __init__(self):
        self.server = WorkerServer(f"inproc://raw-{next(_ids)}").start()
        self.comm = comm.connect(self.server.address)

    def assert_died(self):
        pass  # a severed connection leaves no corpse to examine

    def close(self):
        with pytest.raises(CommClosedError):  # the session has ended
            self.comm.recv(timeout=5.0)
        self.server.close()


class TestJobsProtocol:
    """The job protocol against a forked pipe worker; the subclass below
    runs the same cases against a ``WorkerServer`` connection."""

    worker_kind = _PipeWorker

    @pytest.fixture
    def worker(self):
        w = self.worker_kind()
        yield w
        try:
            w.comm.send(("stop",))
        except CommClosedError:
            pass
        w.close()
        w.comm.close()

    @staticmethod
    def start(worker, spec):
        worker.comm.send(("spec", pickle.dumps(spec), "run-token"))

    @staticmethod
    def submit(worker, *jobs):
        """Ship ``(jid, key, inputs[, die])`` jobs as one batch."""
        worker.comm.send_oob(
            ("jobs", [(jid, key, inputs, bool(die), 1) for jid, key, inputs, *die in jobs])
        )

    @staticmethod
    def written(reply):
        assert reply[0] == "done", reply
        return dict(reply[2].load())

    def test_batch_streams_one_reply_per_job(self, worker):
        self.start(worker, _NoInputSpec())
        self.submit(worker, *[(j, f"k{j}", []) for j in (1, 2, 3)])
        for jid in (1, 2, 3):  # FIFO within the channel
            reply = worker.comm.recv(timeout=10)
            assert reply[1] == jid
            assert self.written(reply)[("out", 0)] == f"k{jid}"

    def test_die_mid_batch_kills_after_earlier_replies(self, worker):
        self.start(worker, _NoInputSpec())
        self.submit(
            worker,
            (1, "a", []),
            (2, "b", [], True),  # injected death, mid-batch
            (3, "c", []),        # never executes
        )
        first = worker.comm.recv(timeout=10)
        assert first[0] == "done" and first[1] == 1
        # The remaining jobs die with the worker: the channel reports
        # peer loss instead of replies 2 and 3.
        with pytest.raises(CommClosedError):
            worker.comm.recv(timeout=10)
        worker.assert_died()

    def test_pinned_ref_serves_repeat_reads_without_reattach(self, worker):
        # A pushed descriptor is attached once and its view kept for the
        # session: later bare refs to it read that view.
        data = np.arange(64, dtype=np.float64)
        total = float(data.sum())
        seg = materialize_segment(data)[1]
        try:
            self.start(worker, _SumSpec())
            self.submit(worker, (1, "k1", [("in", 0, seg.descriptor)]))
            assert self.written(worker.comm.recv(timeout=10))[("out", 0)] == total
            # Unlinked: a second attach would fail, so bare refs can only
            # be served from the view the worker kept -- without a fetch.
            seg.dispose()
            self.submit(worker, (2, "k2", [("in", 0)]), (3, "k3", [("in", 0)]))
            for jid in (2, 3):
                reply = worker.comm.recv(timeout=10)
                assert reply[1] == jid and self.written(reply)[("out", 0)] == total
        finally:
            seg.dispose()

    def test_unpinned_ref_is_a_scheduler_error(self, worker):
        # A bare ref the worker was never pushed falls back to a fetch ...
        data = np.arange(64, dtype=np.float64)
        self.start(worker, _SumSpec(1))
        self.submit(worker, (1, "k1", [("in", 1)]))
        assert worker.comm.recv(timeout=10) == ("fetch", 1, "in", 1)
        worker.comm.send_oob(("data", "in", 1, frame.encode_oob(data)))
        assert self.written(worker.comm.recv(timeout=10))[("out", 0)] == float(data.sum())
        # ... and one the parent cannot serve either fails the job.
        self.start(worker, _SumSpec(2))
        self.submit(worker, (2, "k2", [("in", 2)]))
        assert worker.comm.recv(timeout=10) == ("fetch", 2, "in", 2)
        worker.comm.send_oob(("data", "in", 2, None))
        reply = worker.comm.recv(timeout=10)
        assert reply[0] == "fail" and reply[1] == 2
        assert isinstance(reply[2], SchedulerError)
        assert "could not serve" in str(reply[2])

    def test_inline_and_lazily_fetched_inputs_mix_in_one_job(self, worker):
        a, b = np.arange(8.0), np.arange(2048.0)
        self.start(worker, _MixedSpec())
        # "a" rides the job inline, "b" is a bare ref the worker must
        # fetch, and "c" is an inline None -- shipped, so never fetched.
        inputs = [("a", 0, a), ("b", 0), ("c", 0, None)]
        self.submit(worker, (1, "k1", inputs))
        assert worker.comm.recv(timeout=10) == ("fetch", 1, "b", 0)
        worker.comm.send_oob(("data", "b", 0, frame.encode_oob(b)))
        want = (float(a.sum() + b.sum()), None)
        assert self.written(worker.comm.recv(timeout=10))[("out", 0)] == want
        # The fetched version is cached under the run token: a second
        # job naming the same ref replies without another fetch.
        self.submit(worker, (2, "k2", inputs))
        reply = worker.comm.recv(timeout=10)
        assert reply[1] == 2 and self.written(reply)[("out", 0)] == want

    def test_an_unknown_tag_is_answered_with_a_fail(self, worker):
        worker.comm.send(("evict", "k"))
        reply = worker.comm.recv(timeout=10)
        assert reply[0] == "fail" and reply[1] is None
        assert "unknown message tag 'evict'" in str(reply[2])

    def test_a_kernel_error_crosses_as_itself_if_it_round_trips(self, worker):
        self.start(worker, _RaisingSpec())
        self.submit(worker, (1, "plain", []), (2, "odd", []))
        plain, odd = worker.comm.recv(timeout=10), worker.comm.recv(timeout=10)
        assert plain[:2] == ("fail", 1) and type(plain[2]) is ValueError
        assert plain[2].args == ("plain",)
        assert odd[:2] == ("fail", 2) and type(odd[2]) is SchedulerError
        assert "_NeedsArg: odd" in str(odd[2])

    def test_a_reply_that_fails_to_serialize_is_answered_with_a_fail(self, worker):
        self.start(worker, _UnshippableErrorSpec())
        self.submit(worker, (1, "k1", []))
        reply = worker.comm.recv(timeout=10)
        assert reply[0] == "fail" and reply[1] == 1
        assert "failed to serialize" in str(reply[2])
        # The session survives it.
        self.start(worker, _NoInputSpec())
        self.submit(worker, (2, "k2", []))
        assert self.written(worker.comm.recv(timeout=10))[("out", 0)] == "k2"


class TestJobsProtocolOverWorkerServer(TestJobsProtocol):
    worker_kind = _ServerWorker


# ---------------------------------------------------------------------------
# channel loss


class _RendezvousComm:
    """A comm whose reader can be parked between ``poll()`` and the end
    of ``recv()`` while another thread declares the channel lost."""

    def __init__(self):
        self.in_recv = threading.Event()
        self.release = threading.Event()
        self.reader_inside = False
        self.closes = []  # per close(): was the reader still inside?

    def poll(self, timeout=0.0):
        return True

    def recv(self, timeout=None):
        self.reader_inside = True
        try:
            self.in_recv.set()
            assert self.release.wait(10.0)
            raise CommClosedError("peer gone")
        finally:
            self.reader_inside = False

    def close(self):
        self.closes.append(self.reader_inside)


class _ShuffledComm:
    """Delivers a ``done`` reply for each of ``jids`` in random order,
    counting any second thread inside ``poll``/``recv`` and any use
    after ``close``."""

    def __init__(self, jids, rng):
        self.replies = [("done", jid) for jid in rng.sample(jids, len(jids))]
        self.handle = None
        self.inside = self.overlaps = self.used_after_close = 0
        self.closes = []  # per close(): (threads inside, reader slot)
        self._guard = threading.Lock()

    def _enter(self):
        with self._guard:
            self.inside += 1
            self.overlaps += self.inside > 1
            self.used_after_close += bool(self.closes)

    def _leave(self):
        with self._guard:
            self.inside -= 1

    def poll(self, timeout=0.0):
        self._enter()
        try:
            time.sleep(0 if self.replies else min(timeout, 0.001))
            return bool(self.replies)
        finally:
            self._leave()

    def recv(self, timeout=None):
        self._enter()
        try:
            time.sleep(0)
            return self.replies.pop()
        finally:
            self._leave()

    def close(self):
        self.closes.append((self.inside, self.handle.reader))


class _EchoComm:
    """Fails every shipped job at once, and signals the first shipment."""

    def __init__(self):
        self.replies = []
        self.shipped = threading.Event()

    def send(self, msg):
        pass

    def send_oob(self, msg):
        self.replies += [("fail", m[0], None) for m in msg[1]]
        self.shipped.set()

    def poll(self, timeout=0.0):
        return bool(self.replies)

    def recv(self, timeout=None):
        return self.replies.pop(0)

    def close(self):
        pass


class _CountingJob(PendingJob):
    """A job that counts how often it is resolved."""

    def __init__(self, jid):
        self.sets = 0
        super().__init__(jid, f"k{jid}", 1, False, {})

    @property
    def reply(self):
        return self._reply

    @reply.setter
    def reply(self, value):
        self.sets += value is not None
        self._reply = value


class _StubRuntime(RemoteRuntime):
    comm_kind = _RendezvousComm

    def __init__(self, channels=1, inflight=2, event_log=None):
        super().__init__(2, 0, event_log, None, None, channels, inflight)
        self._opened = itertools.count(1)

    def _open_channel(self, index=0):
        return PipelineChannel(self.comm_kind(), None, worker=next(self._opened))

    def _retire(self, handle):
        pass

    def _silent_reason(self, handle):
        return None


class _CorruptComm(_EchoComm):
    """A stream whose next header the decoder refuses."""

    def poll(self, timeout=0.0):
        raise frame.OversizedFrameError(1 << 40, frame.MAX_FRAME_BYTES)


class _DeadComm(_EchoComm):
    """A channel whose peer is already gone."""

    def poll(self, timeout=0.0):
        return True

    def recv(self, timeout=None):
        raise CommClosedError("peer gone")


class _SlowReplacementRuntime(_StubRuntime):
    """Opens channels of ``comm_kind``; once ``armed``, an open (the
    replacement) blocks until ``release`` is set."""

    armed = False

    def __init__(self, **kw):
        super().__init__(**kw)
        self.replacing, self.release = threading.Event(), threading.Event()

    def _open_channel(self, index=0):
        if self.armed:
            self.replacing.set()
            assert self.release.wait(10.0)
        return super()._open_channel(index)


class TestChannelLoss:
    def test_dead_comm_is_not_closed_under_its_drain_leader(self):
        # The fd-reuse hang: thread A finds the channel broken while
        # flushing and replaces it; the reader B sits between poll() and
        # recv() on the same comm.  Closing the comm under B frees its
        # fd number for the replacement's pipe, and B would then block
        # forever on a channel that is not its own.
        rt = _StubRuntime()
        handle = rt._open_channel()
        jobs = [_CountingJob(jid) for jid in (1, 2)]
        for p in jobs:
            handle.pending[p.jid] = p
        got = []
        reader = threading.Thread(
            target=lambda: got.append(rt._await_pipelined(handle, jobs[0]))
        )
        reader.start()
        assert handle.comm.in_recv.wait(10.0)
        rt._channel_lost(handle, "closed")  # thread A, reader still inside recv()
        assert handle.dead and handle.comm.closes == []
        handle.comm.release.set()
        reader.join(10.0)
        assert not reader.is_alive()
        # The reader closed it on its way out, and nobody closed it twice
        # while a reader was inside.
        assert handle.comm.closes == [False]
        assert got == [CRASHED]
        assert [(p.reply is CRASHED, p.sets) for p in jobs] == [(True, 1)] * 2
        assert rt.worker_crashes == 1
        # The replacement is in the pool with its whole window free: two
        # jobs can be placed on it, with no refill step, and not a third.
        (fresh,) = rt._pool.channels
        assert fresh is not handle and not fresh.dead
        assert [_place(rt._pool) for _ in range(3)] == [fresh, fresh, None]

    @pytest.mark.parametrize("seed", range(40))
    def test_one_reader_and_one_close_under_a_racing_teardown(self, seed):
        # K submitters on one channel, replies in random order, and a
        # thread that is no reader declaring the channel lost after a
        # random number of them, with threads switching every microsecond.
        rng = random.Random(seed)
        rt = _StubRuntime()
        jobs = [_CountingJob(jid) for jid in range(1, 5)]
        comm = _ShuffledComm([p.jid for p in jobs], rng)
        handle = comm.handle = PipelineChannel(comm, None)
        handle.pending.update((p.jid, p) for p in jobs)
        got = {}

        def submit(p):
            got[p.jid] = rt._await_pipelined(handle, p)

        def kill():  # once all but ``left`` replies are out
            left, deadline = rng.randint(0, len(jobs)), time.monotonic() + 10.0
            while len(comm.replies) > left and time.monotonic() < deadline:
                time.sleep(0)
            rt._channel_lost(handle, "closed")

        threads = [threading.Thread(target=submit, args=(p,), daemon=True) for p in jobs]
        threads.append(threading.Thread(target=kill, daemon=True))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert comm.overlaps == 0
        for p in jobs:
            assert p.sets == 1 and got[p.jid] is p.reply
            assert p.reply is CRASHED or p.reply == ("done", p.jid)
        # One close, with nobody inside the comm or holding the slot, and
        # nobody entering it afterwards.
        assert comm.closes == [(0, None)] and comm.used_after_close == 0
        assert rt.worker_crashes == 1

    def test_a_frame_error_is_a_transport_loss(self):
        # A header the decoder refuses is corruption (a worker refuses to
        # send an oversize reply), so it loses the channel, not the run.
        log = EventLog()
        rt = _StubRuntime(event_log=log)
        rt.comm_kind = _CorruptComm
        rt._ensure_pool()
        (handle,) = rt._pool.channels
        job = _CountingJob(1)
        handle.pending[1] = job
        assert rt._await_pipelined(handle, job) is CRASHED
        assert handle.dead and job.sets == 1 and rt.worker_crashes == 1
        (down,) = [e for e in log.events if e.kind is EventKind.WORKER_DOWN]
        assert down.key == "k1" and down.data["reason"] == "transport"
        (fresh,) = rt._pool.channels
        assert fresh is not handle and fresh.slot == handle.slot

    def test_crashed_jobs_resolve_before_the_replacement_opens(self):
        # The reader finds the channel dead and blocks opening its
        # replacement; its channel-mate's submitter must be told at once,
        # after WORKER_DOWN, and a recovery dispatched meanwhile must wait
        # for the replacement rather than build a second pool.
        log = EventLog()
        rt = _SlowReplacementRuntime(channels=1, inflight=2, event_log=log)
        rt.comm_kind = _DeadComm
        rt._ensure_pool()
        (handle,) = rt._pool.channels
        rt.armed, rt.comm_kind = True, _EchoComm
        logged = []  # the log's event kinds when the mate is resolved

        class Witness(_CountingJob):
            @property
            def reply(self):
                return self._reply

            @reply.setter
            def reply(self, value):
                if value is not None:
                    logged.append([e.kind for e in log.events])
                _CountingJob.reply.fset(self, value)

        reader_job, mate = _CountingJob(1), Witness(2)
        handle.pending.update({1: reader_job, 2: mate})
        handle.reader = reader_job
        got = {}

        def wait(p):
            got[p.jid] = rt._await_pipelined(handle, p)

        waiter = threading.Thread(target=wait, args=(mate,), daemon=True)
        reader = threading.Thread(target=wait, args=(reader_job,), daemon=True)
        waiter.start()
        reader.start()
        assert rt.replacing.wait(10.0)
        waiter.join(10.0)
        resolved_early = not waiter.is_alive() and not rt.release.is_set()
        retry = PendingJob(3, "k2", 2, False, {})
        retried = threading.Thread(
            target=lambda: got.update({3: rt._dispatch_job(_NoInputSpec(), retry, None)}),
            daemon=True,
        )
        retried.start()
        retried.join(0.1)
        parked = retried.is_alive()  # no channel to run on until the replacement joins
        rt.release.set()  # never leave a thread blocked, pass or fail
        for t in (reader, retried):
            t.join(10.0)
        assert resolved_early and parked
        assert logged == [[EventKind.WORKER_DOWN]] and mate.sets == 1
        (fresh,) = rt._pool.channels
        assert got == {1: CRASHED, 2: CRASHED, 3: (fresh, ("fail", 3, None))}
        assert fresh.info["worker"] == 2 and next(rt._opened) == 3  # no second pool
        assert [e.kind for e in log.events] == [EventKind.WORKER_DOWN, EventKind.WORKER_UP]

    def test_worker_up_precedes_every_event_on_the_replacement(self):
        # A submitter parked on a full pool gets the replacement's slot
        # the moment the pool adds it; the pool below lets it run until
        # it has pushed a payload there before the add returns.
        class YieldingPool(ChannelPool):
            armed = False

            def add(self, handle):
                super().add(handle)
                if self.armed:
                    assert handle.comm.shipped.wait(10.0)

        log = EventLog()
        rt = _StubRuntime(channels=1, inflight=1, event_log=log)
        rt.comm_kind = _EchoComm
        rt._pool = YieldingPool(1)
        rt._ensure_pool()
        (only,) = rt._pool.channels
        assert rt._pool.acquire({}, rt.aborted) is only  # the window is full
        job = PendingJob(1, "k1", 1, False, {("b", 0): np.ones(4)})
        got = []
        submitter = threading.Thread(
            target=lambda: got.append(rt._dispatch_job(_NoInputSpec(), job, None)), daemon=True
        )
        submitter.start()
        submitter.join(0.1)
        assert submitter.is_alive() and not got  # parked in acquire
        rt._pool.armed = True
        rt._channel_lost(only, "closed")
        submitter.join(10.0)
        assert not submitter.is_alive()
        (fresh,) = rt._pool.channels
        assert got == [(fresh, ("fail", 1, None))]
        worker = fresh.info["worker"]
        named = [e for e in log.events if e.data.get("worker") == worker]
        assert [e.kind for e in named] == [EventKind.WORKER_UP, EventKind.FETCH]
        assert named[1].data["mode"] == "push"


# ---------------------------------------------------------------------------
# combining sends


class _GatedComm:
    """Answers every shipped job with ``("done", jid)``; the first jobs
    message blocks inside ``send_oob`` until ``release`` is set."""

    def __init__(self):
        self.sent = []  # the jids of each jobs message, in wire order
        self.replies = []
        self.entered, self.release = threading.Event(), threading.Event()

    def send(self, msg):
        pass

    def send_oob(self, msg):
        if not self.sent:
            self.entered.set()
            assert self.release.wait(10.0)
        self.sent.append([m[0] for m in msg[1]])
        self.replies += [("done", m[0]) for m in msg[1]]

    def poll(self, timeout=0.0):
        if not self.replies:
            time.sleep(min(timeout, 0.001))
        return bool(self.replies)

    def recv(self, timeout=None):
        return self.replies.pop(0)

    def close(self):
        pass


class _BackpressureComm:
    """A single-threaded worker behind full socket buffers: it answers
    each job in order, and while a reply of its sits unread it reads
    nothing, so a jobs message sent then blocks until that reply is
    taken (or 10 s pass)."""

    def __init__(self):
        self.unread = []
        self.blocked = threading.Event()
        self._cond = threading.Condition()

    def send(self, msg):
        pass

    def send_oob(self, msg):
        with self._cond:
            if self.unread:
                self.blocked.set()
            assert self._cond.wait_for(lambda: not self.unread, 10.0)
            self.unread += [("done", m[0]) for m in msg[1]]
            self._cond.notify_all()

    def poll(self, timeout=0.0):
        with self._cond:
            return self._cond.wait_for(lambda: bool(self.unread), timeout)

    def recv(self, timeout=None):
        with self._cond:
            self._cond.notify_all()
            return self.unread.pop(0)

    def close(self):
        pass


class _FailOnceComm(_EchoComm):
    """Its first jobs message fails to pickle; later ones are answered
    ``("done", jid)``."""

    def send_oob(self, msg):
        if not self.shipped.is_set():
            self.shipped.set()
            raise pickle.PicklingError("cannot pickle the job")
        self.replies += [("done", m[0]) for m in msg[1]]


class TestCombiningSend:
    def test_a_job_queued_behind_a_flush_ships_in_the_flushers_next_burst(self):
        rt = _StubRuntime(channels=1, inflight=2)
        rt.comm_kind = _GatedComm
        rt._ensure_pool()
        (handle,) = rt._pool.channels
        got = {}

        def submit(jid):
            job = PendingJob(jid, f"k{jid}", 1, False, {})
            got[jid] = rt._dispatch_job(_NoInputSpec(), job, None)[1]

        first = threading.Thread(target=submit, args=(1,), daemon=True)
        first.start()
        assert handle.comm.entered.wait(10.0)  # job 1's submitter is sending, as flusher
        second = threading.Thread(target=submit, args=(2,), daemon=True)
        second.start()
        deadline = time.monotonic() + 10.0
        while not handle.outbox and time.monotonic() < deadline:
            time.sleep(0.001)
        assert handle.flushing and len(handle.outbox) == 1  # job 2 left to the flusher
        handle.comm.release.set()
        for t in (first, second):
            t.join(10.0)
            assert not t.is_alive()
        assert handle.comm.sent == [[1], [2]]
        assert got == {1: ("done", 1), 2: ("done", 2)}
        assert not handle.flushing and handle.reader is None and handle.outbox == []


    def test_a_flusher_blocked_on_a_full_socket_leaves_the_replies_to_a_channel_mate(self):
        # Job 1's reply is being written and job 2's message cannot go out
        # until someone reads it: the flusher of job 2 must not also hold
        # the only slot that reads.
        rt = _StubRuntime(channels=1, inflight=2)
        rt.comm_kind = _BackpressureComm
        rt._ensure_pool()
        (handle,) = rt._pool.channels
        mate = PendingJob(1, "k1", 1, False, {})
        handle.pending[1] = mate
        handle.comm.unread.append(("done", 1))
        got = {}

        def submit():
            job = PendingJob(2, "k2", 1, False, {})
            got[2] = rt._dispatch_job(_NoInputSpec(), job, None)[1]

        def wait_for_mate():
            got[1] = rt._await_pipelined(handle, mate)

        flusher = threading.Thread(target=submit, daemon=True)
        flusher.start()
        assert handle.comm.blocked.wait(10.0)  # job 2's flusher sits in send_oob
        reader = threading.Thread(target=wait_for_mate, daemon=True)
        reader.start()
        for t in (flusher, reader):
            t.join(5.0)
            assert not t.is_alive(), "no thread drained the reply the send waits behind"
        assert got == {1: ("done", 1), 2: ("done", 2)}
        assert not handle.flushing and handle.reader is None and not handle.pending

    def test_a_send_that_raises_leaves_no_role_behind(self):
        rt = _StubRuntime(channels=1, inflight=2)
        rt.comm_kind = _FailOnceComm
        rt._ensure_pool()
        (handle,) = rt._pool.channels
        with pytest.raises(pickle.PicklingError):
            rt._dispatch_job(_NoInputSpec(), PendingJob(1, "k1", 1, False, {}), None)
        assert not handle.flushing and handle.reader is None and not handle.pending
        got = []
        second = threading.Thread(
            target=lambda: got.append(
                rt._dispatch_job(_NoInputSpec(), PendingJob(2, "k2", 1, False, {}), None)[1]
            ),
            daemon=True,
        )
        second.start()
        second.join(5.0)
        assert not second.is_alive() and got == [("done", 2)]


# ---------------------------------------------------------------------------
# placement


def _channel():
    return PipelineChannel(_RendezvousComm(), None)


def _place(pool, values=None):
    """The channel the pool picks right now; ``None`` when no slot is free."""
    try:
        return pool.acquire(values or {}, lambda: True)
    except SchedulerError:
        return None


def _pool(channels, window=2):
    pool = ChannelPool(window)
    for h in channels:
        pool.add(h)
    return pool


class _PoolRuntime(_StubRuntime):
    """Stub runtime over ``channels`` idle stub channels."""

    def __init__(self, channels, inflight):
        super().__init__(channels, inflight)
        self._ensure_pool()


class TestPlacement:
    def test_two_submitters_on_two_idle_channels_land_apart(self):
        a, b = _channel(), _channel()
        pool = _pool([a, b])
        assert {_place(pool), _place(pool)} == {a, b}
        # ... and only then does anyone share a worker.
        assert {_place(pool), _place(pool)} == {a, b}
        assert _place(pool) is None

    def test_equal_load_goes_to_the_channel_idle_longest(self):
        a, b = _channel(), _channel()
        pool = _pool([a, b])
        for h in (a, b):
            assert _place(pool) is h
        pool.release(b)
        pool.release(a)
        assert [_place(pool) for _ in range(2)] == [b, a]

    def test_equal_load_goes_to_the_channel_holding_the_inputs(self):
        a, b = _channel(), _channel()
        pool = _pool([a, b])
        tile, other = np.ones(64), np.ones(8)
        b.resident.put(("t", 0), tile, tile.nbytes)
        a.resident.put(("o", 0), other, other.nbytes)
        values = {("t", 0): tile, ("o", 0): other}
        hits = (b.resident.hits, b.resident.misses)
        assert _place(pool, values) is b  # b misses 64 B, a 512 B
        assert (b.resident.hits, b.resident.misses) == hits  # a score is not a use
        # Load still comes first: b is busy now, so a gets the next one.
        assert _place(pool, values) is a

    def test_a_swapped_payload_does_not_count_as_held(self):
        # corrupt_data / a re-execution rewrite replace the stored
        # object: the worker's copy is of the old one.
        a, b = _channel(), _channel()
        pool = _pool([a, b])
        tile = np.ones(64)
        a.resident.put(("t", 0), tile, tile.nbytes)
        swapped = tile.copy()
        b.resident.put(("u", 0), swapped, 8)  # unrelated entry
        assert _place(pool, {("t", 0): tile}) is a
        pool.release(a)
        # a was freed last; with nothing held anywhere the tie goes to b.
        assert _place(pool, {("t", 0): swapped}) is b

    def test_a_channel_never_exceeds_its_window(self):
        channels = [_channel(), _channel()]
        pool = _pool(channels, window=2)
        over, placed = [], itertools.count()

        def submit():
            for _ in range(300):
                h = pool.acquire({}, lambda: False)
                if not 1 <= h.load <= 2:
                    over.append(h.load)
                next(placed)
                pool.release(h)

        # Six submitters for four slots, switching threads every 10 us.
        threads = [threading.Thread(target=submit) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not over and next(placed) == 1800
        assert [h.load for h in channels] == [0, 0]

    def test_dead_channel_is_never_picked_and_its_replacement_needs_no_refill(self):
        rt = _PoolRuntime(channels=2, inflight=2)
        dead, live = rt._pool.channels
        assert rt._pool.acquire({}, rt.aborted) is dead  # one job in flight on it
        rt._channel_lost(dead, "closed")
        fresh = next(h for h in rt._pool.channels if h is not live)
        assert fresh is not dead and dead not in rt._pool.channels
        rt._pool.release(dead)  # the crashed job's submitter unwinds
        picks = [_place(rt._pool) for _ in range(5)]
        assert picks.count(live) == 2 and picks.count(fresh) == 2 and picks[4] is None
        assert (live.load, fresh.load, rt.worker_crashes) == (2, 2, 1)

    def test_waiter_gets_the_slot_a_replacement_brings(self):
        # One channel, one slot, taken: the only way a slot appears is
        # the channel dying and being replaced.
        rt = _PoolRuntime(channels=1, inflight=1)
        (only,) = rt._pool.channels
        assert rt._pool.acquire({}, rt.aborted) is only
        got = []
        waiter = threading.Thread(target=lambda: got.append(rt._pool.acquire({}, rt.aborted)))
        waiter.start()
        waiter.join(0.1)
        assert waiter.is_alive() and not got
        rt._channel_lost(only, "closed")
        waiter.join(10.0)
        assert not waiter.is_alive()
        assert got == rt._pool.channels and got[0] is not only and got[0].load == 1


# ---------------------------------------------------------------------------
# runtime integration


def assert_identical(got, want):
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()
    else:
        assert got == want


def run_ft(app, runtime, shared=True, plan=None):
    store = app.make_store(True, shared=shared)
    trace = ExecutionTrace()
    hooks = FaultInjector(plan, app, store, trace) if plan is not None else None
    FTScheduler(app, runtime, store=store, hooks=hooks, trace=trace).run()
    result = app.extract(store)
    if shared:
        store.close()
    return result, trace


@pytest.mark.parametrize("app_name", ("lcs", "cholesky"))
class TestPipelinedParity:
    def test_procpool_shared_process_deep_window(self, app_name):
        # 3 scheduler threads feeding 1 worker process, 3 jobs in
        # flight: maximal batching/interleaving pressure on one pipe.
        app = make_app(app_name, scale="tiny")
        want, _ = run_ft(app, InlineRuntime(), shared=False)
        rt = ProcessRuntime(workers=3, seed=0, procs=1, inflight=3)
        got, _ = run_ft(app, rt)
        assert_identical(got, want)

    def test_procpool_fault_plan_parity(self, app_name):
        app = make_app(app_name, scale="tiny")
        plan = plan_faults(app, phase="after_compute", task_type="v=rand", count=2, seed=3)
        want, t0 = run_ft(app, InlineRuntime(), shared=False, plan=plan)
        rt = ProcessRuntime(workers=3, seed=0, procs=1, inflight=3)
        got, t1 = run_ft(app, rt, plan=plan)
        assert_identical(got, want)
        assert t0.total_recoveries > 0 and t1.total_recoveries > 0

    def test_cluster_shared_channel_deep_window(self, app_name):
        server = WorkerServer(f"inproc://fastpath-{next(_ids)}").start()
        try:
            app = make_app(app_name, scale="tiny")
            want, _ = run_ft(app, InlineRuntime(), shared=False)
            rt = ClusterRuntime(workers=3, seed=0, addresses=[server.address],
                                channels=1, inflight=3)
            got, _ = run_ft(app, rt, shared=False)
            assert_identical(got, want)
        finally:
            server.close()


class TestCrashMidPipeline:
    def test_procpool_crash_reexecutes_only_unfinished(self):
        # One worker process with three jobs in flight: the die-flagged
        # job kills it while its channel-mates are queued behind it.
        # Every key the run computed before the down-event's seq was
        # already streamed back and must not re-execute.
        app = make_app("lcs", scale="tiny")
        store = app.make_store(True, shared=True)
        log = EventLog()
        rt = ProcessRuntime(workers=3, seed=0, procs=1, inflight=3,
                            die_on=[(1, 1)], event_log=log)
        sched = FTScheduler(app, rt, store=store, event_log=log)
        sched.run()
        try:
            app.verify(store)
        finally:
            store.close()
        assert rt.worker_crashes == 1
        downs = [e for e in log.events if e.kind is EventKind.WORKER_DOWN]
        ups = [e for e in log.events if e.kind is EventKind.WORKER_UP]
        assert len(downs) == 1 and len(ups) == 1
        assert downs[0].key == (1, 1)
        assert downs[0].data["exitcode"] == CRASH_EXIT_CODE
        assert ups[0].seq > downs[0].seq
        # Only jobs that had not replied re-execute: every completed
        # incarnation (COMPUTE_END) before the crash stays completed --
        # no key both finished before the down and ran again after it.
        down_seq = downs[0].seq
        done_before = {e.key for e in log.events
                       if e.kind is EventKind.COMPUTE_END and e.seq < down_seq}
        began_after = {e.key for e in log.events
                       if e.kind is EventKind.COMPUTE_BEGIN and e.seq > down_seq}
        assert not (done_before & began_after)
        # The crashed jobs themselves recovered through the FT path.
        assert sched.trace.total_recoveries >= 1

    def test_cluster_crash_mid_pipeline_single_down(self):
        server = WorkerServer(f"inproc://fastpath-{next(_ids)}").start()
        try:
            app = make_app("lcs", scale="tiny")
            store = app.make_store(True)
            log = EventLog()
            rt = ClusterRuntime(workers=3, seed=0, addresses=[server.address],
                                channels=1, inflight=3, die_on=[(1, 1)],
                                event_log=log)
            sched = FTScheduler(app, rt, store=store, event_log=log)
            sched.run()
            app.verify(store)
            assert rt.worker_crashes == 1
            downs = [e for e in log.events if e.kind is EventKind.WORKER_DOWN]
            ups = [e for e in log.events if e.kind is EventKind.WORKER_UP]
            assert len(downs) == 1 and len(ups) == 1
            assert downs[0].key == (1, 1)
            assert ups[0].seq > downs[0].seq
            assert sched.trace.total_recoveries >= 1
        finally:
            server.close()


class TestQueuedAttribution:
    def test_queued_spans_tile_with_dispatch(self):
        app = make_app("lcs", scale="tiny")
        store = app.make_store(True, shared=True)
        log = EventLog()
        rt = ProcessRuntime(workers=2, seed=0, procs=1, inflight=2, event_log=log)
        sched = FTScheduler(app, rt, store=store, event_log=log)
        res = sched.run()
        store.close()
        report = attribute_run(log.events, res.run)
        # Queued time is bounded by its dispatch bracket per job, so in
        # aggregate kernel + queued never exceeds the dispatch walls ...
        disp = [e for e in log.events if e.kind is EventKind.SPAN
                and e.data.get("phase") == "dispatch"]
        queued = [e for e in log.events if e.kind is EventKind.SPAN
                  and e.data.get("phase") == "queued"]
        for q in queued:
            assert q.data["wall"] >= 0.0
        assert report.dispatch_count == len(disp)
        # ... and the overhead estimate subtracts it: never negative,
        # never above the raw round-trip mean.
        assert 0.0 <= report.dispatch_overhead_mean <= report.dispatch_mean
        assert report.categories.get("queued", 0.0) >= 0.0
        assert report.coverage >= 0.9
