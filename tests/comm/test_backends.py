"""Transport contract tests: every transport speaks the same SocketComm surface,
and peer loss on every transport collapses into CommClosedError."""

import itertools
import multiprocessing
import os
import resource
import threading
import time

import numpy as np
import pytest

from repro import comm
from repro.comm.pipe import pipe_pair, wrap_connection
from repro.comm.tcp import SocketComm

_ids = itertools.count()


def _echo_handler(c):
    """Server loop: echo every message until the peer goes away."""
    while True:
        try:
            msg = c.recv()
        except comm.CommClosedError:
            return
        c.send(("echo", msg))


@pytest.fixture
def inproc_echo():
    lis = comm.listen(f"inproc://echo-{next(_ids)}", _echo_handler)
    yield lis
    lis.close()


@pytest.fixture
def tcp_echo():
    lis = comm.listen("tcp://127.0.0.1:0", _echo_handler)
    yield lis
    lis.close()


class TestAddressing:
    def test_parse_address(self):
        addr = comm.parse_address("tcp://10.0.0.1:7070")
        assert addr.scheme == "tcp" and addr.location == "10.0.0.1:7070"
        assert str(addr) == "tcp://10.0.0.1:7070"

    def test_malformed_address_rejected(self):
        with pytest.raises(ValueError):
            comm.parse_address("no-scheme-here")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown comm scheme"):
            comm.connect("carrier-pigeon://roof")

    def test_pipe_scheme_has_no_address_space(self):
        with pytest.raises(ValueError, match="pipe_pair"):
            comm.connect("pipe://anywhere")

    def test_tcp_listener_reports_bound_port(self, tcp_echo):
        assert tcp_echo.address.startswith("tcp://127.0.0.1:")
        assert not tcp_echo.address.endswith(":0")


class TestRoundTrips:
    def test_inproc_round_trip(self, inproc_echo):
        with comm.connect(inproc_echo.address) as c:
            c.send({"x": [1, 2, 3]})
            assert c.recv(timeout=5) == ("echo", {"x": [1, 2, 3]})

    def test_tcp_round_trip(self, tcp_echo):
        with comm.connect(tcp_echo.address) as c:
            c.send(("job", (0, 1), [("b", 0)], False))
            assert c.recv(timeout=5) == ("echo", ("job", (0, 1), [("b", 0)], False))

    def test_pipe_round_trip(self):
        a, b = pipe_pair()
        a.send([1, b"bytes", None])
        assert b.recv(timeout=5) == [1, b"bytes", None]
        b.send("back")
        assert a.recv(timeout=5) == "back"
        a.close()
        b.close()

    def test_tcp_ordering_many_messages(self, tcp_echo):
        with comm.connect(tcp_echo.address) as c:
            for i in range(200):
                c.send(i)
            got = [c.recv(timeout=5)[1] for _ in range(200)]
        assert got == list(range(200))

    def test_recv_timeout_leaves_channel_usable(self, tcp_echo):
        with comm.connect(tcp_echo.address) as c:
            with pytest.raises(TimeoutError):
                c.recv(timeout=0.05)
            c.send("after-timeout")
            assert c.recv(timeout=5) == ("echo", "after-timeout")

    def test_both_inproc_ends_are_socket_comms(self):
        sender, receiver, cleanup = _pair("inproc")
        try:
            assert type(sender) is type(receiver) is SocketComm
        finally:
            cleanup()

    def test_poll_reflects_pending_data(self, inproc_echo):
        with comm.connect(inproc_echo.address) as c:
            assert not c.poll(0.01)
            c.send(1)
            assert c.poll(5.0)
            assert c.recv(timeout=5) == ("echo", 1)


def _pair(kind):
    """A connected ``(sender, receiver, cleanup)`` on transport ``kind``."""
    if kind == "pipe":
        a, b = pipe_pair()
        return a, b, lambda: (a.close(), b.close())
    accepted = []
    parked = threading.Event()

    def handler(c):
        accepted.append(c)
        parked.wait(10.0)  # keep the server end open, and never read it

    addr = "tcp://127.0.0.1:0" if kind == "tcp" else f"inproc://poll0-{next(_ids)}"
    lis = comm.listen(addr, handler)
    client = comm.connect(lis.address)
    deadline = time.monotonic() + 5.0
    while not accepted and time.monotonic() < deadline:
        time.sleep(0.001)
    return accepted[0], client, lambda: (parked.set(), client.close(), lis.close())


@pytest.mark.parametrize("kind", ("tcp", "pipe", "inproc"))
class TestPollZero:
    """``poll(0)`` (the default timeout) must look at the transport: a
    message that has arrived is reported without any ``recv`` having
    decoded it first.  ``_read_channel`` relies on it to keep a reply
    that raced a liveness verdict."""

    def test_poll_zero_sees_an_arrived_message(self, kind):
        sender, receiver, cleanup = _pair(kind)
        try:
            assert not receiver.poll(0)
            assert not receiver.poll()
            sender.send(("done", 1))
            deadline = time.monotonic() + 5.0
            while not receiver.poll(0) and time.monotonic() < deadline:
                time.sleep(0.001)  # loopback delivery is not instantaneous
            assert receiver.poll(0) and receiver.poll()
            assert receiver.recv(timeout=5) == ("done", 1)
            assert not receiver.poll(0)
        finally:
            cleanup()


@pytest.fixture
def fds_past_1024():
    """Hold 1 100 descriptors open, so the next sockets land past
    ``select()``'s FD_SETSIZE.  A parent gets there for real: every live
    shm segment keeps a descriptor open."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = 1200
    if hard != resource.RLIM_INFINITY and hard < want:
        pytest.skip(f"RLIMIT_NOFILE hard limit {hard} < {want}")
    if soft != resource.RLIM_INFINITY and soft < want:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
    held = []
    try:
        held.extend(os.open(os.devnull, os.O_RDONLY) for _ in range(1100))
        yield
    finally:
        for fd in held:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


@pytest.mark.parametrize("kind", ("tcp", "pipe"))
def test_round_trip_on_a_descriptor_past_1024(fds_past_1024, kind):
    # select.select raises ValueError on such a descriptor; a comm that
    # read that as EOF declared a live peer dead with a message waiting.
    sender, receiver, cleanup = _pair(kind)
    try:
        assert receiver.connection.fileno() >= 1024
        sender.send(("done", 1))
        assert receiver.poll(5.0)
        assert not receiver.closed
        assert receiver.recv(timeout=5) == ("done", 1)
    finally:
        cleanup()


def _echo_until_stop(raw):
    """A forked peer on an inherited pipe end: echo every message out of
    band until ``stop``."""
    c = wrap_connection(raw, peer="pipe://parent")
    while (msg := c.recv()) != "stop":
        c.send_oob(("echo", msg))
    c.close()


def test_pipe_round_trips_after_parent_closes_the_handed_off_end():
    # ProcessRuntime's channel-opening sequence: fork a peer on the child
    # end, then close the parent's copy.  That close must be a plain
    # descriptor close -- shutdown() acts on the one socket both
    # processes share and would sever the peer.
    mp = multiprocessing.get_context("fork")
    chan, child = pipe_pair(mp)
    proc = mp.Process(target=_echo_until_stop, args=(child.connection,), daemon=True)
    proc.start()
    child.close()
    try:
        chan.send("plain")
        assert chan.recv(timeout=10) == ("echo", "plain")
        arr = np.arange(64 * 1024, dtype=np.float64)  # 512 KiB: rides out of band
        chan.send_oob(("data", arr))
        tag, (tag2, out) = chan.recv(timeout=10)
        assert (tag, tag2) == ("echo", "data")
        np.testing.assert_array_equal(out, arr)
        chan.send("stop")
        proc.join(timeout=10)
        assert proc.exitcode == 0
    finally:
        if proc.is_alive():
            proc.terminate()
        chan.close()


class TestPeerLoss:
    def test_inproc_connect_to_nobody(self):
        with pytest.raises(comm.CommClosedError):
            comm.connect("inproc://nobody-home")

    def test_tcp_connect_refused(self):
        # close() must stop a listener whose accept thread is already
        # parked in accept(): closing the fd alone leaves the kernel
        # socket listening until that call returns, and the next
        # connect would be accepted and served.
        served = []
        lis = comm.listen("tcp://127.0.0.1:0", served.append)
        time.sleep(0.1)  # let the accept thread reach accept()
        lis.close()
        with pytest.raises(comm.CommClosedError):
            comm.connect(lis.address)
        time.sleep(0.05)
        assert not served

    @pytest.mark.parametrize("kind", ("tcp", "inproc"))
    def test_peer_close_surfaces_on_recv(self, kind):
        # On inproc this is also how a connection is lost: an injected
        # death on an in-process server closes the server end.
        def close_handler(c):
            c.recv()
            c.close()

        addr = "tcp://127.0.0.1:0" if kind == "tcp" else f"inproc://close-{next(_ids)}"
        lis = comm.listen(addr, close_handler)
        try:
            c = comm.connect(lis.address)
            c.send("bye")
            with pytest.raises(comm.CommClosedError):
                c.recv(timeout=5)
            assert c.closed
        finally:
            lis.close()

    def test_inproc_close_reaches_the_peer_while_a_fork_holds_copies(self):
        # A forked process inherits every descriptor open at the fork,
        # inproc ends included (a ProcessRuntime worker forked while an
        # in-process cluster runs).  A plain descriptor close would leave
        # the socket open in the fork, and the peer would never see EOF.
        sender, client, cleanup = _pair("inproc")
        sleeper = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(60,), daemon=True
        )
        sleeper.start()
        try:
            sender.close()
            with pytest.raises(comm.CommClosedError):
                client.recv(timeout=5)
        finally:
            sleeper.terminate()
            sleeper.join(timeout=5)
            cleanup()

    def test_pipe_send_after_peer_close(self):
        a, b = pipe_pair()
        b.close()
        with pytest.raises(comm.CommClosedError):
            # The OS may buffer the first send; the pair must fail
            # within a bounded number of attempts, never silently.
            for _ in range(10):
                a.send("into the void")
                time.sleep(0.01)
        a.close()

    def test_send_on_locally_closed_comm(self, tcp_echo):
        c = comm.connect(tcp_echo.address)
        c.close()
        with pytest.raises(comm.CommClosedError):
            c.send("late")


class TestRetryAndHeartbeat:
    def test_connect_with_retry_waits_for_listener(self):
        name = f"inproc://late-{next(_ids)}"
        holder = {}

        def bind_late():
            time.sleep(0.15)
            holder["lis"] = comm.listen(name, _echo_handler)

        t = threading.Thread(target=bind_late)
        t.start()
        try:
            c = comm.connect_with_retry(name, attempts=10, base_delay=0.05)
            c.send("made it")
            assert c.recv(timeout=5) == ("echo", "made it")
            c.close()
        finally:
            t.join()
            holder["lis"].close()

    def test_connect_with_retry_exhausts_attempts(self):
        t0 = time.perf_counter()
        with pytest.raises(comm.CommClosedError, match="after 3 attempts"):
            comm.connect_with_retry("inproc://never", attempts=3, base_delay=0.01)
        assert time.perf_counter() - t0 < 5.0

    def test_heartbeats_keep_idle_clock_fresh_and_stay_invisible(self):
        def beating_handler(c):
            c.start_heartbeat(interval=0.05)
            try:
                while True:
                    c.send(("echo", c.recv()))
            except comm.CommClosedError:
                return

        lis = comm.listen("tcp://127.0.0.1:0", beating_handler)
        try:
            with comm.connect(lis.address) as c:
                c.send("prime")
                assert c.recv(timeout=5) == ("echo", "prime")
                # No data flows for several beat intervals.  Poll the way
                # the runtime's await loop does (pumping timestamps the
                # inbound heartbeats): the idle clock stays fresh while
                # recv-level traffic sees nothing -- heartbeats are
                # swallowed below the message layer.
                deadline = time.monotonic() + 0.5
                while time.monotonic() < deadline:
                    assert not c.poll(0.05)
                assert c.idle_seconds() < 0.4
                c.send("still-works")
                assert c.recv(timeout=5) == ("echo", "still-works")
        finally:
            lis.close()

    def test_idle_clock_grows_without_heartbeats(self, tcp_echo):
        with comm.connect(tcp_echo.address) as c:
            c.send("prime")
            assert c.recv(timeout=5) == ("echo", "prime")
            time.sleep(0.3)
            assert c.idle_seconds() >= 0.25
