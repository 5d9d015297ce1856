"""Stream-socket transport: ``tcp://host:port``, and the comm every transport runs on.

:class:`SocketComm` drives one connected stream socket -- a TCP
connection, or one end of the ``socket.socketpair()`` that
:func:`~repro.comm.pipe.socket_pair` builds for a ``pipe://`` pair and
an ``inproc://`` connection -- so every channel speaks one wire format
through one set of frame rails:

* **Framing.**  A stream has no message boundaries, so every message
  rides the length-prefixed codec from :mod:`repro.comm.frame`; a
  :class:`~repro.comm.frame.FrameDecoder` per connection reassembles
  chunks into payloads and enforces the oversize ceiling before
  buffering.  A peer that dies mid-frame is peer loss
  (``CommClosedError``) caused by the decoder's ``TruncatedFrameError``.
* **Waiting.**  Each comm registers its socket once with a
  ``select.poll`` object, which has no ceiling on descriptor numbers.
* **Connect timeout.**  ``connect`` bounds the dial
  (:data:`CONNECT_TIMEOUT_SECONDS`); retry/backoff policy lives one
  level up in :func:`repro.comm.core.connect_with_retry`.
* **Heartbeat liveness.**  :meth:`SocketComm.start_heartbeat` sends a
  tiny protocol-level frame every ``interval`` seconds from a dedicated
  thread; whether to beat is the serving side's decision (a worker
  server beats, a forked pipe child does not).  The receiving side
  swallows heartbeats transparently (they never surface from ``recv``)
  and timestamps *every* inbound byte, so
  :meth:`SocketComm.idle_seconds` measures true peer silence: a parent
  that sees ``idle_seconds() > timeout`` on a connection whose worker
  should be heartbeating declares the worker dead even when the kernel
  never delivers an RST (the powered-off-node case).

``TCP_NODELAY`` is set on every inet connection: dispatch messages are
small and latency-bound, and Nagle would batch them against us.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from collections import deque
from typing import Any, Callable

from repro.comm import frame
from repro.comm.core import CommClosedError

#: Bound on one dial attempt (retry policy is connect_with_retry's job).
CONNECT_TIMEOUT_SECONDS = 5.0

#: Default gap between heartbeat frames (see docs/DISTRIBUTED.md for tuning).
HEARTBEAT_INTERVAL_SECONDS = 0.25

#: Socket read granularity.
_RECV_CHUNK = 1 << 16

#: A frame body this large reads straight off the socket into its final
#: buffer (``recv_into`` through the decoder's direct path); smaller
#: remainders stay on the chunked path, whose one copy is cheaper than
#: an extra syscall per small frame.
_DIRECT_RECV_MIN = 1 << 14

#: ``sendmsg`` gather lists are chunked to this many iovecs per call
#: (the kernel's IOV_MAX is typically 1024; Python does not expose it).
_IOV_CAP = 512

#: How many receive buffers a SocketComm keeps an eye on for recycling
#: before abandoning the oldest to its consumers.
_MAX_LENT = 64

#: Protocol-level liveness message; never surfaces from ``recv``.
_HEARTBEAT = ("__hb__",)


class SocketComm:
    """One bidirectional message channel over one connected stream socket.

    Messages are arbitrary picklable Python objects; delivery is ordered
    and reliable until the peer is lost, after which ``send`` and
    ``recv`` raise :class:`~repro.comm.core.CommClosedError`.
    """

    def __init__(self, sock: socket.socket, peer: str) -> None:
        sock.setblocking(True)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._poller = select.poll()
        self._poller.register(sock, select.POLLIN)
        self._pool = frame.BufferPool()
        self._decoder = frame.FrameDecoder(pool=self._pool)
        self._inbox: deque[Any] = deque()
        self._lent: list[frame.OOBFrame] = []
        self._send_lock = threading.Lock()
        self._closed = False
        self._eof = False
        self._last_recv = time.monotonic()
        self._hb_stop: threading.Event | None = None
        #: Set on the end a pipe hands to its child (see ``close``).
        self._handed_over = False
        self.peer = peer

    # -- sending ------------------------------------------------------------

    def _sendmsg_all(self, parts: list[Any]) -> None:
        """Gather-write every part (header, payload views) with
        ``socket.sendmsg`` -- no concatenation copy -- looping over
        partial sends and chunking long iovec lists (one part: ``sendall``).
        Caller holds the send lock."""
        try:
            if len(parts) == 1:
                self._sock.sendall(parts[0])
                return
            views = [memoryview(p) for p in parts if len(p)]
            while views:
                sent = self._sock.sendmsg(views[:_IOV_CAP])
                while sent:
                    head = views[0]
                    if head.nbytes <= sent:
                        sent -= head.nbytes
                        views.pop(0)
                    else:
                        views[0] = head[sent:]
                        sent = 0
        except OSError as exc:
            self._eof = True
            raise CommClosedError(f"peer {self.peer} gone during send: {exc}") from exc

    def send(self, message: Any) -> None:
        payload = frame.dumps(message)
        with self._send_lock:
            if self._closed:
                raise CommClosedError(f"send on closed comm to {self.peer}")
            self._sendmsg_all([frame._HEADER.pack(len(payload)), payload])  # verify: ok=blocking-under-lock (send_lock exists to serialize wire writes; sending under it is its purpose)

    def send_oob(self, message: Any) -> None:
        """Ship with protocol-5 out-of-band buffers: one multi-segment
        frame whose header + length table + segments go out as a single
        gather list -- block payloads travel straight from their source
        arrays to the socket."""
        parts = frame.encode_message_oob(message)
        with self._send_lock:
            if self._closed:
                raise CommClosedError(f"send on closed comm to {self.peer}")
            self._sendmsg_all(parts)  # verify: ok=blocking-under-lock (send_lock exists to serialize wire writes; sending under it is its purpose)

    def _try_send(self, message: Any) -> bool:
        """Best-effort send that refuses to wait for the send lock --
        the heartbeat path, so a multi-MiB transfer in flight (whose
        bytes refresh the peer's liveness clock anyway) is never queued
        behind by a liveness probe."""
        payload = frame.dumps(message)
        if not self._send_lock.acquire(blocking=False):
            return False
        try:
            if self._closed:
                raise CommClosedError(f"send on closed comm to {self.peer}")
            self._sendmsg_all([frame._HEADER.pack(len(payload)), payload])
        finally:
            self._send_lock.release()
        return True

    # -- receiving ----------------------------------------------------------

    def _sweep_lent(self) -> None:
        """Retry recycling receive buffers whose consumers have let go."""
        if self._lent:
            self._lent = [f for f in self._lent if not f.try_recycle()]
            del self._lent[:-_MAX_LENT]

    def _drain_decoder(self) -> None:
        inbox = self._inbox
        for payload in self._decoder.drain():
            if type(payload) is not bytes:  # an OOBFrame
                inbox.append(payload.load())
                if not payload.try_recycle():
                    self._lent.append(payload)
                continue
            message = frame.loads(payload)
            if message != _HEARTBEAT:  # liveness only; _last_recv already updated
                inbox.append(message)

    def _pump(self, timeout: float | None) -> None:
        """Read the socket until a data message is buffered, EOF, or
        ``timeout`` seconds (``None``: no limit) have passed."""
        self._sweep_lent()
        inbox = self._inbox
        wait_ms = None if timeout is None else timeout * 1000.0
        deadline = None if timeout is None else time.monotonic() + timeout
        while not inbox and not self._eof and not self._closed:
            if not self._poller.poll(wait_ms):
                return
            dest = self._decoder.direct_destination()
            try:
                if dest is not None and dest.nbytes >= _DIRECT_RECV_MIN:
                    # Large frame body: land the bytes in their final
                    # buffer straight off the socket, no staging copy.
                    n = self._sock.recv_into(dest)
                    dest.release()
                    if n == 0:
                        self._eof = True
                        return
                    now = self._last_recv = time.monotonic()
                    self._decoder.direct_advance(n)
                else:
                    if dest is not None:
                        dest.release()
                    chunk = self._sock.recv(_RECV_CHUNK)
                    if not chunk:
                        self._eof = True
                        return
                    now = self._last_recv = time.monotonic()
                    self._decoder.feed(chunk)  # OversizedFrameError propagates: protocol bug
            except OSError:
                self._eof = True
                return
            self._drain_decoder()
            if deadline is not None:
                # What is left for another round.  Past the deadline the wait is
                # non-blocking: poll(0) must still see bytes already in the socket.
                wait_ms = (deadline - now) * 1000.0 if now < deadline else 0.0

    def recv(self, timeout: float | None = None) -> Any:
        """The next message.  ``timeout=None`` blocks until a message or
        peer loss; a finite timeout raises :class:`TimeoutError` if
        nothing arrives in time (the peer may still be healthy)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._inbox:
                return self._inbox.popleft()
            if self._closed or self._eof:
                try:
                    self._decoder.close()
                except frame.TruncatedFrameError as exc:
                    raise CommClosedError(f"peer {self.peer} is gone mid-frame: {exc}") from exc
                raise CommClosedError(f"peer {self.peer} is gone")
            self._pump(None if deadline is None else max(0.0, deadline - time.monotonic()))
            if not self._inbox and not self._eof:
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(f"no message within {timeout}s from {self.peer}")

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether ``recv`` would return without blocking; True too once
        the channel is closed (``recv`` then raises)."""
        if self._inbox or self._closed or self._eof:
            return True
        self._pump(timeout)
        return bool(self._inbox) or self._eof

    # -- liveness -----------------------------------------------------------

    def idle_seconds(self) -> float:
        """Seconds since the last byte arrived from the peer (heartbeats
        count: a silent-but-heartbeating peer reads as alive)."""
        return time.monotonic() - self._last_recv

    def start_heartbeat(self, interval: float = HEARTBEAT_INTERVAL_SECONDS) -> None:
        """Send a liveness frame every ``interval`` seconds until close.

        The sender thread dies quietly when the peer does -- liveness
        *detection* is the receiving side's job (``idle_seconds``), and
        the application reader will see ``CommClosedError`` on its own.
        """
        if self._hb_stop is not None:
            return
        stop = threading.Event()
        self._hb_stop = stop

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    # Non-blocking: if a large transfer holds the send
                    # lock, skip the beat -- the in-flight bytes refresh
                    # the peer's liveness clock better than a heartbeat
                    # queued behind them would.
                    self._try_send(_HEARTBEAT)
                except CommClosedError:
                    return

        threading.Thread(target=beat, daemon=True, name="repro-heartbeat").start()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the channel.  Idempotent; never raises for a peer
        that beat us to it."""
        if self._closed:
            return
        self._closed = True
        if self._hb_stop is not None:
            self._hb_stop.set()
        if not self._handed_over:
            # Reaches the peer as EOF even while a forked process holds a
            # copy of the descriptor, and wakes a thread of ours parked
            # on the socket.  Never on the end a pipe hands to its
            # child: the child serves on that very socket.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def closed(self) -> bool:
        return self._closed or self._eof

    @property
    def connection(self) -> socket.socket:
        """The raw socket -- what a parent hands to ``Process(args=...)``
        so a child inherits this end (see :func:`repro.comm.pipe.wrap_connection`)."""
        return self._sock

    def __enter__(self) -> "SocketComm":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class TCPListener:
    """Accept loop on a bound socket; one handler thread per connection."""

    def __init__(self, host: str, port: int, handler: Callable[[SocketComm], None]) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(64)
        self._sock = sock
        self._handler = handler
        self._closed = False
        bound_host, bound_port = sock.getsockname()[:2]
        self.address = f"tcp://{bound_host}:{bound_port}"
        self.port = bound_port
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-tcp-accept"
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, addr = self._sock.accept()
            except OSError:
                return  # listener closed
            if self._closed:
                conn.close()  # raced close(): refuse, never serve
                return
            comm = SocketComm(conn, peer=f"tcp://{addr[0]}:{addr[1]}")
            threading.Thread(
                target=self._handler, args=(comm,), daemon=True, name="repro-tcp-serve"
            ).start()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # close() alone does not stop a thread parked in accept(): the
        # kernel socket stays listening until that call returns, so the
        # next connect would still succeed.  shutdown() wakes it.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5.0)


def _parse_hostport(location: str) -> tuple[str, int]:
    host, sep, port = location.rpartition(":")
    if not sep:
        raise ValueError(f"tcp address needs host:port, got {location!r}")
    return host or "127.0.0.1", int(port)


def connect_tcp(location: str) -> SocketComm:
    host, port = _parse_hostport(location)
    try:
        sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT_SECONDS)
    except OSError as exc:
        raise CommClosedError(f"connect to tcp://{host}:{port} failed: {exc}") from exc
    sock.settimeout(None)
    return SocketComm(sock, peer=f"tcp://{host}:{port}")


def listen_tcp(location: str, handler: Callable[[SocketComm], None]) -> TCPListener:
    host, port = _parse_hostport(location)
    return TCPListener(host, port, handler)
