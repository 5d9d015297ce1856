"""In-process loopback backend: ``inproc://<name>``.

Two queues and no bytes on the wire -- but the *messages* still pass
through the payload codec (:func:`repro.comm.frame.dumps` /
:func:`~repro.comm.frame.loads`), so anything that is not wire-safe
fails here too, in a plain single-process test, before it ever reaches
a pipe or a socket.  This is the backend the comm tests and the cluster
tests' connection-sever path run on.

Listeners live in a process-local registry keyed by name; ``connect``
performs a rendezvous: it builds the queue pair, hands the server side
to the listener's handler (run on a listener-owned thread, matching the
TCP backend's threading shape), and returns the client side.

Severing: :meth:`InprocComm.sever` drops the channel *without* the
polite close handshake -- the peer just stops hearing from us, exactly
like a yanked network cable.  The cluster runtime uses this to test the
connection-severed recovery path without killing any process.
"""

from __future__ import annotations

import itertools
import queue
import threading
from typing import Any, Callable, NamedTuple

from repro.comm import frame
from repro.comm.core import Comm, CommClosedError, Listener, register_backend

#: Sentinel a closing endpoint enqueues so the peer's blocking recv wakes.
_CLOSED = object()


class _OOBItem(NamedTuple):
    """A queue item produced by ``send_oob``: the pickle-5 meta stream
    plus the extracted :class:`pickle.PickleBuffer` views.  In-process
    the views alias the *sender's* buffers directly -- true zero copy --
    which is safe because block payloads are write-once by the store
    discipline (and the same aliasing the shm path already exposes)."""

    meta: bytes
    buffers: tuple


class InprocComm(Comm):
    """One side of a loopback channel (a send queue and a recv queue)."""

    def __init__(self, send_q: "queue.Queue[Any]", recv_q: "queue.Queue[Any]", peer: str) -> None:
        self._send_q = send_q
        self._recv_q = recv_q
        self._closed = False
        self._peer_gone = False
        self._head: Any = None  # payload buffered by poll()
        self._has_head = False
        self.peer = peer

    def send(self, message: Any) -> None:
        if self._closed or self._peer_gone:
            raise CommClosedError(f"send on closed inproc comm to {self.peer}")
        # Encode even though no bytes move: wire-safety is enforced on
        # every backend, so pickle failures surface in loopback tests.
        self._send_q.put(frame.dumps(message))

    def send_oob(self, message: Any) -> None:
        if self._closed or self._peer_gone:
            raise CommClosedError(f"send on closed inproc comm to {self.peer}")
        meta, buffers = frame.dumps_oob(message)
        self._send_q.put(_OOBItem(meta, tuple(buffers)))

    @staticmethod
    def _decode(item: Any) -> Any:
        if isinstance(item, _OOBItem):
            return frame.loads_oob(item.meta, item.buffers)
        return frame.loads(item)

    def recv(self, timeout: float | None = None) -> Any:
        if self._has_head:
            payload, self._head, self._has_head = self._head, None, False
            return self._decode(payload)
        if self._closed or self._peer_gone:
            raise CommClosedError(f"recv on closed inproc comm to {self.peer}")
        try:
            item = self._recv_q.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(f"no message within {timeout}s from {self.peer}") from None
        if item is _CLOSED:
            self._peer_gone = True
            raise CommClosedError(f"inproc peer {self.peer} closed")
        return self._decode(item)

    def poll(self, timeout: float = 0.0) -> bool:
        if self._has_head or self._closed or self._peer_gone:
            return True
        try:
            item = self._recv_q.get(timeout=timeout if timeout > 0 else None) \
                if timeout > 0 else self._recv_q.get_nowait()
        except queue.Empty:
            return False
        if item is _CLOSED:
            self._peer_gone = True
        else:
            self._head, self._has_head = item, True
        return True

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._send_q.put(_CLOSED)

    def sever(self) -> None:
        """Die impolitely: stop the channel with no close notification.

        The peer's next blocking ``recv`` still has to wake, so the
        sentinel is enqueued -- what "impolite" means here is that *this*
        side refuses all further traffic immediately, mid-protocol,
        regardless of handshake state.
        """
        self._closed = True
        self._peer_gone = True
        self._send_q.put(_CLOSED)

    @property
    def closed(self) -> bool:
        return self._closed or self._peer_gone


class InprocListener(Listener):
    def __init__(self, name: str, handler: Callable[[Comm], None]) -> None:
        self.address = f"inproc://{name}"
        self._name = name
        self._handler = handler
        self._closed = False
        self._threads: list[threading.Thread] = []

    def _accept(self, server_comm: InprocComm) -> None:
        if self._closed:
            raise CommClosedError(f"listener {self.address} is closed")
        t = threading.Thread(
            target=self._handler, args=(server_comm,), daemon=True, name="repro-inproc-accept"
        )
        self._threads.append(t)
        t.start()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with _REGISTRY_LOCK:
            if _REGISTRY.get(self._name) is self:
                del _REGISTRY[self._name]


_REGISTRY: dict[str, InprocListener] = {}
_REGISTRY_LOCK = threading.Lock()
_ANON = itertools.count()


def _listen(location: str, handler: Callable[[Comm], None]) -> Listener:
    name = location or f"anon-{next(_ANON)}"
    listener = InprocListener(name, handler)
    with _REGISTRY_LOCK:
        if name in _REGISTRY:
            raise OSError(f"inproc://{name} is already bound")
        _REGISTRY[name] = listener
    return listener


def _connect(location: str) -> Comm:
    with _REGISTRY_LOCK:
        listener = _REGISTRY.get(location)
    if listener is None:
        raise CommClosedError(f"nobody listening on inproc://{location}")
    a_to_b: queue.Queue[Any] = queue.Queue()
    b_to_a: queue.Queue[Any] = queue.Queue()
    client = InprocComm(a_to_b, b_to_a, peer=f"inproc://{location}")
    server = InprocComm(b_to_a, a_to_b, peer=f"inproc://{location}#client")
    listener._accept(server)
    return client


register_backend("inproc", _connect, _listen)
