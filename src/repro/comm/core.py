"""Comm core: the `connect`/`listen` entry points and the `Comm` contract.

An *address* is ``scheme://location``; the scheme picks a backend:

========== ====================================================== ===========
scheme     transport                                              location
========== ====================================================== ===========
inproc     socketpair met by name in this process (tests, ledger) any token
pipe       socketpair handed to a forked child (ProcessRuntime)   (unused)
tcp        dialed socket (ClusterRuntime)                         host:port
========== ====================================================== ===========

Every scheme's channel is one :class:`~repro.comm.tcp.SocketComm`: one
frame codec, one EOF path, and heartbeats wherever a
:class:`~repro.runtime.cluster.WorkerServer` serves it.  Every backend
hands out the same two objects:

* :class:`Comm` -- one bidirectional message channel.  ``send(msg)`` and
  ``recv(timeout=...)`` move whole Python messages (the frame codec is a
  transport detail); both raise :class:`CommClosedError` once the peer
  is gone, which is the *only* failure signal callers handle -- a dead
  process, a severed socket, and a missed heartbeat all collapse into
  it.  ``send`` and ``recv`` are each safe from one thread at a time
  (one writer, one reader -- the pattern every runtime here uses); they
  need not be safe against concurrent calls to the *same* method.
* :class:`Listener` -- an accept loop that invokes ``handler(comm)`` on
  its own thread for each inbound connection.

``connect``/``listen`` resolve the scheme through a registry the three
backend modules populate on import, so adding a transport is a module +
one :func:`register_backend` call -- the runtimes never name a backend.

:func:`retry_rounds` is the client-side backoff policy: bounded rounds
with jittered exponential backoff between them.  :func:`connect_with_retry`
dials one address once per round (a client racing a server's ``listen``
at startup); ``ClusterRuntime`` dials every worker address once per
round, at pool build and for a lost channel's replacement alike.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple

from repro.exceptions import ReproError

if TYPE_CHECKING:  # every backend's channel; tcp imports this module
    from repro.comm.tcp import SocketComm


class CommClosedError(ReproError):
    """The peer is gone: closed, crashed, severed, or heartbeat-silent.

    Deliberately one class for every flavor of peer loss -- callers
    (``ProcessRuntime._submit``, ``ClusterRuntime``) translate it into
    the ``WORKER_DOWN`` → ``WorkerCrashError`` recovery path without
    caring *how* the peer died.
    """

    def __init__(self, message: str = "comm closed") -> None:
        super().__init__(message)


class Address(NamedTuple):
    """A parsed ``scheme://location`` address."""

    scheme: str
    location: str

    def __str__(self) -> str:  # round-trips through parse_address
        return f"{self.scheme}://{self.location}"


def parse_address(addr: str) -> Address:
    """Split ``scheme://location``; raise on a missing/unknown-less scheme."""
    scheme, sep, location = addr.partition("://")
    if not sep or not scheme:
        raise ValueError(f"address {addr!r} is not of the form scheme://location")
    return Address(scheme, location)


class Comm:
    """One bidirectional message channel between two endpoints.

    Subclasses implement the five primitives below.  Messages are
    arbitrary picklable Python objects; delivery is ordered and
    reliable until the peer is lost, after which every primitive
    raises :class:`CommClosedError`.
    """

    #: Human-readable peer address, for telemetry.
    peer: str = "?"

    def send(self, message: Any) -> None:
        """Ship one message; raises :class:`CommClosedError` on a dead peer."""
        raise NotImplementedError

    def send_oob(self, message: Any) -> None:
        """Ship one message with protocol-5 out-of-band buffer treatment:
        large contiguous payloads (numpy blocks, pre-encoded
        ``frame.Encoded`` segments) travel as scattered buffer segments
        instead of being copied into the pickle stream.

        Semantically identical to :meth:`send` -- same ordering, same
        failure signal, and the receiver's plain ``recv`` returns the
        reconstructed message (buffer payloads may arrive as read-only
        views over a transport buffer; see ``frame.OOBFrame`` for the
        ownership rule).  The base implementation falls back to plain
        ``send``: without a ``buffer_callback``, protocol-5 pickling
        serializes every buffer in-band, which is always correct, just
        not zero-copy.  Backends override with a vectored path.
        """
        self.send(message)

    def recv(self, timeout: float | None = None) -> Any:
        """The next message.  ``timeout=None`` blocks until a message or
        peer loss; a finite timeout raises :class:`TimeoutError` if
        nothing arrives in time (the peer may still be healthy)."""
        raise NotImplementedError

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether ``recv`` would return without blocking.  Returns True
        too when the channel is closed -- the pending "message" is the
        :class:`CommClosedError` that recv will raise."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the channel.  Idempotent; never raises for a peer
        that beat us to it."""
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError

    # context-manager sugar: every test closes comms this way
    def __enter__(self) -> "Comm":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class Listener:
    """An accept loop bound to an address.

    ``handler(comm)`` runs on a listener-owned thread per inbound
    connection.  ``address`` is the concrete bound address (e.g. with
    the kernel-assigned port filled in), suitable for handing to a
    worker process as its connect target.
    """

    address: str = "?"

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Listener":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# scheme registry


class _Backend(NamedTuple):
    connect: Callable[[str], SocketComm]
    listen: Callable[[str, Callable[[SocketComm], None]], Listener]


_BACKENDS: dict[str, _Backend] = {}


def register_backend(
    scheme: str,
    connect: Callable[[str], SocketComm],
    listen: Callable[[str, Callable[[SocketComm], None]], Listener],
) -> None:
    """Install a transport for ``scheme`` (called by backend modules on import)."""
    _BACKENDS[scheme] = _Backend(connect, listen)


def _backend(addr: str) -> tuple[_Backend, Address]:
    parsed = parse_address(addr)
    try:
        return _BACKENDS[parsed.scheme], parsed
    except KeyError:
        known = ", ".join(sorted(_BACKENDS)) or "none registered"
        raise ValueError(f"unknown comm scheme {parsed.scheme!r} (known: {known})") from None


def connect(addr: str) -> SocketComm:
    """Dial ``addr`` once; :class:`CommClosedError` if nobody is listening."""
    backend, parsed = _backend(addr)
    return backend.connect(parsed.location)


def listen(addr: str, handler: Callable[[SocketComm], None]) -> Listener:
    """Bind ``addr`` and serve inbound connections through ``handler``."""
    backend, parsed = _backend(addr)
    return backend.listen(parsed.location, handler)


def retry_rounds(
    attempts: int,
    base_delay: float = 0.05,
    max_delay: float = 1.0,
    rng: random.Random | None = None,
) -> Iterator[int]:
    """Yield round numbers ``0 .. attempts-1``, sleeping
    ``min(max_delay, base_delay * 2**i) * uniform(0.5, 1.0)`` after round
    ``i`` -- full-jitter-style, so a fleet of clients dialing one
    freshly-bound server does not stampede in lockstep.  The caller
    leaves the loop on success."""
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    rng = rng if rng is not None else random.Random()
    for i in range(attempts):
        if i:
            delay = min(max_delay, base_delay * (2.0 ** (i - 1)))
            time.sleep(delay * (0.5 + 0.5 * rng.random()))
        yield i


def connect_with_retry(
    addr: str,
    attempts: int = 8,
    base_delay: float = 0.05,
    max_delay: float = 1.0,
    rng: random.Random | None = None,
) -> SocketComm:
    """Dial ``addr`` once per :func:`retry_rounds` round; raises the
    final :class:`CommClosedError` once the budget is spent."""
    last: Exception | None = None
    for _ in retry_rounds(attempts, base_delay, max_delay, rng):
        try:
            return connect(addr)
        except (CommClosedError, OSError) as exc:
            last = exc
    raise CommClosedError(f"connect to {addr} failed after {attempts} attempts: {last}")
