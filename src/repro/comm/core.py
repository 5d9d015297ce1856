"""Comm core: the `connect`/`listen` entry points and the peer-loss error.

An *address* is ``scheme://location``; the scheme picks the transport:

========== ====================================================== ===========
scheme     transport                                              location
========== ====================================================== ===========
inproc     socketpair met by name in this process (tests, ledger) any token
tcp        dialed socket (ClusterRuntime)                         host:port
========== ====================================================== ===========

Every channel is one :class:`~repro.comm.tcp.SocketComm`: one frame
codec, one EOF path, and heartbeats wherever a
:class:`~repro.runtime.cluster.WorkerServer` serves it.  ``send(msg)``
and ``recv(timeout=...)`` move whole Python messages; both raise
:class:`CommClosedError` once the peer is gone, which is the *only*
failure signal callers handle -- a dead process, a severed socket, and
a missed heartbeat all collapse into it.  ``send`` and ``recv`` are
each safe from one thread at a time (one writer, one reader -- the
pattern every runtime here uses).  A listener (``TCPListener``,
``InprocListener``) invokes ``handler(comm)`` on its own thread for
each inbound connection.

A ``pipe://`` channel has no address: :func:`~repro.comm.pipe.pipe_pair`
builds both ends before a fork (what ``ProcessRuntime`` dispatches
over), so ``connect``/``listen`` refuse the scheme and name it.  A new
transport is one more branch in :func:`connect` and :func:`listen`.

:func:`retry_rounds` is the client-side backoff policy: bounded rounds
with jittered exponential backoff between them.  :func:`connect_with_retry`
dials one address once per round (a client racing a server's ``listen``
at startup); ``ClusterRuntime`` dials every worker address once per
round, at pool build and for a lost channel's replacement alike.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from repro.exceptions import ReproError

if TYPE_CHECKING:  # the transports import this module
    from repro.comm.inproc import InprocListener
    from repro.comm.tcp import SocketComm, TCPListener


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


#: The schemes :func:`connect` and :func:`listen` resolve.
SCHEMES = ("inproc", "pipe", "tcp")


def _route(addr: str) -> Address:
    parsed = parse_address(addr)
    if parsed.scheme == "pipe":
        raise ValueError("pipe:// has no address space; use repro.comm.pipe.pipe_pair()")
    if parsed.scheme not in SCHEMES:
        known = ", ".join(SCHEMES)
        raise ValueError(f"unknown comm scheme {parsed.scheme!r} (known: {known})")
    return parsed


def connect(addr: str) -> SocketComm:
    """Dial ``addr`` once; :class:`CommClosedError` if nobody is listening."""
    scheme, location = _route(addr)
    # The transports import this module, so they are imported at call time.
    if scheme == "tcp":
        from repro.comm.tcp import connect_tcp

        return connect_tcp(location)
    from repro.comm.inproc import connect_inproc

    return connect_inproc(location)


def listen(addr: str, handler: Callable[[SocketComm], None]) -> TCPListener | InprocListener:
    """Bind ``addr`` and serve inbound connections through ``handler``."""
    scheme, location = _route(addr)
    if scheme == "tcp":
        from repro.comm.tcp import listen_tcp

        return listen_tcp(location, handler)
    from repro.comm.inproc import listen_inproc

    return listen_inproc(location, handler)


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
