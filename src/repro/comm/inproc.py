"""In-process transport: ``inproc://<name>``, a named socketpair rendezvous.

Listeners live in a process-local registry keyed by name.  ``connect``
builds a socketpair (:func:`repro.comm.pipe.socket_pair`), hands the
server end to the listener's handler on a thread of its own -- the TCP
listener's threading shape -- and returns the client end.  Both ends are
:class:`~repro.comm.tcp.SocketComm`, so an in-process connection runs
the framing, decoder, EOF and heartbeat path of ``pipe://`` and
``tcp://``; only the dial differs.  Losing a connection is closing an
end: its peer's next ``recv`` raises
:class:`~repro.comm.core.CommClosedError`.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable

from repro.comm.core import CommClosedError
from repro.comm.pipe import socket_pair
from repro.comm.tcp import SocketComm


class InprocListener:
    """A name in this process's rendezvous registry until ``close``."""

    def __init__(self, name: str, handler: Callable[[SocketComm], None]) -> None:
        self.address = f"inproc://{name}"
        self.handler = handler
        self._name = name

    def close(self) -> None:
        with _REGISTRY_LOCK:
            if _REGISTRY.get(self._name) is self:
                del _REGISTRY[self._name]


_REGISTRY: dict[str, InprocListener] = {}
_REGISTRY_LOCK = threading.Lock()
_ANON = itertools.count()


def listen_inproc(location: str, handler: Callable[[SocketComm], None]) -> InprocListener:
    name = location or f"anon-{next(_ANON)}"
    listener = InprocListener(name, handler)
    with _REGISTRY_LOCK:
        if name in _REGISTRY:
            raise OSError(f"inproc://{name} is already bound")
        _REGISTRY[name] = listener
    return listener


def connect_inproc(location: str) -> SocketComm:
    with _REGISTRY_LOCK:
        listener = _REGISTRY.get(location)
    if listener is None:
        raise CommClosedError(f"nobody listening on inproc://{location}")
    client, server = socket_pair(f"inproc://{location}", f"inproc://{location}#client")
    threading.Thread(
        target=listener.handler, args=(server,), daemon=True, name="repro-inproc-serve"
    ).start()
    return client
