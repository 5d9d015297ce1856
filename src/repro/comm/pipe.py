"""Pipe backend: ``pipe://``, a socketpair speaking the stream codec.

A pipe is the transport whose two ends are made together: the parent
builds the pair and a child process inherits one end at fork/spawn, so
there is no dial step.  Both ends are a
:class:`~repro.comm.tcp.SocketComm` over one ``socket.socketpair()``
(what ``multiprocessing.Pipe()`` builds on Linux as well), so a pipe
speaks the ``tcp://`` wire format, frame rails and out-of-band path.

:func:`pipe_pair` makes the pair; a comm's ``connection`` is what the
parent hands to ``Process(args=...)``, and :func:`wrap_connection`
adapts the end the child inherited.  The parent then closes its copy
of the child end, and ``close()`` on a socketpair end is a plain
descriptor close: the child's copy stays open.  ``connect``/``listen`` by address raise
``ValueError`` pointing at ``pipe_pair`` -- a pipe has no address space.
"""

from __future__ import annotations

import socket
from typing import Any, Callable

from repro.comm.core import Comm, Listener, register_backend
from repro.comm.tcp import SocketComm


def wrap_connection(conn: socket.socket, peer: str = "pipe://") -> SocketComm:
    """The comm over an inherited pipe end (a comm's ``connection``)."""
    return SocketComm(conn, peer)


def pipe_pair(ctx: Any | None = None) -> tuple[SocketComm, SocketComm]:
    """A connected ``(parent_comm, child_comm)`` pair.

    ``ctx`` (a ``multiprocessing`` context) is unused: any start method
    can hand a socket to a child."""
    parent, child = socket.socketpair()
    return SocketComm(parent, peer="pipe://child"), SocketComm(child, peer="pipe://parent")


def _no_connect(location: str) -> Comm:
    raise ValueError("pipe:// has no address space; use repro.comm.pipe.pipe_pair()")


def _no_listen(location: str, handler: Callable[[Comm], None]) -> Listener:
    raise ValueError("pipe:// has no address space; use repro.comm.pipe.pipe_pair()")


register_backend("pipe", _no_connect, _no_listen)
