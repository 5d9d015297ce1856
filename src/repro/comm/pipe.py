"""Pipe transport: ``pipe://``, a socketpair speaking the stream codec.

A pipe is the transport whose two ends are made together: the parent
builds the pair and a child process inherits one end at fork/spawn, so
there is no dial step.  Both ends are a
:class:`~repro.comm.tcp.SocketComm` over one ``socket.socketpair()``
(what ``multiprocessing.Pipe()`` builds on Linux as well), so a pipe
speaks the ``tcp://`` wire format, frame rails and out-of-band path.

:func:`pipe_pair` makes the pair; a comm's ``connection`` is what the
parent hands to ``Process(args=...)``, and :func:`wrap_connection`
adapts the end the child inherited.  The parent then closes its copy
of the child end, and ``close()`` on that end is a plain descriptor
close: the child's copy stays open.  Every other end shuts its socket
down on ``close()``, so the peer sees EOF whoever else holds a copy.
``connect``/``listen`` by address raise ``ValueError`` pointing at
``pipe_pair`` -- a pipe has no address space.  :func:`socket_pair` is
the construction ``pipe_pair`` and an ``inproc://`` connection share.
"""

from __future__ import annotations

import socket
from typing import Any

from repro.comm.tcp import SocketComm


def wrap_connection(conn: socket.socket, peer: str = "pipe://") -> SocketComm:
    """The comm over an inherited pipe end (a comm's ``connection``)."""
    return SocketComm(conn, peer)


def socket_pair(peer_a: str, peer_b: str) -> tuple[SocketComm, SocketComm]:
    """Two connected comms over one ``socket.socketpair()``; ``peer_a``
    is what the first end calls its peer."""
    a, b = socket.socketpair()
    return SocketComm(a, peer_a), SocketComm(b, peer_b)


def pipe_pair(ctx: Any | None = None) -> tuple[SocketComm, SocketComm]:
    """A connected ``(parent_comm, child_comm)`` pair.

    ``ctx`` (a ``multiprocessing`` context) is unused: any start method
    can hand a socket to a child."""
    parent, child = socket_pair("pipe://child", "pipe://parent")
    child._handed_over = True
    return parent, child
