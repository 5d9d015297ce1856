"""`repro.comm`: the connect/listen communication layer.

One comm (:class:`~repro.comm.tcp.SocketComm`, with heartbeat liveness),
one wire format (:mod:`repro.comm.frame`'s length-prefixed pickle
frames), three transports resolved by address scheme:

* ``inproc://name`` -- a socketpair met by name in this process (tests,
  the ledger's in-process cluster);
* ``pipe://`` -- socketpairs handed to forked children (what
  :class:`~repro.runtime.procpool.ProcessRuntime` dispatches over);
* ``tcp://host:port`` -- sockets with connect timeout and jittered
  retry/backoff (what :class:`~repro.runtime.cluster.ClusterRuntime`
  runs on).

Peer loss on any transport collapses into
:class:`~repro.comm.core.CommClosedError`, which the runtimes translate
into ``WORKER_DOWN`` → :class:`~repro.exceptions.WorkerCrashError` → the
untouched FT recovery path.  See docs/DISTRIBUTED.md.
"""

from repro.comm.core import (
    Address,
    CommClosedError,
    connect,
    connect_with_retry,
    listen,
    parse_address,
)
from repro.comm.frame import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    OversizedFrameError,
    TruncatedFrameError,
    dumps,
    encode_message,
    loads,
    pack_frame,
)
from repro.comm.pipe import pipe_pair, wrap_connection

__all__ = [
    "Address",
    "CommClosedError",
    "connect",
    "connect_with_retry",
    "listen",
    "parse_address",
    "MAX_FRAME_BYTES",
    "FrameDecoder",
    "FrameError",
    "OversizedFrameError",
    "TruncatedFrameError",
    "dumps",
    "encode_message",
    "loads",
    "pack_frame",
    "pipe_pair",
    "wrap_connection",
]
