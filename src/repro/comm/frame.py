"""Length-prefixed frame codec: the one wire format every transport speaks.

A *frame* is ``8-byte little-endian unsigned length`` + ``payload``.  A
*payload* is a pickled message (protocol ``HIGHEST_PROTOCOL``), produced
by :func:`dumps` and consumed by :func:`loads`.  Every channel --
``tcp://`` connections, ``pipe://`` socketpairs and ``inproc://``
socketpairs alike -- is a :class:`~repro.comm.tcp.SocketComm` and runs
the full codec, so a message that round-trips on one transport
round-trips bit-identically on all of them -- which is what the
wire-safety tests in ``tests/comm/`` pin down for the exception
hierarchy and the shared-memory descriptors.

**The zero-copy data plane** rides the same codec through a second,
*multi-segment* frame kind.  :func:`dumps_oob` pickles a message with
protocol-5 out-of-band buffers: large contiguous payloads (numpy blocks)
are never copied into the pickle stream -- the pickler emits a small
*meta* stream plus a list of :class:`pickle.PickleBuffer` views over the
original array memory.  On the wire that becomes one header whose high
bit (:data:`OOB_FLAG`) marks the frame as scattered, a length table,
and the segments themselves -- which a gather-send (``socket.sendmsg``)
ships straight from the source buffers, no join.  The decoder
reassembles the segments into one pooled receive buffer and yields an
:class:`OOBFrame`: zero-copy read-only ``memoryview`` segments that
:func:`loads_oob` hands to ``pickle.loads(buffers=...)``, so numpy
blocks rematerialize as views over the receive buffer itself.

**Buffer-lifetime safety** is structural, not conventional.  A pooled
receive buffer is recycled only when :meth:`BufferPool.give_back` can
prove nothing aliases it: a ``bytearray`` with live buffer exports
(an ``np.frombuffer`` array, a ``memoryview``) refuses to resize with
``BufferError``, which :meth:`BufferPool.exports_live` probes.  A
consumer that wants to outlive the transport buffer copies out
(:meth:`OOBFrame.take`, or an owned-array copy on cache insert); one
that doesn't simply keeps its views and the buffer is quietly abandoned
to them instead of being reused underneath.  Use-after-recycle is
therefore impossible by construction, and ``tests/comm/test_oob.py``
pins it.

Safety rails, tested on both the encode and decode side:

* **Oversized frames.**  :func:`dumps` / :func:`dumps_oob` refuse to
  produce -- and :class:`FrameDecoder` refuses to accept -- a payload
  larger than ``max_bytes`` (default :data:`MAX_FRAME_BYTES`).  A
  corrupt or adversarial length header therefore cannot make the
  receiver allocate unbounded memory: the decoder raises
  :class:`OversizedFrameError` from the header/table alone.
* **Truncated frames.**  A stream that ends mid-frame (killed peer,
  severed connection) surfaces as :class:`TruncatedFrameError` from
  :meth:`FrameDecoder.close`, never as a silently short message.

The decoder yields every complete frame a ``feed`` has absorbed, however
many arrived in one chunk.
"""

from __future__ import annotations

import pickle
import struct
import threading
from typing import Any, Iterable, NamedTuple

from repro.exceptions import ReproError

#: Default ceiling on one payload's size: 256 MiB.  Big enough for any
#: block a benchmark ships, small enough that a garbage length header
#: cannot OOM the receiver.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Frame header: unsigned 64-bit little-endian payload length.
_HEADER = struct.Struct("<Q")
HEADER_BYTES = _HEADER.size

#: High bit of the header marks a multi-segment (out-of-band) frame; the
#: low bits then carry the segment count, not a byte length.  Safe to
#: steal: MAX_FRAME_BYTES is far below 2**63, so a plain length can
#: never set it and plain frames stay bit-identical to the v7 wire.
OOB_FLAG = 1 << 63

#: Ceiling on segments per OOB frame (meta + buffers).  Way above any
#: real job batch; exists so a corrupt header cannot demand a gigabyte
#: length table.
MAX_OOB_SEGMENTS = 4096

#: Buffers smaller than this stay in-band: below it, per-segment framing
#: and syscall overhead cost more than the memcpy they would save.
OOB_MIN_BYTES = 4096


class FrameError(ReproError):
    """Base class for frame-codec failures (a *protocol* problem, never a
    detected task fault -- these do not route through recovery)."""


class OversizedFrameError(FrameError):
    """A payload exceeded the frame-size ceiling (encode or decode side)."""

    def __init__(self, nbytes: int, limit: int) -> None:
        super().__init__(f"frame payload of {nbytes} bytes exceeds the {limit}-byte limit")
        self.nbytes = nbytes
        self.limit = limit


class TruncatedFrameError(FrameError):
    """The stream ended mid-frame: ``missing`` more bytes were expected."""

    def __init__(self, have: int, want: int) -> None:
        super().__init__(f"stream truncated mid-frame: have {have} of {want} payload bytes")
        self.have = have
        self.want = want


# ---------------------------------------------------------------------------
# payload layer (shared by every backend)


def dumps(message: Any, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one message into a payload, enforcing the size ceiling."""
    payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    if len(payload) > max_bytes:
        raise OversizedFrameError(len(payload), max_bytes)
    return payload


def loads(payload: bytes) -> Any:
    """Inverse of :func:`dumps`."""
    return pickle.loads(payload)


def dumps_oob(
    message: Any,
    max_bytes: int = MAX_FRAME_BYTES,
    oob_min_bytes: int = OOB_MIN_BYTES,
) -> tuple[bytes, list[pickle.PickleBuffer]]:
    """Serialize with protocol-5 out-of-band buffers: ``(meta, buffers)``.

    ``meta`` is the pickle stream with every large contiguous buffer
    (numpy block payloads, big ``bytes``) *extracted*: the buffers ride
    separately as :class:`pickle.PickleBuffer` views over the original
    memory -- zero copies on the encode side.  Small or non-contiguous
    buffers stay in-band (framing them separately costs more than the
    memcpy saves).  :func:`loads_oob` is the inverse.
    """
    buffers: list[pickle.PickleBuffer] = []

    # buffer_callback convention: a *truthy* return keeps the buffer
    # in-band; a *falsy* return extracts it out-of-band.
    def keep_in_band(pb: pickle.PickleBuffer) -> bool:
        try:
            raw = pb.raw()  # raises for non-contiguous memory
        except BufferError:
            return True
        if raw.nbytes < oob_min_bytes or len(buffers) >= MAX_OOB_SEGMENTS - 1:
            return True
        buffers.append(pb)
        return False

    meta = pickle.dumps(message, protocol=5, buffer_callback=keep_in_band)
    total = len(meta) + sum(b.raw().nbytes for b in buffers)
    if total > max_bytes:
        raise OversizedFrameError(total, max_bytes)
    return meta, buffers


def loads_oob(meta: Any, buffers: Iterable[Any]) -> Any:
    """Inverse of :func:`dumps_oob`.  ``buffers`` may be any
    buffer-protocol objects (the decoder's memoryviews, PickleBuffers,
    bytes): numpy payloads rematerialize as zero-copy views over them."""
    return pickle.loads(meta, buffers=buffers)


class Encoded(NamedTuple):
    """One message pre-encoded by :func:`dumps_oob`, shippable *inside*
    another OOB message.

    The parent's send-side encoded-block cache stores these: pickling an
    ``Encoded`` through :meth:`SocketComm.send_oob` re-emits only the tiny
    ``meta`` stream -- the buffer segments ride the outer frame's scatter
    list untouched, so a block fetched by W workers is pickled once and
    gathered W times.  On the receive side ``buffers`` rematerialize as
    memoryviews over the transport buffer and :meth:`load` decodes the
    original value as zero-copy views.
    """

    meta: bytes
    buffers: tuple

    def load(self) -> Any:
        return loads_oob(self.meta, self.buffers)

    @property
    def nbytes(self) -> int:
        return len(self.meta) + sum(memoryview(b).nbytes for b in self.buffers)


def encode_oob(
    message: Any,
    max_bytes: int = MAX_FRAME_BYTES,
    oob_min_bytes: int = OOB_MIN_BYTES,
) -> Encoded:
    """:func:`dumps_oob` wrapped as one :class:`Encoded` value."""
    meta, buffers = dumps_oob(message, max_bytes, oob_min_bytes)
    return Encoded(meta, tuple(buffers))


# ---------------------------------------------------------------------------
# frame layer (stream transports)


def pack_frame(payload: bytes) -> bytes:
    """One header + payload, ready for a stream write."""
    return _HEADER.pack(len(payload)) + payload


def pack_frame_oob(meta: bytes, buffers: Iterable[Any]) -> list[Any]:
    """One multi-segment frame as a gather list: ``[header+table, meta,
    *raw buffer views]`` -- ready for ``socket.sendmsg``; nothing is
    joined or copied."""
    raws = [
        b.raw() if isinstance(b, pickle.PickleBuffer) else memoryview(b)
        for b in buffers
    ]
    lens = [len(meta)] + [r.nbytes for r in raws]
    if len(lens) > MAX_OOB_SEGMENTS:
        raise FrameError(f"{len(lens)} OOB segments exceed the {MAX_OOB_SEGMENTS} cap")
    head = _HEADER.pack(OOB_FLAG | len(lens)) + b"".join(_HEADER.pack(n) for n in lens)
    return [head, meta, *raws]


class BufferPool:
    """Reusable receive buffers with structural use-after-recycle safety.

    ``lease(n)`` hands out a ``bytearray`` of at least ``n`` bytes,
    reusing a pooled one when possible.  ``give_back`` re-pools it only
    when :meth:`exports_live` proves no view or array still aliases it;
    otherwise the buffer is abandoned to its consumers (garbage
    collection reclaims it when the last view dies) and a fresh one
    serves the next frame.  Thread-safe: the TCP pump and a recycling
    sweep may race.
    """

    def __init__(self, max_buffers: int = 4, max_bytes: int = 64 * 1024 * 1024) -> None:
        self.max_buffers = max_buffers
        self.max_bytes = max_bytes
        self._free: list[bytearray] = []
        self._lock = threading.Lock()

    @staticmethod
    def exports_live(buf: bytearray) -> bool:
        """Whether anything still aliases ``buf``.  A bytearray with live
        buffer exports refuses to resize -- the one probe the interpreter
        itself guarantees is export-exact."""
        try:
            buf.append(0)
            buf.pop()
            return False
        except BufferError:
            return True

    def lease(self, nbytes: int) -> bytearray:
        with self._lock:
            for i, buf in enumerate(self._free):
                if len(buf) >= nbytes:
                    return self._free.pop(i)
        return bytearray(max(nbytes, 1))

    def give_back(self, buf: bytearray) -> bool:
        """Re-pool ``buf`` if nothing aliases it; returns whether it was
        (or safely could have been) retired from its consumer's view."""
        if self.exports_live(buf):
            return False
        with self._lock:
            pooled = sum(len(b) for b in self._free)
            if len(self._free) < self.max_buffers and pooled + len(buf) <= self.max_bytes:
                self._free.append(buf)
        return True


class OOBFrame:
    """One decoded multi-segment frame: ``meta`` (owned bytes) plus
    zero-copy read-only ``buffers`` over a pooled receive buffer.

    Ownership rule: the views are valid indefinitely -- the underlying
    buffer is recycled only once every view (and everything built on
    one, e.g. an ``np.frombuffer`` array) is released or dead; holding a
    view simply pins the buffer out of the pool.  A consumer that wants
    compact long-term ownership calls :meth:`take`, which copies the
    segments out and frees the transport buffer immediately.
    """

    __slots__ = ("meta", "buffers", "_buf", "_pool")

    def __init__(
        self,
        meta: bytes,
        buffers: tuple,
        buf: bytearray | None,
        pool: BufferPool | None,
    ) -> None:
        self.meta = meta
        self.buffers = buffers
        self._buf = buf
        self._pool = pool

    @property
    def nbytes(self) -> int:
        return len(self.meta) + sum(v.nbytes for v in self.buffers)

    def load(self) -> Any:
        """Decode the message; buffer-backed payloads are views into the
        receive buffer (see the ownership rule above)."""
        return loads_oob(self.meta, self.buffers)

    def take(self) -> "OOBFrame":
        """Copy the segments into owned memory and recycle the transport
        buffer now.  After ``take`` the frame's views are safe forever,
        independent of pool reuse."""
        if self._buf is not None:
            # Never force-release the old views: a decoded message may
            # hold the *same* view objects (pickle resolves out-of-band
            # PickleBuffers to the exact buffer items it was given), so
            # releasing them would kill the consumer's copies too.  Drop
            # our references and let the pool's export probe decide.
            self.buffers = tuple(memoryview(bytes(v)) for v in self.buffers)
            buf, self._buf = self._buf, None
            if self._pool is not None:
                self._pool.give_back(buf)
        return self

    def try_recycle(self) -> bool:
        """Return the receive buffer to the pool if no consumer still
        aliases it.  Idempotent; safe to retry until it reports True.
        Drops the frame's own views (``load`` is no longer possible), so
        only consumer-held aliases keep the buffer pinned."""
        if self._buf is None:
            return True
        # Dropping our references releases each view *iff* nothing else
        # holds it (refcounting): a consumer sharing the view object, or
        # an array exporting from it, keeps the buffer visibly aliased
        # and the export probe below refuses to re-pool it.
        self.buffers = ()
        buf = self._buf
        if self._pool is not None:
            if not self._pool.give_back(buf):
                return False  # a consumer still aliases the buffer
        elif BufferPool.exports_live(buf):
            return False
        self._buf = None
        return True


#: Decoder states.
_ST_HEADER, _ST_TABLE, _ST_BODY = 0, 1, 2


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary chunk stream.

    Feed whatever the transport hands you (``feed``), take the
    complete payloads (``drain``) -- ``bytes`` for plain frames, an
    :class:`OOBFrame` for multi-segment ones -- and ``close()`` when the
    stream ends, which raises :class:`TruncatedFrameError` if the peer
    died mid-frame.  Length headers are validated against ``max_bytes``
    *before* any payload is buffered.

    Transports that want to skip the intermediate chunk copy can ask for
    the current payload destination (:meth:`direct_destination`) and
    ``recv_into`` it, reporting progress with :meth:`direct_advance` --
    large frames then land in their final buffer straight off the
    socket.
    """

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES, pool: BufferPool | None = None) -> None:
        self.max_bytes = max_bytes
        self.pool = pool if pool is not None else BufferPool()
        self._ready: list[Any] = []
        self._scratch = bytearray()  # header/table accumulation
        self._state = _ST_HEADER
        self._scratch_need = HEADER_BYTES
        self._seg_lens: list[int] | None = None  # OOB segment lengths
        self._need = 0  # body bytes expected
        self._filled = 0  # body bytes received
        self._dest: bytearray | None = None
        self._dest_view: memoryview | None = None

    # -- the feed path -------------------------------------------------------

    def feed(self, chunk: Any) -> int:
        """Absorb ``chunk``; return how many frames are now ready."""
        mv = memoryview(chunk)
        while mv.nbytes:
            if self._state == _ST_BODY:
                take = min(mv.nbytes, self._need - self._filled)
                assert self._dest_view is not None
                self._dest_view[self._filled : self._filled + take] = mv[:take]
                mv = mv[take:]
                self._advance_body(take)
            elif (
                self._state == _ST_HEADER
                and not self._scratch
                and mv.nbytes >= HEADER_BYTES
            ):
                # Fast path for the dominant shape -- a whole plain frame
                # sitting in the fed chunk -- skipping the scratch
                # accumulator and the bytearray destination entirely.
                (word,) = _HEADER.unpack_from(mv)
                if word & OOB_FLAG:
                    nsegs = word ^ OOB_FLAG
                    if not 1 <= nsegs <= MAX_OOB_SEGMENTS:
                        raise OversizedFrameError(
                            nsegs * HEADER_BYTES, self.max_bytes
                        )
                    self._state = _ST_TABLE
                    self._scratch_need = HEADER_BYTES * nsegs
                    mv = mv[HEADER_BYTES:]
                    continue
                if word > self.max_bytes:
                    raise OversizedFrameError(word, self.max_bytes)
                end = HEADER_BYTES + int(word)
                if mv.nbytes >= end:
                    self._ready.append(bytes(mv[HEADER_BYTES:end]))
                    mv = mv[end:]
                else:
                    self._begin_body(int(word), oob=False)
                    mv = mv[HEADER_BYTES:]
            else:
                take = min(mv.nbytes, self._scratch_need - len(self._scratch))
                self._scratch += mv[:take]
                mv = mv[take:]
                if len(self._scratch) == self._scratch_need:
                    self._consume_scratch()
        return len(self._ready)

    def _consume_scratch(self) -> None:
        if self._state == _ST_HEADER:
            (word,) = _HEADER.unpack(self._scratch)
            self._scratch.clear()
            if word & OOB_FLAG:
                nsegs = word ^ OOB_FLAG
                if not 1 <= nsegs <= MAX_OOB_SEGMENTS:
                    # A runaway segment count is the same rail as a
                    # runaway length: an allocation demand we refuse
                    # from the header alone.
                    raise OversizedFrameError(nsegs * HEADER_BYTES, self.max_bytes)
                self._state = _ST_TABLE
                self._scratch_need = HEADER_BYTES * nsegs
            else:
                if word > self.max_bytes:
                    raise OversizedFrameError(word, self.max_bytes)
                self._begin_body(int(word), oob=False)
        else:  # _ST_TABLE
            n = self._scratch_need // HEADER_BYTES
            lens = list(struct.unpack(f"<{n}Q", self._scratch))
            self._scratch.clear()
            total = sum(lens)
            if total > self.max_bytes:
                raise OversizedFrameError(total, self.max_bytes)
            self._seg_lens = lens
            self._begin_body(total, oob=True)

    def _begin_body(self, need: int, oob: bool) -> None:
        self._state = _ST_BODY
        self._need = need
        self._filled = 0
        if oob:
            self._dest = self.pool.lease(need)
        else:
            self._dest = bytearray(need)
        self._dest_view = memoryview(self._dest)
        if need == 0:
            self._complete_body()

    def _advance_body(self, n: int) -> None:
        self._filled += n
        if self._filled == self._need:
            self._complete_body()

    def _complete_body(self) -> None:
        dest = self._dest
        assert dest is not None and self._dest_view is not None
        self._dest_view.release()
        if self._seg_lens is None:
            self._ready.append(bytes(memoryview(dest)[: self._need]))
        else:
            mv = memoryview(dest)
            off = self._seg_lens[0]
            meta = bytes(mv[:off])
            views = []
            for n in self._seg_lens[1:]:
                views.append(mv[off : off + n].toreadonly())
                off += n
            mv.release()
            self._ready.append(OOBFrame(meta, tuple(views), dest, self.pool))
        self._dest = self._dest_view = None
        self._seg_lens = None
        self._state = _ST_HEADER
        self._scratch_need = HEADER_BYTES
        self._need = self._filled = 0

    # -- the direct (recv_into) path ----------------------------------------

    def direct_destination(self) -> memoryview | None:
        """The writable tail of the current frame body, for a transport
        that wants to ``recv_into`` it directly -- or ``None`` while the
        decoder is mid-header/table (feed those; they are tiny)."""
        if self._state == _ST_BODY and self._filled < self._need:
            assert self._dest_view is not None
            return self._dest_view[self._filled : self._need]
        return None

    def direct_advance(self, n: int) -> int:
        """Report ``n`` bytes written through :meth:`direct_destination`;
        returns how many frames are now ready."""
        if self._state != _ST_BODY or self._filled + n > self._need:
            raise FrameError("direct_advance outside a frame body")
        self._advance_body(n)
        return len(self._ready)

    # -- draining ------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Complete frames decoded but not yet taken."""
        return len(self._ready)

    def next_frame(self) -> Any:
        """The oldest ready payload (``bytes`` or :class:`OOBFrame`), or
        ``None``."""
        return self._ready.pop(0) if self._ready else None

    def drain(self) -> list[Any]:
        """Every ready payload, oldest first, as one list (taken)."""
        ready, self._ready = self._ready, []
        return ready

    def close(self) -> None:
        """Declare end-of-stream; raises if a frame was left incomplete."""
        if self._state == _ST_BODY:
            raise TruncatedFrameError(self._filled, self._need)
        if self._scratch:
            raise TruncatedFrameError(len(self._scratch), self._scratch_need)


def encode_message(message: Any, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """``pack_frame(dumps(message))`` -- the full stream encoding."""
    return pack_frame(dumps(message, max_bytes))


def encode_message_oob(message: Any, max_bytes: int = MAX_FRAME_BYTES) -> list[Any]:
    """The gather-list stream encoding of one message: a plain single
    frame when nothing qualified for out-of-band treatment, else a
    multi-segment frame (``pack_frame_oob``).  Every element supports
    the buffer protocol, ready for a vectored send."""
    meta, buffers = dumps_oob(message, max_bytes)
    if not buffers:
        return [pack_frame(meta)]
    return pack_frame_oob(meta, buffers)
