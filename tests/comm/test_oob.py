"""Zero-copy data plane: the OOB codec, multi-segment framing, pooled
buffer lifetime (use-after-recycle is structurally impossible), the
backend ``send_oob`` matrix, and large-frame liveness."""

import itertools
import socket
import threading
import time

import numpy as np
import pytest

from repro import comm
from repro.comm import frame
from repro.comm.pipe import pipe_pair

_ids = itertools.count()


def _array(kib: int) -> np.ndarray:
    n = kib * 1024 // 8
    return np.arange(n, dtype=np.float64)


class TestOOBCodec:
    def test_large_array_rides_out_of_band(self):
        arr = _array(1024)  # 1 MiB
        meta, bufs = frame.dumps_oob(("data", arr))
        assert len(bufs) == 1
        # The pickle stream carries only shape/dtype metadata.
        assert len(meta) < 4096
        decoded = frame.loads_oob(meta, bufs)
        tag, out = decoded
        assert tag == "data"
        np.testing.assert_array_equal(out, arr)
        # Decode-side zero copy: the array is a view over the buffer the
        # pickler extracted, which is the sender's own memory.
        assert not out.flags.owndata
        assert np.shares_memory(out, arr)

    def test_small_payloads_stay_in_band(self):
        meta, bufs = frame.dumps_oob(("job", 7, b"tiny"))
        assert bufs == []
        assert frame.loads(meta) == ("job", 7, b"tiny")

    def test_plain_message_without_callback_still_decodes(self):
        # A peer that pickled without the OOB callback interoperates:
        # protocol 5 simply keeps buffers in-band.
        arr = _array(64)
        payload = frame.dumps(("data", arr))
        _, out = frame.loads(payload)
        np.testing.assert_array_equal(out, arr)

    def test_oob_ceiling_enforced(self):
        with pytest.raises(frame.OversizedFrameError) as ei:
            frame.dumps_oob(_array(64), max_bytes=1024)
        assert ei.value.limit == 1024

    def test_encoded_reships_buffers_out_of_band(self):
        # The send-side cache stores Encoded values; pickling one through
        # an outer dumps_oob must re-extract its segments, not copy them
        # into the outer meta stream.
        arr = _array(256)
        enc = frame.encode_oob(arr)
        assert enc.nbytes >= arr.nbytes
        meta, bufs = frame.dumps_oob(("data", "b", 3, enc))
        assert len(meta) < 4096
        assert len(bufs) == 1
        _, _, _, enc2 = frame.loads_oob(meta, bufs)
        np.testing.assert_array_equal(enc2.load(), arr)


class TestMultiSegmentFraming:
    def test_byte_at_a_time_multisegment_reassembly(self):
        a, b = _array(8), _array(16)
        parts = frame.encode_message_oob(("data", a, b))
        assert len(parts) > 1  # header+table, meta, two segments
        wire = b"".join(bytes(p) for p in parts)
        d = frame.FrameDecoder()
        for i in range(len(wire)):
            d.feed(wire[i : i + 1])
        oob = d.next_frame()
        assert isinstance(oob, frame.OOBFrame)
        tag, out_a, out_b = oob.load()
        assert tag == "data"
        np.testing.assert_array_equal(out_a, a)
        np.testing.assert_array_equal(out_b, b)
        d.close()  # no residue

    def test_plain_and_oob_frames_interleave(self):
        arr = _array(8)
        wire = (
            frame.pack_frame(frame.dumps("before"))
            + b"".join(bytes(p) for p in frame.encode_message_oob(("data", arr)))
            + frame.pack_frame(frame.dumps("after"))
        )
        d = frame.FrameDecoder()
        d.feed(wire)
        got = d.drain()
        assert frame.loads(got[0]) == "before"
        np.testing.assert_array_equal(got[1].load()[1], arr)
        assert frame.loads(got[2]) == "after"

    # The rails below hold on both receivers: a bare decoder, and a
    # pipe_pair() end fed the same raw bytes through its socket.

    def test_runaway_segment_count_rejected_from_header(self):
        header = frame._HEADER.pack(frame.OOB_FLAG | (frame.MAX_OOB_SEGMENTS + 1))
        for err in _rail_errors(header):
            assert isinstance(err, frame.OversizedFrameError)

    def test_oob_total_over_ceiling_rejected_from_table(self):
        header = frame._HEADER.pack(frame.OOB_FLAG | 2)
        table = frame._HEADER.pack(100) + frame._HEADER.pack(frame.MAX_FRAME_BYTES)
        for err in _rail_errors(header + table):
            assert isinstance(err, frame.OversizedFrameError)
            assert err.nbytes == frame.MAX_FRAME_BYTES + 100

    def test_truncated_mid_segment(self):
        wire = b"".join(
            bytes(p) for p in frame.encode_message_oob(("data", _array(8)))
        )
        decoder, pipe = _rail_errors(wire[:-100])
        assert isinstance(decoder, frame.TruncatedFrameError)
        # A stream cut mid-frame is peer loss, the runtimes' one failure
        # signal, and the rail that saw it is its cause.
        assert isinstance(pipe, comm.CommClosedError)
        assert isinstance(pipe.__cause__, frame.TruncatedFrameError)


def _rail_errors(wire: bytes) -> tuple[Exception, Exception]:
    """What ``wire`` and then end-of-stream raise on a ``FrameDecoder``
    and on the far end of a ``pipe_pair()``."""
    errors = []
    d = frame.FrameDecoder()
    try:
        d.feed(wire)
        d.close()
    except frame.FrameError as exc:
        errors.append(exc)
    a, b = pipe_pair()
    try:
        a.connection.sendall(wire)
        a.close()
        b.recv(timeout=5)
    except (frame.FrameError, comm.CommClosedError) as exc:
        errors.append(exc)
    finally:
        b.close()
    assert len(errors) == 2, f"a receiver accepted {wire[:16]!r}..."
    return errors[0], errors[1]


class TestBufferLifetime:
    def test_pool_reuses_returned_buffer(self):
        pool = frame.BufferPool()
        buf = pool.lease(100)
        assert pool.give_back(buf)
        assert pool.lease(50) is buf

    def test_pool_refuses_aliased_buffer(self):
        pool = frame.BufferPool()
        buf = pool.lease(100)
        mv = memoryview(buf)
        assert frame.BufferPool.exports_live(buf)
        assert not pool.give_back(buf)
        assert pool.lease(100) is not buf  # never handed out while aliased
        mv.release()
        assert pool.give_back(buf)

    def _decode_one(self, decoder: frame.FrameDecoder, message) -> frame.OOBFrame:
        wire = b"".join(bytes(p) for p in frame.encode_message_oob(message))
        decoder.feed(wire)
        return decoder.next_frame()

    def test_use_after_recycle_regression(self):
        # The regression this pins: a consumer holds an array view over a
        # transport buffer; the pool must NOT recycle that buffer under
        # the next inbound frame, or the array's contents would change
        # underneath it.
        d = frame.FrameDecoder()
        first = self._decode_one(d, ("data", _array(32)))
        arr = first.load()[1]
        snapshot = arr.copy()
        assert not first.try_recycle()  # arr still aliases the buffer
        second = self._decode_one(d, ("data", _array(32) * -1.0))
        other = second.load()[1]
        np.testing.assert_array_equal(arr, snapshot)  # untouched
        np.testing.assert_array_equal(other, _array(32) * -1.0)
        # Dropping the consumer makes the buffer recyclable, and only
        # then does the pool hand it out again.
        del arr, other
        assert first.try_recycle()
        assert first.try_recycle()  # idempotent

    def test_take_copies_out_and_frees_transport_buffer(self):
        d = frame.FrameDecoder()
        oob = self._decode_one(d, ("data", _array(32)))
        oob.take()
        assert oob.try_recycle()  # already detached
        # The pooled buffer is free again while the taken views live on.
        np.testing.assert_array_equal(oob.load()[1], _array(32))


class TestBackendSendOOB:
    def test_pipe_send_oob_round_trip(self):
        a, b = pipe_pair()
        got = []
        t = threading.Thread(target=lambda: got.append(b.recv(timeout=10)))
        t.start()
        arr = _array(256)
        a.send_oob(("data", arr))
        t.join(timeout=10)
        tag, out = got[0]
        assert tag == "data"
        np.testing.assert_array_equal(out, arr)
        a.close()
        b.close()

    @pytest.mark.parametrize("scheme", ["inproc", "tcp"])
    def test_send_oob_round_trip(self, scheme):
        def oob_echo(c):
            try:
                while True:
                    c.send_oob(("echo", c.recv()))
            except comm.CommClosedError:
                return

        addr = f"inproc://oob-{next(_ids)}" if scheme == "inproc" else "tcp://127.0.0.1:0"
        lis = comm.listen(addr, oob_echo)
        try:
            arr = _array(1024)
            with comm.connect(lis.address) as c:
                c.send_oob(("data", arr))
                tag, (tag2, out) = c.recv(timeout=10)
                assert (tag, tag2) == ("echo", "data")
                np.testing.assert_array_equal(out, arr)
                # Bytes crossed a socket: in-process too, nothing aliases the sender.
                assert not np.shares_memory(out, arr)
        finally:
            lis.close()

    @pytest.mark.parametrize("scheme", ["inproc", "tcp"])
    def test_send_oob_plain_message_fallback(self, scheme):
        def echo(c):
            try:
                while True:
                    c.send_oob(("echo", c.recv()))
            except comm.CommClosedError:
                return

        addr = (
            f"inproc://oob-plain-{next(_ids)}"
            if scheme == "inproc"
            else "tcp://127.0.0.1:0"
        )
        lis = comm.listen(addr, echo)
        try:
            with comm.connect(lis.address) as c:
                c.send_oob({"plain": [1, 2, 3]})
                assert c.recv(timeout=10) == ("echo", {"plain": [1, 2, 3]})
        finally:
            lis.close()

    def test_pipe_send_oob_plain_message_fallback(self):
        a, b = pipe_pair()
        a.send_oob({"plain": (1, 2)})
        assert b.recv(timeout=5) == {"plain": (1, 2)}
        a.close()
        b.close()


class TestLargeFrameLiveness:
    def test_dribbled_large_frame_keeps_peer_alive(self):
        # The liveness regression: a multi-MiB frame arriving slowly must
        # refresh the idle clock with every chunk -- a parent must never
        # declare a worker dead mid-transfer just because no *complete*
        # message landed recently.
        server = []

        def handler(c):
            server.append(c)
            try:
                c.recv()
            except comm.CommClosedError:
                return

        lis = comm.listen("tcp://127.0.0.1:0", handler)
        try:
            host, port = lis.address[len("tcp://") :].rsplit(":", 1)
            raw = socket.create_connection((host, int(port)))
            for _ in range(200):
                if server:
                    break
                time.sleep(0.01)
            wire = frame.pack_frame(frame.dumps(b"x" * (512 * 1024)))
            step = len(wire) // 16 + 1
            worst = 0.0
            for off in range(0, len(wire), step):
                raw.sendall(wire[off : off + step])
                time.sleep(0.05)
                worst = max(worst, server[0].idle_seconds())
            # ~0.8s of dribbling, yet the clock never aged past a few
            # chunk intervals.
            assert worst < 0.5
            raw.close()
        finally:
            lis.close()

    def test_heartbeat_refuses_to_wait_for_send_lock(self):
        # The send-side half of the satellite: a heartbeat must not queue
        # behind a large transfer holding the send lock -- it skips the
        # beat (the in-flight bytes refresh the peer anyway).
        lis = comm.listen("tcp://127.0.0.1:0", lambda c: None)
        try:
            c = comm.connect(lis.address)
            try:
                assert c._try_send("probe") is True
                with c._send_lock:
                    t0 = time.perf_counter()
                    assert c._try_send("probe") is False
                    assert time.perf_counter() - t0 < 0.1
                assert c._try_send("probe") is True
            finally:
                c.close()
        finally:
            lis.close()
