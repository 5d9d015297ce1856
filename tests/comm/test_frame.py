"""Frame codec: framing round trips and both error rails."""

import pytest

from repro.comm import frame


class TestPayloadLayer:
    def test_dumps_loads_round_trip(self):
        for msg in (None, 42, "x", b"\x00\xff", ("job", (1, 2), [("a", 0)], False),
                    {"nested": [1, (2, 3)]}):
            assert frame.loads(frame.dumps(msg)) == msg

    def test_dumps_enforces_ceiling(self):
        with pytest.raises(frame.OversizedFrameError) as ei:
            frame.dumps(b"x" * 1024, max_bytes=64)
        assert ei.value.limit == 64
        assert ei.value.nbytes > 64


class TestFraming:
    def test_single_frame_round_trip(self):
        d = frame.FrameDecoder()
        assert d.feed(frame.pack_frame(b"hello")) == 1
        assert d.next_frame() == b"hello"
        assert d.next_frame() is None
        d.close()

    def test_byte_at_a_time_reassembly(self):
        buf = frame.pack_frame(b"abc") + frame.pack_frame(b"") + frame.pack_frame(b"xyz")
        d = frame.FrameDecoder()
        for i in range(len(buf)):
            d.feed(buf[i:i + 1])
        assert d.drain() == [b"abc", b"", b"xyz"]
        d.close()

    def test_pending_counts_ready_frames(self):
        d = frame.FrameDecoder()
        # Many frames in one feed: all ready at once, in order.
        d.feed(b"".join(frame.pack_frame(p) for p in (b"a", b"b", b"c")))
        assert d.pending == 3
        assert d.next_frame() == b"a"
        assert d.pending == 2
        assert d.drain() == [b"b", b"c"]

    def test_encode_message_is_full_stream_encoding(self):
        d = frame.FrameDecoder()
        d.feed(frame.encode_message({"k": 1}))
        assert frame.loads(d.next_frame()) == {"k": 1}


class TestErrorRails:
    def test_truncated_mid_payload(self):
        d = frame.FrameDecoder()
        d.feed(frame.pack_frame(b"hello")[:-2])
        with pytest.raises(frame.TruncatedFrameError) as ei:
            d.close()
        assert ei.value.have == 3 and ei.value.want == 5

    def test_truncated_mid_header(self):
        d = frame.FrameDecoder()
        d.feed(b"\x05\x00\x00")  # 3 of 8 header bytes
        with pytest.raises(frame.TruncatedFrameError):
            d.close()

    def test_clean_close_after_complete_frames(self):
        d = frame.FrameDecoder()
        d.feed(frame.pack_frame(b"done"))
        d.close()  # no residue -> no error

    def test_oversized_header_rejected_before_buffering(self):
        # A corrupt length header must be refused from the 8 header
        # bytes alone -- the decoder never waits for (or allocates) the
        # claimed payload.
        d = frame.FrameDecoder(max_bytes=100)
        with pytest.raises(frame.OversizedFrameError) as ei:
            d.feed((101).to_bytes(8, "little"))
        assert ei.value.nbytes == 101 and ei.value.limit == 100

    def test_frames_under_the_ceiling_pass(self):
        d = frame.FrameDecoder(max_bytes=100)
        d.feed(frame.pack_frame(b"x" * 100))
        assert d.next_frame() == b"x" * 100

    def test_frame_errors_are_repro_errors(self):
        from repro.exceptions import ReproError

        assert issubclass(frame.FrameError, ReproError)
        assert issubclass(frame.OversizedFrameError, frame.FrameError)
        assert issubclass(frame.TruncatedFrameError, frame.FrameError)
