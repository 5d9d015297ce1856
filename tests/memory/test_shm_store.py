"""Unit tests for the shared-memory block-store backend."""

import numpy as np
import pytest

from repro.detect.checksum import SharedMemoryChecksumStore
from repro.exceptions import DataCorruptionError, OverwrittenError
from repro.graph.taskspec import BlockRef
from repro.memory.allocator import Reuse, SingleAssignment
from repro.memory.shm import (
    SharedMemoryBlockStore,
    attach_payload,
    attach_readonly,
    materialize_segment,
)


def ref(v, block="b"):
    return BlockRef(block, v)


@pytest.fixture
def store():
    # These tests exercise segment mechanics with tiny arrays, so disable
    # the small-block inline path that would otherwise keep them plain.
    s = SharedMemoryBlockStore(SingleAssignment(), small_block_bytes=0)
    yield s
    s.close()


class TestPayloadRoundTrip:
    def test_array_payload_reads_back_equal(self, store):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        store.write(ref(0), a)
        got = store.read(ref(0))
        np.testing.assert_array_equal(got, a)
        # The stored value is a *view* over the segment, not the original.
        assert got is not a
        assert got.base is not None

    def test_nested_structure_preserved(self, store):
        payload = (np.ones(3, dtype=np.int32), {"k": [np.zeros(2), "tag"]}, 7)
        store.write(ref(0), payload)
        bottom, d, scalar = store.read(ref(0))
        np.testing.assert_array_equal(bottom, np.ones(3, dtype=np.int32))
        np.testing.assert_array_equal(d["k"][0], np.zeros(2))
        assert d["k"][1] == "tag" and scalar == 7

    def test_non_array_payload_stored_as_is(self, store):
        store.write(ref(0), ("token", (1, 2)))
        assert store.read(ref(0)) == ("token", (1, 2))
        assert store.descriptor(ref(0)) is None
        assert store.shm_stats.pickled_payloads == 1

    def test_noncontiguous_input_contiguified(self, store):
        a = np.arange(16, dtype=np.float64).reshape(4, 4)[:, ::2]
        store.write(ref(0), a)
        np.testing.assert_array_equal(store.read(ref(0)), a)


class TestDescriptorAttach:
    def test_descriptor_rebuilds_identical_payload(self, store):
        payload = (np.arange(6, dtype=np.int64), np.eye(3))
        store.write(ref(0), payload)
        desc = store.descriptor(ref(0))
        assert desc is not None
        got, att = attach_payload(desc)
        try:
            np.testing.assert_array_equal(got[0], payload[0])
            np.testing.assert_array_equal(got[1], payload[1])
            assert not got[0].flags.writeable
        finally:
            del got
            att.close()

    def test_attach_after_eviction_raises_file_not_found(self):
        s = SharedMemoryBlockStore(Reuse(), small_block_bytes=0)
        try:
            s.write(ref(0), np.zeros(4))
            desc = s.descriptor(ref(0))
            s.write(ref(1), np.ones(4))  # evicts v0, unlinks its segment
            assert s.descriptor(ref(0)) is None
            with pytest.raises(FileNotFoundError):
                attach_readonly(desc.name)
        finally:
            s.close()

    def test_parent_read_of_evicted_version_still_raises(self):
        s = SharedMemoryBlockStore(Reuse(), small_block_bytes=0)
        try:
            s.write(ref(0), np.zeros(4))
            s.write(ref(1), np.ones(4))
            with pytest.raises(OverwrittenError):
                s.read(ref(0))
        finally:
            s.close()


class TestFaultSemantics:
    def test_mark_corrupted_is_parent_side_flag(self, store):
        store.write(ref(0), np.zeros(4))
        store.mark_corrupted(ref(0))
        with pytest.raises(DataCorruptionError):
            store.read(ref(0))

    def test_corrupt_data_mutates_segment_in_place(self, store):
        store.write(ref(0), np.zeros(4))
        desc = store.descriptor(ref(0))
        assert store.corrupt_data(ref(0), lambda a: a + 99.0)
        # Same segment, same descriptor -- workers see the corrupted bytes.
        assert store.descriptor(ref(0)) == desc
        got, att = attach_payload(desc)
        try:
            np.testing.assert_array_equal(got, np.full(4, 99.0))
        finally:
            del got
            att.close()

    def test_corrupt_data_with_shape_change_reseats_segment(self, store):
        store.write(ref(0), np.zeros(4))
        old = store.descriptor(ref(0))
        assert store.corrupt_data(ref(0), lambda a: np.zeros(8))
        new = store.descriptor(ref(0))
        assert new is not None and new.name != old.name
        np.testing.assert_array_equal(store.read(ref(0)), np.zeros(8))

    def test_rewrite_same_version_replaces_segment(self, store):
        store.write(ref(0), np.zeros(4))
        old = store.descriptor(ref(0))
        store.write(ref(0), np.ones(4))  # recovery replay
        new = store.descriptor(ref(0))
        assert new.name != old.name
        with pytest.raises(FileNotFoundError):
            attach_readonly(old.name)


class TestLifecycle:
    def test_pinned_versions_survive_sweeps(self):
        s = SharedMemoryBlockStore(Reuse(), small_block_bytes=0)
        try:
            s.pin(BlockRef("input", 0), np.arange(3))
            for v in range(3):
                s.write(ref(v), np.full(2, v))
            assert s.descriptor(BlockRef("input", 0)) is not None
            np.testing.assert_array_equal(s.read(BlockRef("input", 0)), np.arange(3))
        finally:
            s.close()

    def test_stats_track_segment_lifecycle(self):
        s = SharedMemoryBlockStore(Reuse(), small_block_bytes=0)
        try:
            for v in range(3):
                s.write(ref(v), np.zeros(8))
            st = s.shm_stats
            assert st.segments_created == 3
            assert st.segments_released == 2  # two evictions under Reuse
            assert st.bytes_current == 64
            assert st.bytes_peak >= st.bytes_current
        finally:
            s.close()
        assert s.shm_stats.bytes_current == 0

    def test_close_is_idempotent_and_unlinks(self, store):
        store.write(ref(0), np.zeros(4))
        desc = store.descriptor(ref(0))
        store.close()
        store.close()
        with pytest.raises(FileNotFoundError):
            attach_readonly(desc.name)


class TestSmallBlockInline:
    """Array payloads below ``small_block_bytes`` skip segment creation."""

    def test_small_array_stays_plain_value(self):
        s = SharedMemoryBlockStore(SingleAssignment())  # default threshold
        try:
            a = np.arange(16, dtype=np.float64)  # 128 B << 64 KiB
            s.write(ref(0), a)
            assert s.descriptor(ref(0)) is None
            assert s.shm_stats.pickled_payloads == 1
            assert s.shm_stats.segments_created == 0
            np.testing.assert_array_equal(s.read(ref(0)), a)
        finally:
            s.close()

    def test_large_array_still_gets_segment(self):
        s = SharedMemoryBlockStore(SingleAssignment())
        try:
            a = np.zeros(16384, dtype=np.float64)  # 128 KiB > threshold
            s.write(ref(0), a)
            assert s.descriptor(ref(0)) is not None
            assert s.shm_stats.segments_created == 1
        finally:
            s.close()

    def test_materialize_threshold_param(self):
        a = np.arange(8, dtype=np.float64)
        payload, seg = materialize_segment(a, small_bytes=1024)
        assert seg is None and payload is a
        payload, seg = materialize_segment(a)  # default: always segment
        try:
            assert seg is not None
        finally:
            del payload
            seg.dispose()


class TestBelowFloorWrite:
    """A below-floor write to a block holding no segment is the plain
    store's write; anything with a segment to retire still goes the long
    way round."""

    FLOOR = 1024

    def test_rewrite_of_a_segment_backed_version_retires_its_segment(self):
        s = SharedMemoryBlockStore(SingleAssignment(), small_block_bytes=self.FLOOR)
        try:
            s.write(ref(0), np.zeros(256))  # 2 KiB: a segment
            assert s.shm_stats.bytes_current == 2048
            small = np.ones(4)
            s.write(ref(0), small)
            st = s.shm_stats
            assert (st.segments_created, st.segments_released, st.bytes_current) == (1, 1, 0)
            assert s.descriptor(ref(0)) is None
            assert s.read(ref(0)) is small
        finally:
            s.close()

    def test_eviction_sweep_releases_the_evicted_segment(self):
        s = SharedMemoryBlockStore(Reuse(), small_block_bytes=self.FLOOR)
        try:
            s.write(ref(0), np.zeros(256))  # a segment
            s.write(ref(1), np.ones(4))  # below the floor; evicts version 0
            st = s.shm_stats
            assert (st.segments_created, st.segments_released, st.bytes_current) == (1, 1, 0)
            with pytest.raises(OverwrittenError):
                s.read(ref(0))
            s.write(ref(2), np.zeros(256))  # the block takes segments again
            s.write(ref(3), np.ones(4))
            assert (st.segments_created, st.segments_released, st.bytes_current) == (2, 2, 0)
        finally:
            s.close()

    def test_makes_no_segment_and_counts_the_payload(self):
        s = SharedMemoryBlockStore(Reuse(), small_block_bytes=self.FLOOR)
        try:
            payloads = [(np.ones(4), np.arange(3)), {"k": np.ones(2)}, None, ("token", 7)]
            for v, payload in enumerate(payloads):
                s.write(ref(v, block=v % 2), payload)
            s.write(ref(3, block=1), payloads[3])  # a rewrite counts too
            st = s.shm_stats
            assert (st.pickled_payloads, st.segments_created, st.bytes_current) == (5, 0, 0)
            assert s.read(ref(2, block=0)) is None
            assert s.read(ref(3, block=1)) is payloads[3]
            assert s.descriptor(ref(3, block=1)) is None
        finally:
            s.close()

    def test_checksum_store_still_fingerprints_what_it_stores(self):
        s = SharedMemoryChecksumStore(SingleAssignment())  # default floor: 64 KiB
        try:
            s.write(ref(0), np.arange(8.0))
            assert s.detection.fingerprints == 1 and s.shm_stats.segments_created == 0
            np.testing.assert_array_equal(s.read(ref(0)), np.arange(8.0))
            assert s.corrupt_data(ref(0), lambda a: a + 1.0)
            with pytest.raises(DataCorruptionError):
                s.read(ref(0))
        finally:
            s.close()


class TestMaterialize:
    def test_no_arrays_means_no_segment(self):
        payload, seg = materialize_segment({"a": 1})
        assert payload == {"a": 1} and seg is None

    def test_segment_views_alias_segment_bytes(self):
        payload, seg = materialize_segment(np.arange(4, dtype=np.int64))
        try:
            got, att = attach_payload(seg.descriptor)
            try:
                np.testing.assert_array_equal(got, payload)
            finally:
                del got
                att.close()
        finally:
            del payload
            seg.dispose()
