"""Shared-memory backend for :class:`~repro.memory.blockstore.BlockStore`.

:class:`~repro.runtime.procpool.ProcessRuntime` runs compute phases in
worker *processes*; block payloads therefore need a representation both
sides can see without serializing bulk data per task.  This module keeps
every published block version in one POSIX shared-memory segment
(`multiprocessing.shared_memory`), owned and lifecycle-managed by the
**parent** process:

* On ``write``/``pin`` the payload's ndarrays are copied once into a
  fresh segment and the stored entry becomes the same structure rebuilt
  from zero-copy NumPy views over that segment, so every *parent-side*
  consumer (in-process reads, checksum verification, ``corrupt_data``)
  observes segment bytes directly.
* :meth:`SharedMemoryBackend.descriptor` returns a small picklable
  :class:`ShmDescriptor` (segment name + structure template + per-array
  dtype/shape/offset) for any shm-backed version; workers rebuild the
  payload with :func:`attach_payload` -- a read-only ``mmap`` of the
  segment, no copy, no pickling of array bytes.
* Segments are created and unlinked **only in the parent** (single-owner
  rule), which keeps ``multiprocessing.resource_tracker`` accurate: the
  worker side attaches via ``/dev/shm`` + ``mmap`` on Linux (or an
  untracked ``SharedMemory`` attach elsewhere) precisely so that worker
  exits never double-register or prematurely unlink a segment.
* Versioning follows the base store exactly: rewriting a version
  replaces its segment; versions evicted by the allocation policy have
  their segments unlinked (:meth:`_sweep_block`), so a worker attaching
  to an evicted version observes ``FileNotFoundError`` -- surfaced by
  the runtime as :class:`~repro.exceptions.OverwrittenError`, the same
  fault a parent-side read of an evicted version raises.

Fault-injection semantics are preserved: ``mark_corrupted`` is a
parent-side flag (reads happen in the parent before dispatch, so workers
never see flagged data), and ``corrupt_data`` mutates the segment bytes
*in place* when shapes allow, so silent corruption is visible to both
sides -- and to the checksum layer, which fingerprints the very same
views (:class:`repro.detect.checksum.SharedMemoryChecksumStore`).

A payload with no ndarrays (light-mode tokens, scalars) is stored as-is
and shipped to workers by pickle; ``descriptor`` returns ``None`` for it.
The same applies to *small* array payloads (below ``small_block_bytes``,
default :data:`SMALL_BLOCK_BYTES`): the segment machinery's syscall cost
dwarfs pickling a few KB, so fine-grain tiles ride the pickle path and
only payloads big enough to amortize an ``mmap`` get segments.
"""

from __future__ import annotations

import mmap
import os
import sys
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Hashable, NamedTuple

import numpy as np

from repro.graph.taskspec import BlockRef
from repro.memory.allocator import AllocationPolicy
from repro.memory.blockstore import BlockStore

#: Segment layout aligns every array to this many bytes (cache line).
_ALIGN = 64

#: Default per-payload floor for shared-memory backing.  A payload whose
#: arrays total fewer bytes than this stays a plain value -- stored
#: as-is and shipped to workers by pickle -- because the segment
#: machinery (``shm_open`` + ``ftruncate`` + ``mmap`` on write, another
#: ``open`` + ``mmap`` in every attaching worker, ``unlink`` on
#: retirement) costs hundreds of microseconds of syscalls, while
#: pickling a few KB costs single-digit microseconds on each side.
#: Fine-grain tiles (the dispatch-overhead regime) are exactly the
#: payloads below this line.  Pass ``small_block_bytes=0`` to a backend
#: to force segments for everything (the unit tests of the segment
#: machinery itself do).
SMALL_BLOCK_BYTES = 64 * 1024

#: Directory POSIX shm segments appear under on Linux; ``None`` elsewhere
#: (the attach path then falls back to ``SharedMemory``).
_DEV_SHM = "/dev/shm" if os.path.isdir("/dev/shm") else None


class _ArraySlot(NamedTuple):
    """Placeholder for the ``index``-th array in a flattened payload."""

    index: int


class ArraySpec(NamedTuple):
    """Layout of one array inside a segment."""

    dtype: str
    shape: tuple
    offset: int


class ShmDescriptor(NamedTuple):
    """Everything a worker needs to rebuild a payload without a copy."""

    name: str
    """Segment name (``SharedMemory.name``)."""
    template: Any
    """The payload structure with arrays replaced by :class:`_ArraySlot`."""
    arrays: tuple
    """One :class:`ArraySpec` per flattened array."""


def _flatten(value: Any, out: list) -> Any:
    """Replace every ndarray in ``value`` (contiguified) with an
    :class:`_ArraySlot`, appending the arrays to ``out`` in order."""
    if isinstance(value, np.ndarray):
        out.append(np.ascontiguousarray(value))
        return _ArraySlot(len(out) - 1)
    if isinstance(value, tuple):
        return tuple(_flatten(v, out) for v in value)
    if isinstance(value, list):
        return [_flatten(v, out) for v in value]
    if isinstance(value, dict):
        return {k: _flatten(v, out) for k, v in value.items()}
    return value


def _rebuild(template: Any, views: list) -> Any:
    """Inverse of :func:`_flatten` with ``views`` standing in for arrays."""
    if isinstance(template, _ArraySlot):
        return views[template.index]
    if isinstance(template, tuple):
        return tuple(_rebuild(v, views) for v in template)
    if isinstance(template, list):
        return [_rebuild(v, views) for v in template]
    if isinstance(template, dict):
        return {k: _rebuild(v, views) for k, v in template.items()}
    return template


def _layout(arrays: list[np.ndarray]) -> tuple[list[int], int]:
    offsets: list[int] = []
    total = 0
    for a in arrays:
        total = -(-total // _ALIGN) * _ALIGN
        offsets.append(total)
        total += a.nbytes
    return offsets, total


def payload_nbytes(value: Any) -> int:
    """Size of a block payload for cache accounting: array data bytes,
    ``sys.getsizeof`` for any other leaf."""
    if isinstance(value, (tuple, list)):
        total = 0
        for item in value:
            total += getattr(item, "nbytes", None) or payload_nbytes(item)
        return total
    if isinstance(value, dict):
        return payload_nbytes(tuple(value.values()))
    return getattr(value, "nbytes", None) or sys.getsizeof(value)


def own_payload(value: Any) -> tuple[Any, int]:
    """``(owned_value, array_bytes)``: ``value`` with every ndarray that
    does not own its memory replaced by an owning copy.

    The zero-copy fetch path materializes arrays as views over a comm
    transport buffer; a consumer that *caches* the payload (the worker
    ``BlockCache``) must own the bytes so the transport buffer can go
    back to its pool -- this is the single copy the "copies-per-block
    <= 1" budget spends, and only when the payload is actually cached.
    Already-owning payloads pass through untouched.
    """
    arrays: list[np.ndarray] = []
    template = _flatten(value, arrays)
    if not arrays:
        return value, 0
    nbytes = sum(a.nbytes for a in arrays)
    if all(a.flags.owndata for a in arrays):
        return value, nbytes
    owned = [a if a.flags.owndata else a.copy() for a in arrays]
    return _rebuild(template, owned), nbytes


class _Segment:
    """One parent-owned shared-memory segment backing one block version."""

    __slots__ = ("shm", "descriptor", "nbytes", "_released")

    def __init__(self, shm: shared_memory.SharedMemory, descriptor: ShmDescriptor, nbytes: int):
        self.shm = shm
        self.descriptor = descriptor
        self.nbytes = nbytes
        self._released = False

    def dispose(self) -> bool:
        """Unlink the segment name; close the mapping if no live views
        reference it.  Returns False when views keep the mapping alive
        (the owner retries later -- the memory is freed at the latest
        when the last view dies and the process exits)."""
        if not self._released:
            self._released = True
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass
        try:
            self.shm.close()
        except BufferError:
            return False
        return True


def materialize_segment(value: Any, small_bytes: int = 0) -> tuple[Any, _Segment | None]:
    """Copy ``value``'s arrays into a fresh segment; return the same
    structure rebuilt over zero-copy views plus the owning segment, or
    ``(value, None)`` when there is nothing to share -- or when the
    arrays total fewer than ``small_bytes`` bytes (payloads below the
    segment-worthiness floor stay plain values)."""
    arrays: list[np.ndarray] = []
    template = _flatten(value, arrays)
    if not arrays:
        return value, None
    if small_bytes and sum(a.nbytes for a in arrays) < small_bytes:
        return value, None
    offsets, total = _layout(arrays)
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    views: list[np.ndarray] = []
    specs: list[ArraySpec] = []
    for a, off in zip(arrays, offsets):
        v = np.ndarray(a.shape, dtype=a.dtype, buffer=shm.buf, offset=off)
        v[...] = a
        views.append(v)
        specs.append(ArraySpec(a.dtype.str, tuple(a.shape), off))
    payload = _rebuild(template, views)
    seg = _Segment(shm, ShmDescriptor(shm.name, template, tuple(specs)), total)
    return payload, seg


# ---------------------------------------------------------------------------
# worker-side attach


class Attachment:
    """A read-only mapping of one segment, held open for a job's duration."""

    __slots__ = ("_mm", "_shm", "buf")

    def __init__(self, mm: mmap.mmap | None = None, shm: Any = None) -> None:
        self._mm = mm
        self._shm = shm
        self.buf: Any = mm if mm is not None else shm.buf

    def close(self) -> None:
        self.buf = None
        try:
            if self._mm is not None:
                self._mm.close()
            elif self._shm is not None:
                self._shm.close()
        except BufferError:
            # A view outlived the job (e.g. held by an in-flight reply);
            # the mapping is freed when the view dies or the worker exits.
            pass


def attach_readonly(name: str) -> Attachment:
    """Attach to segment ``name`` without registering with the resource
    tracker (the attaching side must never own cleanup).

    Raises ``FileNotFoundError`` when the segment was unlinked -- i.e.
    the version was evicted or rewritten after the descriptor was taken.
    """
    if _DEV_SHM is not None:
        fd = os.open(os.path.join(_DEV_SHM, name.lstrip("/")), os.O_RDONLY)
        try:
            mm = mmap.mmap(fd, 0, prot=mmap.PROT_READ)
        finally:
            os.close(fd)
        return Attachment(mm=mm)
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)  # 3.13+
    except TypeError:  # pragma: no cover - non-Linux, pre-3.13 fallback
        shm = shared_memory.SharedMemory(name=name)
    return Attachment(shm=shm)


def attach_payload(desc: ShmDescriptor) -> tuple[Any, Attachment]:
    """Rebuild a payload from ``desc`` over a read-only attachment."""
    att = attach_readonly(desc.name)
    views = []
    for spec in desc.arrays:
        v = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=att.buf, offset=spec.offset)
        if v.flags.writeable:  # SharedMemory fallback path
            v.flags.writeable = False
        views.append(v)
    return _rebuild(desc.template, views), att


# ---------------------------------------------------------------------------
# the store backend


@dataclass
class ShmStats:
    """Segment-lifecycle counters (sizing and leak tests)."""

    segments_created: int = 0
    segments_released: int = 0
    bytes_current: int = 0
    bytes_peak: int = 0
    pickled_payloads: int = 0
    """Writes whose payload held no arrays (shipped by pickle instead)."""

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


class SharedMemoryBackend:
    """Mixin over :class:`BlockStore` (or a subclass) that backs every
    array-bearing version with a parent-owned shared-memory segment.

    Cooperative-MRO: ``write``/``pin``/``corrupt_data`` transform the
    payload and delegate to ``super()``, so it composes with
    :class:`~repro.detect.checksum.ChecksumStore` (which then
    fingerprints the very views workers will read).

    Lock order: slot lock before ``_seg_lock``, never the reverse.
    """

    def __init__(
        self,
        policy: AllocationPolicy | None = None,
        small_block_bytes: int = SMALL_BLOCK_BYTES,
        **kwargs: Any,
    ) -> None:
        super().__init__(policy, **kwargs)
        self._small_block_bytes = max(0, small_block_bytes)
        self.shm_stats = ShmStats()
        self._segments: dict[Hashable, dict[int, _Segment]] = {}
        self._seg_lock = threading.Lock()
        self._zombies: list[_Segment] = []

    # -- producer side ------------------------------------------------------

    def write(self, ref: BlockRef, data: Any) -> None:
        if not self._segments.get(ref.block) and payload_nbytes(data) < self._small_block_bytes:
            # Below the floor, with no segment to retire or sweep.
            super().write(ref, data)  # type: ignore[misc]
            self.shm_stats.pickled_payloads += 1
            return
        payload, seg = materialize_segment(data, self._small_block_bytes)
        super().write(ref, payload)  # type: ignore[misc]
        self._install_segment(ref, seg)
        self._sweep_block(ref.block)

    def pin(self, ref: BlockRef, data: Any) -> None:
        payload, seg = materialize_segment(data, self._small_block_bytes)
        super().pin(ref, payload)  # type: ignore[misc]
        self._install_segment(ref, seg)

    def register_metrics(self, registry: Any) -> None:
        """Base-store gauges plus segment-lifecycle gauges."""
        super().register_metrics(registry)  # type: ignore[misc]
        for name in ("segments_created", "segments_released", "bytes_current", "bytes_peak"):
            registry.callback_gauge(
                f"repro_shm_{name}",
                lambda n=name: getattr(self.shm_stats, n),
                f"shared-memory backend stats.{name}",
            )

    # -- dispatch surface ---------------------------------------------------

    def descriptor(self, ref: BlockRef) -> ShmDescriptor | None:
        """The picklable shm descriptor for ``ref``, or ``None`` when the
        version is absent or not shm-backed (ship the payload by pickle)."""
        with self._seg_lock:
            per = self._segments.get(ref.block)
            seg = per.get(ref.version) if per else None
            return seg.descriptor if seg is not None else None

    # -- fault injection ----------------------------------------------------

    def corrupt_data(self, ref: BlockRef, mutate: Callable[[Any], Any]) -> bool:
        """Silent corruption that lands in the segment bytes, so worker
        processes observe exactly what parent-side readers observe."""

        def shm_mutate(payload: Any) -> Any:
            return self._corrupt_rewrite(ref, mutate(payload))

        return super().corrupt_data(ref, shm_mutate)  # type: ignore[misc]

    def _corrupt_rewrite(self, ref: BlockRef, new: Any) -> Any:
        arrays: list[np.ndarray] = []
        template = _flatten(new, arrays)
        with self._seg_lock:
            per = self._segments.get(ref.block)
            seg = per.get(ref.version) if per else None
            if (
                seg is not None
                and len(arrays) == len(seg.descriptor.arrays)
                and all(
                    a.dtype.str == s.dtype and tuple(a.shape) == s.shape
                    for a, s in zip(arrays, seg.descriptor.arrays)
                )
            ):
                # In-place: same segment, same descriptor, new bytes.
                views = []
                for a, s in zip(arrays, seg.descriptor.arrays):
                    v = np.ndarray(s.shape, dtype=np.dtype(s.dtype), buffer=seg.shm.buf, offset=s.offset)
                    v[...] = a
                    views.append(v)
                return _rebuild(template, views)
        # Shape/structure changed: give the version a fresh segment (or
        # a plain value, if the new payload is below the segment floor).
        payload, seg = materialize_segment(new, self._small_block_bytes)
        self._install_segment(ref, seg)
        return payload

    # -- lifecycle ----------------------------------------------------------

    def _install_segment(self, ref: BlockRef, seg: _Segment | None) -> None:
        retired: _Segment | None
        with self._seg_lock:
            per = self._segments.setdefault(ref.block, {})
            retired = per.pop(ref.version, None)
            if seg is not None:
                per[ref.version] = seg
                st = self.shm_stats
                st.segments_created += 1
                st.bytes_current += seg.nbytes
                if st.bytes_current > st.bytes_peak:
                    st.bytes_peak = st.bytes_current
            else:
                self.shm_stats.pickled_payloads += 1
        if retired is not None:
            self._retire(retired)

    def _sweep_block(self, block: Hashable) -> None:
        """Release segments of versions the policy evicted from ``block``."""
        slot = self._slots[block]  # type: ignore[attr-defined]
        with slot.lock:
            live = set(slot.versions) | set(slot.pinned)
        dead: list[_Segment] = []
        with self._seg_lock:
            per = self._segments.get(block)
            if not per:
                return
            for v in [v for v in per if v not in live]:
                dead.append(per.pop(v))
        for seg in dead:
            self._retire(seg)

    def _retire(self, seg: _Segment) -> None:
        done = seg.dispose()
        with self._seg_lock:
            st = self.shm_stats
            st.segments_released += 1
            st.bytes_current -= seg.nbytes
            if not done:
                self._zombies.append(seg)

    def close(self) -> None:
        """Unlink and close every segment this store owns.  Idempotent;
        call when the run's results have been extracted."""
        with self._seg_lock:
            segs = [s for per in self._segments.values() for s in per.values()]
            segs.extend(self._zombies)
            self._segments.clear()
            self._zombies.clear()
            self.shm_stats.bytes_current = 0
        leftovers = [s for s in segs if not s.dispose()]
        with self._seg_lock:
            self._zombies.extend(leftovers)

    def __del__(self) -> None:  # best-effort: tests/examples call close()
        try:
            self.close()
        except Exception:
            pass


class SharedMemoryBlockStore(SharedMemoryBackend, BlockStore):
    """`BlockStore` whose array payloads live in shared memory."""
