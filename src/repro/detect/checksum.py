"""Checksummed block store: detect-on-access for *silent* corruption.

The base :class:`~repro.memory.blockstore.BlockStore` realizes the
paper's fault model, where detection is assumed ("once an error is
detected ..."): injectors set flags, accesses observe them.  A *silent*
fault sets no flag -- the payload is simply wrong.  ``ChecksumStore``
closes that gap: every published version is fingerprinted at write time
(:mod:`repro.detect.digest`), and consumer-facing accesses (``read``,
``status_of``, ``is_available``) re-fingerprint the payload and compare.
A mismatch is converted into the store's ordinary corruption path -- the
flag is set, ``DataCorruptionError`` raised -- which the FT scheduler
already recovers from.  Detection is thus a *translation layer*: silent
faults in, detected faults out, no scheduler changes needed.

Counting discipline (see ``StoreStats`` and the regression tests): a
checksum-detected read marks the flag once (``corruptions_marked``) and
counts one ``corrupted_reads``; later reads of the same version take the
flag path in the base class and never reach verification, so nothing is
double-counted when a version is both checksum-mismatched and
flag-corrupted.

Pinned versions (resilient input data) are never fingerprinted or
verified, mirroring their immunity to ``mark_corrupted``.  ``peek``
stays non-faulting and non-verifying: it is the introspection side door
for reports and must not mutate detection state.

Thread-safety: fingerprints live in a side table under a dedicated
lock.  Fingerprint computation happens outside the slot lock; the only
write/write race on one version is recovery replay, which the recovery
table serializes per incarnation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Hashable

from repro.detect.digest import DEFAULT_DIGEST, Digest, canonical_bytes, digest_from_name
from repro.exceptions import DataCorruptionError
from repro.graph.taskspec import BlockRef
from repro.memory.allocator import AllocationPolicy
from repro.memory.blockstore import BlockStore
from repro.memory.shm import SharedMemoryBackend
from repro.obs.events import EventKind
from repro.runtime.tracing import note_and_emit

_MISSING = object()


@dataclass
class DetectionStats:
    """Checksum-layer counters (detection coverage and overhead)."""

    fingerprints: int = 0
    """Versions fingerprinted at write time."""

    verifications: int = 0
    """Consumer accesses that re-fingerprinted and compared."""

    mismatches: int = 0
    """Verifications that caught a silent corruption."""

    unverified_reads: int = 0
    """Accesses with no fingerprint on record (pinned inputs)."""

    digest_seconds: float = 0.0
    """Wall-clock time spent fingerprinting (write + verify side); the
    direct cost of the detection layer."""

    def snapshot(self) -> dict[str, float]:
        return dict(self.__dict__)


class ChecksumStore(BlockStore):
    """Block store that fingerprints every published version and verifies
    on consumer access, raising the existing corruption path on mismatch."""

    def __init__(
        self,
        policy: AllocationPolicy | None = None,
        digest: str | Digest = DEFAULT_DIGEST,
        verify_on_read: bool = True,
        trace: Any = None,
        event_log: Any = None,
    ) -> None:
        super().__init__(policy)
        self.digest_name = digest if isinstance(digest, str) else getattr(
            digest, "__name__", "custom"
        )
        self._digest = digest_from_name(digest) if isinstance(digest, str) else digest
        self.verify_on_read = verify_on_read
        self.detection = DetectionStats()
        self.trace = trace
        """Optional :class:`~repro.runtime.tracing.ExecutionTrace`; bumps
        ``sdc_detected`` on each mismatch.  Schedulers share theirs at
        construction time when this is left ``None``."""
        self.event_log = event_log
        """Optional :class:`~repro.obs.events.EventLog` for SDC_DETECTED
        events (shared by the schedulers when left ``None``)."""
        self._sums: dict[tuple[Hashable, int], int | bytes] = {}
        self._detected: set[tuple[Hashable, int]] = set()
        self._sums_lock = threading.Lock()

    # -- producer side -----------------------------------------------------------

    def write(self, ref: BlockRef, data: Any) -> None:
        fp = self._fingerprint(data)
        super().write(ref, data)
        with self._sums_lock:
            self._sums[(ref.block, ref.version)] = fp
            # A rewrite is regeneration (recovery replay): clean data,
            # fresh fingerprint, and a later corruption of the same
            # version counts as a new detection.
            self._detected.discard((ref.block, ref.version))
            self.detection.fingerprints += 1

    # -- consumer side -----------------------------------------------------------

    def read(self, ref: BlockRef) -> Any:
        data = super().read(ref)  # flag-corrupted / evicted raise here
        if self.verify_on_read and not self._verify(ref, data):
            self.stats.corrupted_reads += 1
            raise DataCorruptionError(ref.block, ref.version)
        return data

    def status_of(self, ref: BlockRef) -> str:
        status = super().status_of(ref)
        if status == "ok" and self.verify_on_read:
            data = super().peek(ref, _MISSING)
            if data is not _MISSING and not self._verify(ref, data):
                return "corrupted"
        return status

    def is_available(self, ref: BlockRef) -> bool:
        if not super().is_available(ref):
            return False
        if self.verify_on_read:
            data = super().peek(ref, _MISSING)
            if data is _MISSING:
                return False
            return self._verify(ref, data)
        return True

    # -- sweeps ----------------------------------------------------------------

    def audit(self) -> list[BlockRef]:
        """Verify every resident version; returns the refs that failed
        (now flag-corrupted).  An end-of-run audit catches after-notify
        silent faults that no consumer ever re-read."""
        bad: list[BlockRef] = []
        for ref in list(self.refs()):
            data = super().peek(ref, _MISSING)
            if data is _MISSING:  # flag-corrupted or raced eviction
                continue
            if not self._verify(ref, data):
                bad.append(ref)
        return bad

    # -- internals ----------------------------------------------------------------

    def _fingerprint(self, data: Any) -> int | bytes:
        t0 = time.perf_counter()
        fp = self._digest(canonical_bytes(data))
        dt = time.perf_counter() - t0
        with self._sums_lock:
            self.detection.digest_seconds += dt
        return fp

    def _verify(self, ref: BlockRef, data: Any) -> bool:
        """True iff ``data`` matches ``ref``'s recorded fingerprint; on
        mismatch, marks the version corrupted (once) and records the
        detection."""
        with self._sums_lock:
            want = self._sums.get((ref.block, ref.version), _MISSING)
        if want is _MISSING:
            with self._sums_lock:
                self.detection.unverified_reads += 1
            return True
        got = self._fingerprint(data)
        with self._sums_lock:
            self.detection.verifications += 1
        if got == want:
            return True
        # mark_corrupted is idempotent on the flag and single-counts
        # corruptions_marked, so a version that several accesses race to
        # detect -- or that a flag injector also hits -- stays at one
        # count in StoreStats.
        self.mark_corrupted(ref)
        with self._sums_lock:
            self.detection.mismatches += 1
            first_detection = (ref.block, ref.version) not in self._detected
            self._detected.add((ref.block, ref.version))
        if first_detection:
            note_and_emit(self.trace, self.event_log, EventKind.SDC_DETECTED,
                          block=ref.block, version=ref.version, method="checksum")
        return False


class SharedMemoryChecksumStore(SharedMemoryBackend, ChecksumStore):
    """Checksummed store whose payloads live in shared memory.

    MRO: the shm backend materializes the segment first, then
    :class:`ChecksumStore` fingerprints the zero-copy *views* -- the very
    bytes worker processes will read -- so an in-segment silent
    corruption (``corrupt_data``) is caught by the next parent-side
    verification exactly as with the in-process store, and dispatch
    converts it into the scheduler's recovery path before any descriptor
    ships (:class:`repro.runtime.procpool.ProcessRuntime` reads inputs in
    the parent).
    """

