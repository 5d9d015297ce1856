"""Thread-safe versioned block store with detect-on-access fault semantics.

The store is the single point through which task computations exchange
data, and therefore the single point where two of the paper's fault-model
events surface:

* reading a **corrupted** version raises
  :class:`~repro.exceptions.DataCorruptionError` ("once an error is
  detected, all subsequent accesses to that object will observe the
  error" -- Section II);
* reading an **evicted** version under memory reuse raises
  :class:`~repro.exceptions.OverwrittenError`, the trigger for the
  cascading-recovery chains of Section IV.

Writes always succeed: a (re-)executing producer replaces whatever the
block's buffer ring currently holds, exactly like an in-place update of a
reused buffer.  Rewriting a version also clears its corruption mark --
recovery regenerates clean data.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

from repro.exceptions import DataCorruptionError, OverwrittenError
from repro.graph.taskspec import BlockRef
from repro.memory.allocator import AllocationPolicy, SingleAssignment


@dataclass
class StoreStats:
    """Counters exposed for ablation benchmarks and tests."""

    writes: int = 0
    rewrites: int = 0
    evictions: int = 0
    reads: int = 0
    corrupted_reads: int = 0
    overwritten_reads: int = 0
    corruptions_marked: int = 0
    silent_corruptions: int = 0
    peak_resident: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


class _Entry:
    __slots__ = ("data", "corrupted")

    def __init__(self, data: Any) -> None:
        self.data = data
        self.corrupted = False


class _Slot:
    """One logical block: a ring of ``keep`` resident versions, plus
    pinned versions that live outside the ring."""

    __slots__ = ("versions", "pinned", "lock")

    def __init__(self) -> None:
        # version -> _Entry, in write order (oldest write first).
        self.versions: OrderedDict[int, _Entry] = OrderedDict()
        self.pinned: dict[int, _Entry] = {}
        self.lock = threading.Lock()


class _Slots(dict):
    """block -> :class:`_Slot`, made on first touch."""

    def __missing__(self, block: Hashable) -> _Slot:
        # setdefault is GIL-atomic: racing first touches share one slot.
        return self.setdefault(block, _Slot())


class BlockStore:
    """Versioned storage for all data blocks of one task-graph execution."""

    def __init__(self, policy: AllocationPolicy | None = None) -> None:
        self.policy = policy or SingleAssignment()
        self.stats = StoreStats()
        self._slots = _Slots()
        self._resident = 0

    # -- producer side ----------------------------------------------------------

    def write(self, ref: BlockRef, data: Any) -> None:
        """Store ``data`` as ``ref``; evict beyond the policy's buffer count.

        Re-writing a resident version refreshes its data in place (and
        clears any corruption mark) without consuming another buffer.
        """
        slot = self._slots[ref.block]
        keep = self.policy.keep
        with slot.lock:
            self.stats.writes += 1
            delta = 0
            existing = slot.versions.pop(ref.version, None)
            if existing is not None:
                self.stats.rewrites += 1
            else:
                delta += 1
            slot.versions[ref.version] = _Entry(data)
            if keep is not None:
                while len(slot.versions) > keep:
                    slot.versions.popitem(last=False)
                    self.stats.evictions += 1
                    delta -= 1
            self._bump_resident(delta)

    def pin(self, ref: BlockRef, data: Any) -> None:
        """Store ``ref`` as *resilient input data*: never evicted by the
        retention policy and immune to corruption marking.

        This models the paper's assumption that application inputs and
        "data structures beyond the data blocks operated on by tasks are
        ... made resilient through other means" (Section II): recovery
        chains terminate when they reach pinned version-0 inputs.
        """
        slot = self._slots[ref.block]
        with slot.lock:
            slot.pinned[ref.version] = _Entry(data)

    def is_pinned(self, ref: BlockRef) -> bool:
        # Lock-free: a single membership probe of a GIL-atomic dict; see
        # status_of for the memory-ordering argument.
        return ref.version in self._slots[ref.block].pinned

    def _bump_resident(self, delta: int) -> None:
        # Racy under threads but only feeds a statistics high-water mark.
        self._resident += delta
        if self._resident > self.stats.peak_resident:
            self.stats.peak_resident = self._resident

    # -- consumer side ----------------------------------------------------------

    def read(self, ref: BlockRef) -> Any:
        """Return the data for ``ref`` or raise the matching fault error."""
        slot = self._slots[ref.block]
        with slot.lock:
            self.stats.reads += 1
            pinned = slot.pinned.get(ref.version) if slot.pinned else None
            if pinned is not None:
                return pinned.data
            entry = slot.versions.get(ref.version)
            if entry is None:
                self.stats.overwritten_reads += 1
                resident = next(reversed(slot.versions)) if slot.versions else None
                raise OverwrittenError(ref.block, ref.version, resident)
            if entry.corrupted:
                self.stats.corrupted_reads += 1
                raise DataCorruptionError(ref.block, ref.version)
            return entry.data

    def peek(self, ref: BlockRef, default: Any = None) -> Any:
        """Non-faulting read for tests/reports: returns ``default`` when the
        version is absent or corrupted.

        Lock-free; same linearization argument as :meth:`status_of`.  Does
        not bump read statistics, so skipping the lock loses nothing."""
        slot = self._slots[ref.block]
        pinned = slot.pinned.get(ref.version) if slot.pinned else None
        if pinned is not None:
            return pinned.data
        entry = slot.versions.get(ref.version)
        if entry is None or entry.corrupted:
            return default
        return entry.data

    def status_of(self, ref: BlockRef) -> str:
        """``"ok"``, ``"corrupted"``, or ``"missing"`` (never written or
        evicted) -- the non-raising form of :meth:`read` used by the
        scheduler's predecessor-output availability check.

        **Lock-free.**  Memory-ordering argument (CPython): each probe
        (``in`` / ``dict.get`` / ``entry.corrupted``) is a single GIL-atomic
        operation against state that concurrent writers mutate only *under*
        the slot lock, so every probe observes some consistent
        linearization point -- never a torn entry.  The composite answer
        can be stale by at most one concurrent write/corruption, which the
        locked version permitted equally: a status returned under the lock
        was stale the instant the lock was released.  Callers (the
        scheduler's availability check) already treat the answer as a hint
        that the subsequent faulting ``read`` re-validates authoritatively.
        """
        slot = self._slots[ref.block]
        if ref.version in slot.pinned:
            return "ok"
        entry = slot.versions.get(ref.version)
        if entry is None:
            return "missing"
        return "corrupted" if entry.corrupted else "ok"

    def newest_resident(self, block: Hashable) -> int | None:
        """Most recently written resident version of ``block`` (or None)."""
        slot = self._slots[block]
        with slot.lock:
            return next(reversed(slot.versions)) if slot.versions else None

    def is_available(self, ref: BlockRef) -> bool:
        """True iff ``ref`` is resident and uncorrupted.

        This is the scheduler's ``B.overwritten``-style availability check
        from TRYINITCOMPUTE: a predecessor whose outputs are unavailable is
        treated as failed and recovered.
        """
        # Lock-free; see status_of for the memory-ordering argument.
        slot = self._slots[ref.block]
        if ref.version in slot.pinned:
            return True
        entry = slot.versions.get(ref.version)
        return entry is not None and not entry.corrupted

    # -- fault injection ----------------------------------------------------------

    def mark_corrupted(self, ref: BlockRef) -> bool:
        """Flag ``ref`` as corrupted; returns False if it was not resident
        (nothing left to corrupt -- the buffer already holds another
        version)."""
        slot = self._slots[ref.block]
        with slot.lock:
            if ref.version in slot.pinned:
                return False  # resilient input data cannot be corrupted
            entry = slot.versions.get(ref.version)
            if entry is None:
                return False
            if not entry.corrupted:
                entry.corrupted = True
                self.stats.corruptions_marked += 1
            return True

    def corrupt_data(self, ref: BlockRef, mutate: Callable[[Any], Any]) -> bool:
        """Silently replace ``ref``'s payload with ``mutate(payload)``.

        This is the *silent data corruption* primitive of
        :mod:`repro.detect`: no corruption flag is set and no error will
        ever be raised by the store itself, so the fault is observable
        only through a detector (checksum verification or task
        replication) -- or through a wrong final result.  Returns False
        when the version is pinned (resilient input data) or not
        resident.  ``stats.silent_corruptions`` is ground truth for the
        injector, not a detection counter.
        """
        slot = self._slots[ref.block]
        with slot.lock:
            if ref.version in slot.pinned:
                return False
            entry = slot.versions.get(ref.version)
            if entry is None:
                return False
            entry.data = mutate(entry.data)
            self.stats.silent_corruptions += 1
            return True

    # -- introspection ----------------------------------------------------------

    def resident_versions(self, block: Hashable) -> tuple[int, ...]:
        """Versions currently resident for ``block``, oldest write first."""
        slot = self._slots[block]
        with slot.lock:
            return tuple(slot.versions)

    def blocks(self) -> tuple[Hashable, ...]:
        return tuple(self._slots)  # one GIL-atomic copy

    def resident_count(self) -> int:
        return sum(len(self._slots[b].versions) for b in self.blocks())

    def refs(self) -> Iterable[BlockRef]:
        """All resident (block, version) references (unordered)."""
        for block in self.blocks():
            for v in self.resident_versions(block):
                yield BlockRef(block, v)

    def register_metrics(self, registry: Any) -> None:
        """Publish pull-based occupancy/traffic gauges into a
        :class:`~repro.obs.live.MetricsRegistry`.

        Everything is a callback gauge reading state the store already
        maintains, so registering costs the write/read hot paths nothing.
        Subclasses extend (e.g. the shm backend adds segment byte
        counts)."""
        registry.callback_gauge(
            "repro_store_resident_versions",
            self.resident_count,
            "block versions currently resident (ring + pinned excluded)",
        )
        for name in ("writes", "reads", "evictions", "peak_resident"):
            registry.callback_gauge(
                f"repro_store_{name}",
                lambda n=name: getattr(self.stats, n),
                f"BlockStore stats.{name}",
            )
