"""Runtime task records: the per-task state of Section III plus the
fault-tolerance additions of Section IV.

Fields mirror the paper:

* ``join`` -- the join counter, initialized to ``1 + |preds|``.  The extra
  slot is the task's *self-notification*: INITANDCOMPUTE issues it after
  finishing the predecessor traversal, so a task never computes before its
  own exploration frame is done (no sync needed -- the NABBIT trick).
* ``notify_array`` -- successors enqueued for completion notification.
* ``status`` -- VISITED / COMPUTED / COMPLETED.
* ``bit_vector`` (FT only) -- one bit per entry of the ordered predecessor
  list, plus the self slot; a set bit means "this notification is still
  outstanding".  NOTIFYONCE decrements ``join`` only after atomically
  clearing the corresponding bit, making re-notification by recovered
  predecessors idempotent (Guarantee 3).
* ``life`` (FT only) -- the incarnation number this record was created
  with (Guarantee 1); ``replaced`` -- set once a newer one took its place.
* ``corrupted`` -- the detected-fault flag: set by the injector, observed
  by every subsequent access via :meth:`TaskRecord.check` ("once an error
  is detected, all subsequent accesses ... observe the error").

The rest is the lifecycle record handed to the sink (:mod:`repro.obs.events`):
``handed``, the notifications of this arming already handed on, and,
traced runs only, each phase's ``(seq, t, worker)`` stamp and the
notifying sources in arrival order (``srcs``, a tuple grown per source:
no call on the hot path, and in-degrees are small).

The bit vector is a plain int bitmask; on CPython all mutations happen
under the record's lock, standing in for the paper's atomics.
"""

from __future__ import annotations

import threading
from typing import Hashable, List

from repro.core.status import TaskStatus
from repro.exceptions import TaskCorruptionError

# Every task insert and recovery builds a record: read the initial status
# as a module global, not an Enum member.
_VISITED, _COMPLETED = TaskStatus.VISITED, TaskStatus.COMPLETED


class TaskRecord:
    """Mutable runtime state for one incarnation of one task."""

    __slots__ = (
        "key",
        "life",
        "n_preds",
        "join",
        "bit_vector",
        "notify_array",
        "status",
        "corrupted",
        "recovery", "replaced",
        "lock",
        "handed", "created_at", "begin_at", "end_at", "computed_at", "srcs",
    )

    def __init__(self, key: Hashable, n_preds: int, life: int = 1) -> None:
        self.key = key
        self.life = life
        self.n_preds = n_preds
        # +1 for the self-notification issued at the end of the
        # predecessor traversal (see module docstring).
        self.join = n_preds + 1
        self.bit_vector = (1 << (n_preds + 1)) - 1
        self.notify_array: List[Hashable] = []
        self.status = _VISITED
        self.corrupted = False
        self.recovery = self.replaced = False
        self.lock = threading.Lock()
        self.handed = 0
        self.created_at = self.begin_at = self.end_at = self.computed_at = None
        self.srcs: tuple[Hashable, ...] = ()

    # -- fault observation ---------------------------------------------------------

    def check(self) -> None:
        """Observe the record; raise if a detected fault has marked it."""
        if self.corrupted:
            raise TaskCorruptionError(self.key, self.life)

    # -- join-counter protocol (always under ``lock`` in threaded mode) -------------

    def try_unset_bit(self, index: int) -> bool:
        """ATOMICBITUNSET: clear bit ``index``; True iff it was set."""
        mask = 1 << index
        if self.bit_vector & mask:
            self.bit_vector &= ~mask
            return True
        return False

    def reset_for_reuse(self) -> None:
        """RESETNODE state re-arm: restore join counter and bit vector so
        the predecessor traversal can be replayed from scratch."""
        self.join = self.n_preds + 1
        self.bit_vector = (1 << (self.n_preds + 1)) - 1
        self.handed = 0

    def take_unhanded(self, began: bool | None = None) -> tuple[int, bool] | None:
        """``(notifications, began)`` since the last handoff, now marked
        handed, or ``None`` once completed (handed whole).  ``began``
        (did COMPUTE run?) defaults to "the join counter was zeroed": its
        zeroer calls COMPUTE.  Unlocked: taken only where the arming can
        no longer change (counter zero and every bit clear, or run over)."""
        if self.status is _COMPLETED:
            return None
        notified = self.n_preds + 1 - self.join - self.handed
        self.handed += notified
        if began is None:
            began = self.join <= 0 and notified != 0
        return notified, began

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaskRecord(key={self.key!r}, life={self.life}, join={self.join}, "
            f"status={self.status.name}, corrupted={self.corrupted})"
        )
