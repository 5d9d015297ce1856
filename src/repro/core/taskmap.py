"""Concurrent task map: key -> current :class:`TaskRecord` incarnation.

The paper stores task *pointers* in a concurrent hash map keyed by int64
task keys; recovery replaces the pointer with a new incarnation and bumps
the key's *life number* (Guarantee 1).  Life numbers are tracked per key
in the map itself so they survive record replacement.

The map also remembers, per key, the number of predecessors -- records
must be created fully initialized (join counter, bit vector) because other
threads may operate on a record the instant it becomes visible.

Concurrency design (this file is on the hot path of every scheduler
operation):

* **Lock striping.**  Mutations take one of ``n_stripes`` locks selected
  by ``hash(key) % n_stripes``, so inserts/replacements of unrelated keys
  proceed in parallel instead of convoying behind a single map mutex.
  Both callers racing on the *same* key hash to the same stripe, which is
  all the exactly-once insert guarantee needs.
* **Optimistic lock-free reads.**  ``get`` (and the hit path of
  ``insert_if_absent``) read the shared dict without any lock; see the
  ``get`` docstring for the memory-ordering argument.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable

from repro.core.records import TaskRecord

#: Default stripe count.  Must be a power of two only by convention (any
#: positive count is correct); 16 comfortably exceeds the worker counts
#: this repo runs (<= 32) while keeping the lock array cache-friendly.
DEFAULT_STRIPES = 16


class TaskMap:
    """Thread-safe mapping of task keys to their live incarnation."""

    def __init__(
        self,
        n_preds_of: Callable[[Hashable], int],
        n_stripes: int = DEFAULT_STRIPES,
    ) -> None:
        if n_stripes < 1:
            raise ValueError(f"n_stripes must be >= 1, got {n_stripes}")
        self._n_preds_of = n_preds_of
        self._records: dict[Hashable, TaskRecord] = {}
        self._n_stripes = n_stripes
        self._locks = tuple(threading.Lock() for _ in range(n_stripes))
        self._inserts = [0] * n_stripes
        # Replaced incarnations: a dead one may hold lifecycle state that
        # was never handed on (NabbitScheduler.run sweeps them).
        self.retired: list[TaskRecord] = []

    def insert_if_absent(self, key: Hashable) -> tuple[TaskRecord, int, bool]:
        """INSERTTASKIFABSENT + GETTASK: returns ``(record, life, inserted)``.

        Exactly one caller per key observes ``inserted=True`` and becomes
        responsible for spawning the task's INITANDCOMPUTE.

        The hit path (key already resident -- the common case during
        notification re-traversal) is lock-free; the miss path takes only
        the key's stripe lock and re-checks under it, so two racing
        inserters of the same key serialize on that stripe and exactly one
        performs the insert.
        """
        rec = self._records.get(key)  # optimistic lock-free hit path
        if rec is not None:
            return rec, rec.life, False
        stripe = hash(key) % self._n_stripes
        with self._locks[stripe]:
            rec = self._records.get(key)
            if rec is not None:
                return rec, rec.life, False
            rec = TaskRecord(key, self._n_preds_of(key), life=1)
            self._records[key] = rec
            self._inserts[stripe] += 1
            return rec, 1, True

    def get(self, key: Hashable) -> tuple[TaskRecord | None, int]:
        """GETTASK: current incarnation and its life (``(None, 0)`` if absent).

        **Lock-free.**  Memory-ordering argument (CPython): the single
        ``dict.get`` is one atomic operation under the GIL, so it observes
        either the pre-insert, pre-replace, or post-replace state of the
        key -- never a torn entry.  The returned record is safe to use
        unlocked because records are *published fully initialized*:
        ``insert_if_absent``/``replace`` construct the ``TaskRecord``
        (join counter, bit vector, life) completely before the one store
        that makes it reachable, and ``TaskRecord.life`` is immutable for
        the lifetime of the object -- a new incarnation is a new object,
        never an in-place update.  Hence ``(rec, rec.life)`` is always an
        internally consistent pair, exactly as if the read had happened
        under the old map mutex at the instant of the dict lookup.  The
        only admissible anomaly is staleness -- a caller may see the
        previous incarnation of a key that is concurrently being replaced
        -- which the locked implementation permitted too (the lookup
        linearizes before the replacement) and which the scheduler's life
        numbers are designed to detect (Guarantee 6 stale-frame gating).
        """
        rec = self._records.get(key)
        if rec is None:
            return None, 0
        return rec, rec.life

    def replace(self, key: Hashable) -> tuple[TaskRecord, int]:
        """REPLACETASK: install a fresh incarnation with the next life number.

        The key must already be present -- only failed (hence previously
        inserted) tasks are ever replaced.  Serialized per stripe, so two
        recoveries of different keys can replace concurrently while
        replacements of one key are totally ordered.
        """
        stripe = hash(key) % self._n_stripes
        with self._locks[stripe]:
            old = self._records[key]
            rec = TaskRecord(key, self._n_preds_of(key), life=old.life + 1)
            self._records[key] = rec
            old.replaced = True  # after the store: a frame that sees it finds ``rec``
            self.retired.append(old)
            return rec, rec.life

    def records(self) -> list[TaskRecord]:
        """Every live incarnation (a snapshot; for post-run sweeps)."""
        return list(self._records.values())

    def __len__(self) -> int:
        return len(self._records)  # atomic snapshot under the GIL

    def __contains__(self, key: Hashable) -> bool:
        return key in self._records  # single atomic dict probe

    @property
    def n_stripes(self) -> int:
        return self._n_stripes

    @property
    def inserts(self) -> int:
        return sum(self._inserts)

    @property
    def replacements(self) -> int:
        return len(self.retired)
