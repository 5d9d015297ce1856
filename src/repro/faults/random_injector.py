"""Online probabilistic fault injection.

The paper's methodology plans faults a priori (controlled experiments);
real soft errors arrive as a rate.  :class:`RandomInjector` models that:
at every lifecycle hook each task independently suffers a fault with a
per-phase probability, for any incarnation (so recovery itself can be
struck, repeatedly -- the Guarantee 6 regime under load).

Determinism: victim selection derives from a seeded hash of
``(key, life, phase)``, so a given seed produces the same fault pattern
regardless of schedule -- runs remain reproducible and the injector is
safe under the threaded runtime.

An optional ``max_faults`` cap keeps expected recovery work finite when
rates are high (an unbounded rate on an unbounded incarnation stream
could otherwise re-kill a task forever).
"""

from __future__ import annotations

import hashlib
import threading
from typing import Hashable

from repro.core.records import TaskRecord
from repro.faults.injector import flag_fault
from repro.faults.model import FaultPhase
from repro.graph.taskspec import TaskGraphSpec
from repro.memory.blockstore import BlockStore
from repro.obs.events import EventLog
from repro.runtime.tracing import ExecutionTrace


def _phase_rates(
    rate: float | None,
    before_compute: float | None,
    after_compute: float | None,
    after_notify: float | None,
) -> dict[FaultPhase, float]:
    base = 0.0 if rate is None else float(rate)
    rates = {
        FaultPhase.BEFORE_COMPUTE: base if before_compute is None else before_compute,
        FaultPhase.AFTER_COMPUTE: base if after_compute is None else after_compute,
        FaultPhase.AFTER_NOTIFY: base if after_notify is None else after_notify,
    }
    for phase, p in rates.items():
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"{phase.value} rate {p} outside [0, 1]")
    return rates


class RandomInjector:
    """SchedulerHooks implementation firing faults at a fixed rate."""

    def __init__(
        self,
        spec: TaskGraphSpec,
        store: BlockStore,
        seed: int = 0,
        rate: float | None = None,
        before_compute: float | None = None,
        after_compute: float | None = None,
        after_notify: float | None = None,
        max_faults: int | None = None,
        trace: ExecutionTrace | None = None,
        event_log: EventLog | None = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.seed = seed
        self.rates = _phase_rates(rate, before_compute, after_compute, after_notify)
        self.max_faults = max_faults
        self.trace = trace
        self.event_log = event_log
        """Observability log for FAULT_INJECTED events (shared by the FT
        scheduler at construction time when left ``None``)."""
        self.fired: list[tuple[Hashable, int, FaultPhase]] = []
        self._lock = threading.Lock()

    # -- deterministic coin flip -------------------------------------------------------

    def _roll(self, key: Hashable, life: int, phase: FaultPhase) -> bool:
        p = self.rates[phase]
        if p <= 0.0:
            return False
        digest = hashlib.blake2b(
            repr((self.seed, key, life, phase.value)).encode(),
            digest_size=8,
        ).digest()
        u = int.from_bytes(digest, "big") / float(1 << 64)
        return u < p

    def _maybe_fire(self, record: TaskRecord, phase: FaultPhase) -> None:
        if not self._roll(record.key, record.life, phase):
            return
        with self._lock:
            if self.max_faults is not None and len(self.fired) >= self.max_faults:
                return
            self.fired.append((record.key, record.life, phase))
        flag_fault(self, record, phase, outputs=phase is not FaultPhase.BEFORE_COMPUTE)

    # -- hook surface ----------------------------------------------------------------------

    def on_task_waiting(self, record: TaskRecord) -> None:
        self._maybe_fire(record, FaultPhase.BEFORE_COMPUTE)

    def on_after_compute(self, record: TaskRecord) -> None:
        self._maybe_fire(record, FaultPhase.AFTER_COMPUTE)

    def on_after_notify(self, record: TaskRecord) -> None:
        self._maybe_fire(record, FaultPhase.AFTER_NOTIFY)
