"""Detection accounting: injected vs detected vs escaped.

Detection coverage is a *post-run* judgment: a silent fault injected at
after-notify time on a task nobody re-reads is never caught, and only
the ground truth held by the injector can say so.  ``account_escapes``
joins the injector's fired-event list against the run's SDC_DETECTED
events (matching replication detections by task key and checksum
detections by the victim's output block versions), emits one
``SDC_ESCAPED`` event per miss, and returns the misses.

``DetectionReport`` bundles the counts the harness and CLI print.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.model import FaultEvent
from repro.obs.events import EventKind, EventLog
from repro.runtime.tracing import ExecutionTrace, note_and_emit


@dataclass
class DetectionReport:
    """Coverage summary of one silent-fault run."""

    injected: int = 0
    detected: int = 0
    escaped: int = 0
    replica_runs: int = 0
    escaped_events: list[FaultEvent] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Detected fraction of injected silent faults (1.0 when none)."""
        return 1.0 if not self.injected else self.detected / self.injected

    def summary(self) -> dict[str, float | int]:
        return {
            "sdc_injected": self.injected,
            "sdc_detected": self.detected,
            "sdc_escaped": self.escaped,
            "coverage": self.coverage,
            "replica_runs": self.replica_runs,
        }


def account_escapes(
    injector,
    log: EventLog,
    trace: ExecutionTrace | None = None,
) -> DetectionReport:
    """Join injected silent faults against detections; emit SDC_ESCAPED.

    ``injector`` is a :class:`~repro.detect.silent.SilentFaultInjector`
    (anything with ``fired``, ``spec``).  Call once, after the run; the
    emitted SDC_ESCAPED events keep the log folding to the
    ``trace`` counters bumped here.
    """
    detected_keys = set()
    detected_refs = set()
    for event in log.by_kind(EventKind.SDC_DETECTED):
        if event.key is not None:
            detected_keys.add(event.key)
        block = event.data.get("block")
        if block is not None:
            detected_refs.add((block, event.data.get("version")))
    report = DetectionReport(
        injected=len(injector.fired),
        replica_runs=len(log.by_kind(EventKind.REPLICA_RUN)),
    )
    for fault in injector.fired:
        out_refs = {(b, v) for b, v in injector.spec.outputs(fault.key)}
        if fault.key in detected_keys or (out_refs & detected_refs):
            report.detected += 1
            continue
        report.escaped += 1
        report.escaped_events.append(fault)
        note_and_emit(trace, log, EventKind.SDC_ESCAPED, fault.key, fault.life,
                      phase=fault.phase.value)
    return report
