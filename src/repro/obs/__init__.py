"""Observability: structured event tracing + live telemetry.

One substrate, many views:

* :class:`EventLog` / :class:`Event` / :class:`EventKind` -- the
  low-overhead structured log every scheduler, runtime, and the fault
  injector emit through (``NULL_LOG`` keeps fault-free runs free).
* :mod:`repro.obs.live` -- the *while-it-runs* side: a thread-safe
  :class:`MetricsRegistry` (counters / gauges / histograms) and a
  Prometheus-text :class:`MetricsServer` (``metrics=None``, the
  default everywhere, keeps unmetered runs free).
* :mod:`repro.obs.spans` -- worker-attributed measured intervals
  decoded from ``SPAN`` events (kernel, input attach, lazy fetch,
  serialization, dispatch round trips, recovery, detection).
* :mod:`repro.obs.attribution` -- fold events + spans into a wall-clock
  budget: where every worker-second of the makespan went.
* :func:`verify_consistency` / :func:`assert_consistent` (from
  :mod:`repro.runtime.tracing`) -- fold the log back into
  :class:`ExecutionTrace` counters and diff them against the live ones
  (the one-source-of-truth consistency check).
* :mod:`repro.obs.metrics` -- per-worker steal/park/busy breakdown.
* :mod:`repro.obs.report` -- per-fault recovery-cascade timelines.
* :mod:`repro.harness.export` -- Chrome trace-event JSON and JSONL.
* ``python -m repro trace`` (:mod:`repro.obs.cli`) -- run an app with
  tracing and emit/inspect all of the above.
* ``python -m repro top`` (:mod:`repro.obs.top`) -- real-time monitor
  over a live run, plus the post-run attribution table.

See docs/OBSERVABILITY.md for the event schema and life-number
semantics.
"""

from repro.obs.attribution import (
    AttributionReport,
    WorkerBudget,
    attribute_run,
    format_attribution,
)
from repro.obs.events import (
    NULL_LOG,
    Event,
    EventKind,
    EventLog,
    LateEmitError,
    NullEventLog,
    SealedLogError,
    events_in_order,
)
from repro.obs.live import MetricsRegistry, MetricsServer, render_prometheus
from repro.obs.metrics import WorkerMetrics, format_worker_metrics, worker_metrics
from repro.obs.report import RecoveryCascade, format_recovery_timeline, recovery_timeline
from repro.obs.spans import Span, spans_of, wall_by_phase, wall_by_worker_phase
from repro.runtime.tracing import assert_consistent, verify_consistency

__all__ = [
    "Event",
    "EventKind",
    "EventLog",
    "NullEventLog",
    "NULL_LOG",
    "LateEmitError",
    "SealedLogError",
    "events_in_order",
    "MetricsRegistry",
    "MetricsServer",
    "render_prometheus",
    "Span",
    "spans_of",
    "wall_by_phase",
    "wall_by_worker_phase",
    "AttributionReport",
    "WorkerBudget",
    "attribute_run",
    "format_attribution",
    "verify_consistency",
    "assert_consistent",
    "WorkerMetrics",
    "worker_metrics",
    "format_worker_metrics",
    "RecoveryCascade",
    "recovery_timeline",
    "format_recovery_timeline",
]
