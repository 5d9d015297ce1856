"""Observability: structured event tracing + live telemetry.

One substrate, many views:

* :class:`EventLog` / :class:`Event` / :class:`EventKind` -- the
  low-overhead structured log every scheduler, runtime, and the fault
  injector emit through (``NULL_LOG`` keeps fault-free runs free).
* :mod:`repro.obs.live` -- the *while-it-runs* side: a thread-safe
  :class:`MetricsRegistry` (counters / gauges / histograms), a sampling
  :class:`MetricsCollector`, and a Prometheus-text
  :class:`MetricsServer` (``NULL_METRICS`` keeps unmetered runs free).
* :mod:`repro.obs.spans` -- worker-attributed measured intervals
  decoded from ``SPAN`` events (kernel, input attach, lazy fetch,
  serialization, dispatch round trips, recovery, detection).
* :mod:`repro.obs.attribution` -- fold events + spans into a wall-clock
  budget: where every worker-second of the makespan went.
* :mod:`repro.obs.replay` -- derive :class:`ExecutionTrace` counters
  back out of the log (the one-source-of-truth consistency check).
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
from repro.obs.live import (
    NULL_METRICS,
    MetricsCollector,
    MetricsRegistry,
    MetricsServer,
    NullMetricsRegistry,
    render_prometheus,
)
from repro.obs.metrics import WorkerMetrics, format_worker_metrics, worker_metrics
from repro.obs.replay import assert_consistent, replay_summary, replay_trace, verify_consistency
from repro.obs.report import RecoveryCascade, format_recovery_timeline, recovery_timeline
from repro.obs.spans import Span, spans_of, wall_by_phase, wall_by_worker_phase

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
    "NullMetricsRegistry",
    "NULL_METRICS",
    "MetricsCollector",
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
    "replay_trace",
    "replay_summary",
    "verify_consistency",
    "assert_consistent",
    "WorkerMetrics",
    "worker_metrics",
    "format_worker_metrics",
    "RecoveryCascade",
    "recovery_timeline",
    "format_recovery_timeline",
]
