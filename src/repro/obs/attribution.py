"""Overhead attribution: fold a run's events + spans into a wall-clock budget.

Answers "where did the wall-clock go?" for a finished instrumented run:
every worker-second of ``makespan x workers`` is assigned to one of

==============  ========================================================
``kernel``      user compute (worker-measured kernel spans; on in-process
                runtimes, the COMPUTE bracket minus detection time)
``dispatch``    remote-compute overhead: the parent-side dispatch round
                trip minus the kernel and queued time inside it (input
                push and attach, output serialization, wire latency)
``queued``      pipelining backlog: time a dispatched job sat behind its
                channel-mates in the worker's inbound window (a
                deliberate throughput/latency trade, not dispatch cost)
``detection``   SDC detection work (replication spans)
``recovery``    the FT scheduler's RECOVERTASK routine
``bookkeeping`` scheduler frame overhead inside busy time not covered
                above (join/notify/lock traffic, context reads/writes,
                spawn, trace counters)
``steal_park``  measured idle + work-finding episodes: PARK -> UNPARK
                sleeps plus the worker_loop span's residue over busy +
                parked (pop/steal probes, quiescence checks, GIL waits
                between frames)
``other``       unattributed residue (thread start/stop outside the
                worker loop, measurement skew)
==============  ========================================================

The *coverage* of the report is the fraction of total worker-seconds
attributed to a measured category (everything but ``other``).  Busy time
comes exactly from :class:`~repro.runtime.api.RunResult` and idle
episodes from PARK/UNPARK events, so coverage on a real threaded or
process-pool run should exceed 0.95 -- the acceptance bar the tests
assert.

The per-life view splits kernel/bracket time by task incarnation:
time spent computing incarnations that were later replaced (or faulted)
is *wasted work*, the live cost of the paper's re-execution-based
recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from repro.obs.events import Event, EventKind, events_in_order
from repro.obs.spans import spans_of
from repro.runtime.api import RunResult

__all__ = [
    "CATEGORIES",
    "WorkerBudget",
    "AttributionReport",
    "attribute_run",
    "format_attribution",
]

#: Budget categories, in presentation order.  ``other`` is the
#: unattributed residue and never counts toward coverage.
CATEGORIES: tuple[str, ...] = (
    "kernel",
    "dispatch",
    "queued",
    "detection",
    "recovery",
    "bookkeeping",
    "steal_park",
    "other",
)


@dataclass
class WorkerBudget:
    """One worker's share of the wall-clock budget."""

    worker: int
    total: float
    """Worker-seconds available: the run's makespan."""
    busy: float
    """Frame-execution time (exact, from RunResult)."""
    categories: dict[str, float] = field(default_factory=dict)
    phase_detail: dict[str, float] = field(default_factory=dict)
    """Raw span sums per phase (attach/serialize visible here even
    though the budget folds them into ``dispatch``)."""


@dataclass
class AttributionReport:
    makespan: float
    workers: int
    total: float
    """``makespan * workers`` -- the full budget."""
    categories: dict[str, float]
    per_worker: list[WorkerBudget]
    per_life: dict[tuple[Hashable, int], float]
    """Kernel/bracket seconds per (key, life) incarnation."""
    wasted: float
    """Seconds spent computing incarnations that were replaced or
    faulted -- the price of re-execution-based recovery."""
    dispatch_count: int
    dispatch_mean: float
    """Mean parent-side dispatch round trip (seconds/task); the number
    PERFORMANCE.md's dispatch-overhead claim is derived from."""
    dispatch_overhead_mean: float
    """Mean non-kernel share of the round trip (seconds/task)."""

    @property
    def coverage(self) -> float:
        """Fraction of the budget attributed to a measured category."""
        if self.total <= 0:
            return 1.0
        other = self.categories.get("other", 0.0)
        return max(0.0, min(1.0, 1.0 - other / self.total))


def _bracket_times(
    events: Sequence[Event],
) -> tuple[dict[int, float], dict[tuple[Hashable, int], float], dict[tuple[Hashable, int], bool]]:
    """COMPUTE_BEGIN .. COMPUTE_END/COMPUTE_FAULT durations.

    Returns per-worker bracket seconds, per-(key, life) bracket seconds,
    and a per-incarnation "ended in fault" flag.  Brackets left open
    (crash teardown) are dropped -- their time lands in ``other``.
    """
    per_worker: dict[int, float] = {}
    per_life: dict[tuple[Hashable, int], float] = {}
    faulted: dict[tuple[Hashable, int], bool] = {}
    open_by_worker: dict[int, tuple[Hashable, int, float]] = {}
    for e in events:
        if e.kind is EventKind.COMPUTE_BEGIN:
            open_by_worker[e.worker] = (e.key, e.life, e.t)
        elif e.kind in (EventKind.COMPUTE_END, EventKind.COMPUTE_FAULT):
            opened = open_by_worker.pop(e.worker, None)
            if opened is None or opened[0] != e.key:
                continue
            dt = max(0.0, e.t - opened[2])
            per_worker[e.worker] = per_worker.get(e.worker, 0.0) + dt
            lk = (e.key, e.life)
            per_life[lk] = per_life.get(lk, 0.0) + dt
            if e.kind is EventKind.COMPUTE_FAULT:
                faulted[lk] = True
    return per_worker, per_life, faulted


def _park_times(events: Sequence[Event], t_end: float) -> dict[int, float]:
    """PARK -> UNPARK episode seconds per worker; an episode still open
    at the end of the trace runs to ``t_end`` (the worker parked and
    then quiesced)."""
    parked: dict[int, float] = {}
    open_park: dict[int, float] = {}
    for e in events:
        if e.kind is EventKind.PARK:
            open_park[e.worker] = e.t
        elif e.kind is EventKind.UNPARK:
            t0 = open_park.pop(e.worker, None)
            if t0 is not None:
                parked[e.worker] = parked.get(e.worker, 0.0) + max(0.0, e.t - t0)
    for worker, t0 in open_park.items():
        parked[worker] = parked.get(worker, 0.0) + max(0.0, t_end - t0)
    return parked


def attribute_run(events: Iterable[Event], run: RunResult) -> AttributionReport:
    """Fold ``events`` (one instrumented run) and its
    :class:`~repro.runtime.api.RunResult` into an
    :class:`AttributionReport`."""
    events = events_in_order(events)
    workers = run.workers
    makespan = run.makespan
    total = makespan * workers
    busy = list(run.busy_time) if run.busy_time else [0.0] * workers

    t_end = max((e.t for e in events), default=0.0)
    bracket_w, bracket_life, faulted = _bracket_times(events)
    parked = _park_times(events, t_end)

    span_w: dict[int, dict[str, float]] = {}
    dispatch_walls: list[float] = []
    kernel_life: dict[tuple[Hashable, int], float] = {}
    run_window: tuple[float, float] | None = None
    loop_windows: dict[int, tuple[float, float]] = {}
    for s in spans_of(events):
        if s.phase == "run":
            if s.t0 is not None:
                run_window = (s.t0, s.t0 + s.wall)
            continue  # global budget window, not a worker's time
        per = span_w.setdefault(s.worker, {})
        per[s.phase] = per.get(s.phase, 0.0) + s.wall
        if s.phase == "kernel":
            lk = (s.key, s.life)
            kernel_life[lk] = kernel_life.get(lk, 0.0) + s.wall
        elif s.phase == "dispatch":
            dispatch_walls.append(s.wall)
        elif s.phase == "worker_loop" and s.t0 is not None:
            lo, hi = loop_windows.get(s.worker, (s.t0, s.t0 + s.wall))
            loop_windows[s.worker] = (min(lo, s.t0), max(hi, s.t0 + s.wall))

    per_worker: list[WorkerBudget] = []
    agg = {c: 0.0 for c in CATEGORIES}
    for w in range(workers):
        spans = span_w.get(w, {})
        b = busy[w] if w < len(busy) else 0.0
        kernel_spans = spans.get("kernel", 0.0)
        dispatch_spans = spans.get("dispatch", 0.0)
        queued = spans.get("queued", 0.0)
        detect = spans.get("detect", 0.0)
        recov = spans.get("recovery", 0.0)
        bracket = bracket_w.get(w, 0.0)
        if dispatch_spans > 0.0:
            kernel = kernel_spans
            dispatch = max(0.0, dispatch_spans - kernel_spans - queued)
        else:
            # In-process compute: the COMPUTE bracket *is* the kernel
            # (minus any detection work that ran inside it).
            kernel = max(0.0, bracket - detect)
            dispatch = 0.0
        bookkeeping = max(0.0, b - kernel - dispatch - queued - detect - recov)
        parked_w = parked.get(w, 0.0)
        # The runtime's worker_loop span covers the whole in-loop
        # lifetime; what it holds beyond busy + parked is the
        # work-*finding* cost (pop/steal probes, quiescence checks, GIL
        # waits between frames), which belongs with steal/park overhead.
        loop = spans.get("worker_loop", 0.0)
        search = max(0.0, loop - b - parked_w)
        steal_park = parked_w + search
        # Thread start/stop latency: the measured gap between the run's
        # budget window and this worker's loop window is runtime
        # management overhead -- bookkeeping, not mystery time.
        startup = 0.0
        if run_window is not None and w in loop_windows:
            l0, l1 = loop_windows[w]
            startup = max(0.0, l0 - run_window[0]) + max(0.0, run_window[1] - l1)
        bookkeeping += startup
        other = max(0.0, makespan - b - steal_park - startup)
        cats = {
            "kernel": kernel,
            "dispatch": dispatch,
            "queued": queued,
            "detection": detect,
            "recovery": recov,
            "bookkeeping": bookkeeping,
            "steal_park": steal_park,
            "other": other,
        }
        for c, v in cats.items():
            agg[c] += v
        per_worker.append(
            WorkerBudget(worker=w, total=makespan, busy=b, categories=cats, phase_detail=spans)
        )

    # Per-life waste: an incarnation's time is wasted if the key was later
    # recovered past it, or its own compute faulted.
    per_life = dict(kernel_life) if kernel_life else dict(bracket_life)
    final_life: dict[Hashable, int] = {}
    for (key, life) in per_life:
        if key is not None and life > final_life.get(key, -1):
            final_life[key] = life
    wasted = sum(
        secs
        for (key, life), secs in per_life.items()
        if life < final_life.get(key, life) or faulted.get((key, life), False)
    )

    n_disp = len(dispatch_walls)
    mean_disp = sum(dispatch_walls) / n_disp if n_disp else 0.0
    total_kernel_spans = sum(p.get("kernel", 0.0) for p in span_w.values())
    # Queued time is inside the dispatch bracket but is pipelining
    # backlog (the job waiting behind its channel-mates), not a cost the
    # dispatch machinery imposes -- subtract it like kernel time.
    total_queued_spans = sum(p.get("queued", 0.0) for p in span_w.values())
    mean_overhead = (
        (sum(dispatch_walls) - total_kernel_spans - total_queued_spans) / n_disp
        if n_disp
        else 0.0
    )

    return AttributionReport(
        makespan=makespan,
        workers=workers,
        total=total,
        categories=agg,
        per_worker=per_worker,
        per_life=per_life,
        wasted=wasted,
        dispatch_count=n_disp,
        dispatch_mean=mean_disp,
        dispatch_overhead_mean=max(0.0, mean_overhead),
    )


def _pct(v: float, total: float) -> str:
    return f"{100.0 * v / total:5.1f}%" if total > 0 else "  n/a"


def format_attribution(report: AttributionReport) -> str:
    """Human-readable budget table (the tail of ``python -m repro top``)."""
    lines = [
        "wall-clock budget "
        f"(makespan {report.makespan * 1e3:.1f} ms x {report.workers} workers "
        f"= {report.total * 1e3:.1f} ms; coverage {report.coverage * 100:.1f}%)",
        f"  {'category':<12} {'seconds':>10} {'share':>7}",
    ]
    for c in CATEGORIES:
        v = report.categories.get(c, 0.0)
        lines.append(f"  {c:<12} {v:>10.4f} {_pct(v, report.total):>7}")
    lines.append("per-worker (busy / kernel / dispatch / steal_park, ms):")
    for wb in report.per_worker:
        c = wb.categories
        lines.append(
            f"  worker {wb.worker:<3} {wb.busy * 1e3:8.1f} / {c['kernel'] * 1e3:8.1f} / "
            f"{c['dispatch'] * 1e3:8.1f} / {c['steal_park'] * 1e3:8.1f}"
        )
    if report.dispatch_count:
        lines.append(
            f"dispatch: {report.dispatch_count} round trips, mean "
            f"{report.dispatch_mean * 1e3:.3f} ms/task "
            f"({report.dispatch_overhead_mean * 1e3:.3f} ms/task non-kernel overhead)"
        )
    if report.wasted > 0:
        lines.append(
            f"wasted work (replaced/faulted incarnations): {report.wasted * 1e3:.1f} ms"
        )
    return "\n".join(lines)
