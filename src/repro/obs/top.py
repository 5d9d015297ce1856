"""``python -m repro top``: live terminal monitor over an instrumented run.

``top`` for the scheduler: launch one benchmark on a real runtime
(process pool by default) with a :class:`~repro.obs.live.MetricsRegistry`
and an :class:`~repro.obs.events.EventLog` wired through every layer,
then redraw a one-screen dashboard while the run is in flight --
per-worker utilization and queue depths, live trace counters (computes,
recoveries, SDC detections), dispatch-latency quantiles, worker-crash
counts, and block-store occupancy.  When the run quiesces the monitor
prints the post-mortem: the verified result line and the overhead
attribution table (:mod:`repro.obs.attribution`) that says where every
worker-second of the makespan went.

With ``--connect host:port`` the monitor attaches to another process
instead of launching anything: it scrapes that process's ``GET /metrics``
endpoint (a cluster worker started with ``--metrics-port``, from any
machine that reaches the worker, or a ``--serve`` run on this machine:
``--serve`` binds loopback only) on every tick, parses the Prometheus
text back into samples, and renders the same dashboard -- including
windowed rates computed from consecutive scrapes.  Pure pull: the
monitored process only ever serves a page it already serves.

Examples::

    python -m repro top cholesky --workers 4
    python -m repro top lu --runtime threaded --scale default --interval 0.5
    python -m repro top lcs --crash 2 --faults 2       # kill workers + inject faults
    python -m repro top fw --serve --port 9200         # scrape /metrics while it runs
    python -m repro top --connect 10.0.0.5:9090        # watch a remote worker

The dashboard reads only *pull-based* state: every value on screen comes
from ``registry.collect()`` (callback gauges over counters the run
already maintains), so watching a run does not perturb it beyond the
collector's sampling tick.
"""

from __future__ import annotations

import argparse
import re
import sys
import threading
import time
from typing import Any, Hashable

from repro.obs.events import EventLog
from repro.obs.live import (
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    MetricsServer,
    Sample,
    iter_worker_values,
)

#: ANSI: move cursor home + clear to end of screen (redraw without flicker).
_ANSI_HOME_CLEAR = "\x1b[H\x1b[J"

#: Trace counters surfaced on the dashboard's summary line, in order.
_SUMMARY_COUNTERS = (
    ("tasks", "repro_trace_tasks_computed"),
    ("computes", "repro_trace_total_computes"),
    ("recoveries", "repro_trace_total_recoveries"),
    ("sdc", "repro_trace_sdc_detected"),
    ("faults", "repro_trace_faults_observed"),
)


def graph_keys(app: Any) -> list[Hashable]:
    """Every task key reachable from the sink (reverse BFS), in a
    deterministic discovery order -- the pool ``--crash`` victims are
    drawn from."""
    seen: list[Hashable] = []
    visited = {app.sink_key()}
    frontier = [app.sink_key()]
    while frontier:
        key = frontier.pop(0)
        seen.append(key)
        for pred in app.predecessors(key):
            if pred not in visited:
                visited.add(pred)
                frontier.append(pred)
    return seen


# ---------------------------------------------------------------------------
# dashboard rendering


def _scalar(samples: list[Sample], name: str, default: float = 0.0) -> float:
    for s in samples:
        if s.name == name and not s.labels:
            return s.value
    return default


def render_dashboard(
    registry: MetricsRegistry,
    collector: MetricsCollector,
    title: str,
    done: bool = False,
) -> str:
    """One frame of the monitor, built purely from registry samples."""
    samples = registry.collect()
    elapsed = _scalar(samples, "repro_run_elapsed_seconds")
    workers = int(_scalar(samples, "repro_workers"))
    outstanding = int(_scalar(samples, "repro_outstanding_frames"))
    lines = [
        f"repro top -- {title}"
        + (f"  [{'done' if done else 'running'} {elapsed:6.1f}s]"),
    ]

    counters = []
    for label, name in _SUMMARY_COUNTERS:
        v = _scalar(samples, name, float("nan"))
        if v == v:  # only counters the run actually registered
            counters.append(f"{label} {int(v)}")
    rate = collector.rate("repro_trace_total_computes")
    if rate > 0:
        counters.append(f"{rate:.0f} tasks/s")
    crashes = registry.value("repro_worker_crashes_total")
    if crashes:
        counters.append(f"worker-crashes {int(crashes)}")
    if counters:
        lines.append("  " + "   ".join(counters))

    busy = dict(iter_worker_values(samples, "repro_worker_busy_seconds"))
    frames = dict(iter_worker_values(samples, "repro_worker_frames"))
    depth = dict(iter_worker_values(samples, "repro_queue_depth"))
    if busy:
        lines.append(f"  {'worker':>6} {'busy(s)':>9} {'util%':>6} {'frames':>8} {'queue':>6}")
        for w in sorted(busy):
            b = busy.get(w, 0.0)
            util = 100.0 * b / elapsed if elapsed > 0 else 0.0
            lines.append(
                f"  {w:>6} {b:>9.2f} {min(util, 100.0):>6.1f} "
                f"{int(frames.get(w, 0)):>8} {int(depth.get(w, 0)):>6}"
            )
        lines.append(f"  outstanding frames: {outstanding}")

    for inst in registry.instruments():
        if isinstance(inst, Histogram) and inst.name == "repro_dispatch_seconds":
            n = inst.count
            if n:
                lines.append(
                    f"  dispatch: {n} round trips, "
                    f"p50 {inst.quantile(0.5) * 1e3:.2f} ms, "
                    f"p90 {inst.quantile(0.9) * 1e3:.2f} ms, "
                    f"mean {inst.sum / n * 1e3:.2f} ms"
                )
            break

    resident = _scalar(samples, "repro_store_resident_versions", float("nan"))
    if resident == resident:
        store_bits = [f"resident {int(resident)}"]
        for stat in ("writes", "reads", "evictions", "peak_resident"):
            v = _scalar(samples, f"repro_store_{stat}", float("nan"))
            if v == v:
                store_bits.append(f"{stat} {int(v)}")
        shm = _scalar(samples, "repro_shm_bytes_current", float("nan"))
        if shm == shm:
            store_bits.append(f"shm {shm / 1e6:.1f} MB")
        lines.append("  store: " + "  ".join(store_bits))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# remote monitor: scrape a /metrics endpoint and render from the text

#: Prometheus text sample line: ``name{labels} value`` or ``name value``.
_PROM_LINE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_PROM_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> list[Sample]:
    """Parse Prometheus text exposition back into :class:`Sample`\\ s --
    the inverse of ``render_prometheus`` for the families it emits."""
    samples: list[Sample] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _PROM_LINE.match(line)
        if not m:
            continue
        name, labelblob, raw = m.groups()
        try:
            value = float(raw)
        except ValueError:
            continue
        labels = tuple(
            (k, v.replace('\\"', '"').replace("\\\\", "\\").replace("\\n", "\n"))
            for k, v in _PROM_LABEL.findall(labelblob or "")
        )
        samples.append(Sample(name, labels, value))
    return samples


#: Counter families worth a live rate on the remote dashboard.
_REMOTE_RATES = (
    ("repro_trace_total_computes", "tasks/s"),
    ("repro_worker_jobs_total", "jobs/s"),
    ("repro_comm_fetches_total", "payloads/s"),
)


def render_remote_dashboard(
    samples: list[Sample],
    title: str,
    rates: dict[str, float] | None = None,
) -> str:
    """One monitor frame built purely from scraped samples."""
    lines = [f"repro top -- {title}"]

    counters = []
    for label, name in _SUMMARY_COUNTERS:
        v = _scalar(samples, name, float("nan"))
        if v == v:
            counters.append(f"{label} {int(v)}")
    for name, label in (
        ("repro_worker_jobs_total", "jobs"),
        ("repro_comm_fetches_total", "payloads"),
        ("repro_worker_crashes_total", "worker-crashes"),
    ):
        v = _scalar(samples, name, float("nan"))
        if v == v:
            counters.append(f"{label} {int(v)}")
    for name, unit in _REMOTE_RATES:
        r = (rates or {}).get(name, 0.0)
        if r > 0:
            counters.append(f"{r:.0f} {unit}")
    if counters:
        lines.append("  " + "   ".join(counters))

    busy = dict(iter_worker_values(samples, "repro_worker_busy_seconds"))
    if busy:
        elapsed = _scalar(samples, "repro_run_elapsed_seconds")
        frames = dict(iter_worker_values(samples, "repro_worker_frames"))
        lines.append(f"  {'worker':>6} {'busy(s)':>9} {'util%':>6} {'frames':>8}")
        for w in sorted(busy):
            b = busy.get(w, 0.0)
            util = 100.0 * b / elapsed if elapsed > 0 else 0.0
            lines.append(
                f"  {w:>6} {b:>9.2f} {min(util, 100.0):>6.1f} {int(frames.get(w, 0)):>8}"
            )

    n = _scalar(samples, "repro_dispatch_seconds_count", float("nan"))
    s = _scalar(samples, "repro_dispatch_seconds_sum", float("nan"))
    if n == n and n > 0 and s == s:
        lines.append(f"  dispatch: {int(n)} round trips, mean {s / n * 1e3:.2f} ms")

    cache_bytes = _scalar(samples, "repro_worker_cache_bytes", float("nan"))
    if cache_bytes == cache_bytes:
        entries = int(_scalar(samples, "repro_worker_cache_entries"))
        shipped = _scalar(samples, "repro_comm_fetch_bytes_total")
        lines.append(
            f"  cache: {cache_bytes / 1e6:.1f} MB in {entries} entries, "
            f"{shipped / 1e6:.1f} MB shipped over comm (pushed + fetched)"
        )
    spec_bytes = _scalar(samples, "repro_comm_spec_bytes_total", float("nan"))
    if spec_bytes == spec_bytes:
        lines.append(f"  control: {spec_bytes / 1e3:.1f} kB of spec announced over comm")
    return "\n".join(lines)


def run_remote(args: argparse.Namespace) -> int:
    """Attach to ``--connect host:port`` and redraw until interrupted
    (or for ``--frames`` ticks when bounded, e.g. from CI)."""
    import urllib.error
    import urllib.request

    endpoint = args.connect
    if "://" not in endpoint:
        endpoint = f"http://{endpoint}"
    if not endpoint.endswith("/metrics"):
        endpoint = endpoint.rstrip("/") + "/metrics"

    prev: dict[str, float] = {}
    prev_t = 0.0
    rates: dict[str, float] = {}
    shown = 0
    misses = 0
    try:
        while args.frames <= 0 or shown < args.frames:
            t0 = time.time()
            try:
                body = urllib.request.urlopen(endpoint, timeout=5).read().decode()
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                misses += 1
                if misses >= 3:
                    print(f"top: lost {endpoint}: {exc}", file=sys.stderr)
                    return 1
                time.sleep(args.interval)
                continue
            misses = 0
            samples = parse_prometheus(body)
            now = {s.name: s.value for s in samples if not s.labels}
            if prev_t:
                dt = t0 - prev_t
                if dt > 0:
                    rates = {
                        name: max(0.0, (now.get(name, 0.0) - prev.get(name, 0.0)) / dt)
                        for name, _ in _REMOTE_RATES
                    }
            prev, prev_t = now, t0
            frame = render_remote_dashboard(samples, f"remote {args.connect}", rates)
            if args.plain:
                print(frame, flush=True)
            else:
                print(_ANSI_HOME_CLEAR + frame, flush=True)
            shown += 1
            if args.frames <= 0 or shown < args.frames:
                time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
    return 0


# ---------------------------------------------------------------------------
# the monitored run


def _build_runtime(args: argparse.Namespace, log: EventLog,
                   registry: MetricsRegistry, die_on: list) -> Any:
    if args.runtime == "threaded":
        from repro.runtime import ThreadedRuntime

        return ThreadedRuntime(
            workers=args.workers, seed=args.seed, event_log=log, metrics=registry
        )
    from repro.runtime import ProcessRuntime

    return ProcessRuntime(
        workers=args.workers, seed=args.seed, event_log=log,
        metrics=registry, die_on=die_on,
    )


def run_monitored(args: argparse.Namespace) -> int:
    from repro.apps import make_app
    from repro.core import FTScheduler
    from repro.obs.attribution import attribute_run, format_attribution

    app = make_app(args.app, scale=args.scale)
    log = EventLog()
    registry = MetricsRegistry()

    die_on: list = []
    if args.crash:
        if args.runtime != "procpool":
            print("top: --crash needs --runtime procpool (worker processes to kill)",
                  file=sys.stderr)
            return 2
        die_on = graph_keys(app)[-args.crash:]  # leaf-most keys: early dispatches

    hooks = None
    store = app.make_store(True, shared=(args.runtime == "procpool"))
    if args.faults:
        from repro.faults import FaultInjector, plan_faults

        plan = plan_faults(app, phase="after_compute", task_type="v=rand",
                           count=args.faults, seed=args.seed)
        hooks = FaultInjector(plan, app, store)

    runtime = _build_runtime(args, log, registry, die_on)
    sched = FTScheduler(app, runtime, store=store, hooks=hooks,
                        event_log=log, metrics=registry)

    box: dict[str, Any] = {}

    def _run() -> None:
        try:
            box["result"] = sched.run()
        except BaseException as exc:  # surfaced after the monitor loop
            box["error"] = exc

    server = MetricsServer(registry, port=args.port) if args.serve else None
    title = (f"{args.app}/{args.scale} on {args.runtime}, "
             f"{args.workers} workers, seed {args.seed}")
    collector = MetricsCollector(registry, interval=min(args.interval, 0.25))
    thread = threading.Thread(  # verify: ok=raw-threading (monitor harness: the run occupies this thread so the main thread can redraw; joined below)
        target=_run, name="repro-top-run", daemon=True
    )
    try:
        collector.start()
        if server is not None:
            print(f"metrics endpoint: {server.url}")
        thread.start()
        while thread.is_alive():
            thread.join(timeout=args.interval)
            frame = render_dashboard(registry, collector, title, done=not thread.is_alive())
            if args.plain:
                print(frame, flush=True)
            else:
                print(_ANSI_HOME_CLEAR + frame, flush=True)
    except KeyboardInterrupt:
        print("\ninterrupted; abandoning the run", file=sys.stderr)
        return 130
    finally:
        collector.stop()
        if server is not None:
            server.close()

    if "error" in box:
        raise box["error"]
    result = box["result"]
    app.verify(store)
    close = getattr(store, "close", None)

    print()
    print(f"{args.app}/{args.scale} verified ok: makespan {result.run.makespan:.3f}s, "
          f"{result.trace.tasks_computed} tasks, "
          f"{result.trace.total_recoveries} recoveries, "
          f"{getattr(runtime, 'worker_crashes', 0)} worker crashes")
    log.seal()
    report = attribute_run(log.events, result.run)
    print()
    print(format_attribution(report))
    if close is not None and args.runtime == "procpool":
        close()
    return 0


# ---------------------------------------------------------------------------
# CLI


def build_parser() -> argparse.ArgumentParser:
    from repro.apps import APP_NAMES

    ap = argparse.ArgumentParser(
        prog="python -m repro top",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("app", nargs="?", default="cholesky", choices=APP_NAMES,
                    help="benchmark to run (default: cholesky)")
    ap.add_argument("--scale", choices=("tiny", "default", "large"), default="default",
                    help="instance scale (default: default)")
    ap.add_argument("--runtime", choices=("procpool", "threaded"), default="procpool",
                    help="executor (default: procpool = real multi-core)")
    ap.add_argument("--workers", type=int, default=4, help="worker count (default 4)")
    ap.add_argument("--seed", type=int, default=0, help="runtime + fault-plan seed")
    ap.add_argument("--interval", type=float, default=0.5,
                    help="dashboard refresh seconds (default 0.5)")
    ap.add_argument("--plain", action="store_true",
                    help="append frames instead of ANSI redraw (logs, CI)")
    ap.add_argument("--crash", type=int, default=0, metavar="N",
                    help="kill N worker processes mid-run (procpool only)")
    ap.add_argument("--faults", type=int, default=0, metavar="N",
                    help="inject ~N after-compute faults via the planner")
    ap.add_argument("--serve", action="store_true",
                    help="expose GET /metrics while the run is live")
    ap.add_argument("--port", type=int, default=0,
                    help="metrics endpoint port (default: ephemeral)")
    ap.add_argument("--connect", metavar="HOST:PORT", default=None,
                    help="attach to a remote /metrics endpoint instead of "
                         "launching a run (cluster worker or --serve run)")
    ap.add_argument("--frames", type=int, default=0, metavar="N",
                    help="with --connect: stop after N frames (0 = until ^C)")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.interval <= 0:
        print("top: --interval must be positive", file=sys.stderr)
        return 2
    if args.connect:
        return run_remote(args)
    if args.workers < 1:
        print("top: --workers must be >= 1", file=sys.stderr)
        return 2
    t0 = time.time()
    rc = run_monitored(args)
    if rc == 0:
        print(f"\ntotal wall time {time.time() - t0:.1f}s")
    return rc


if __name__ == "__main__":
    sys.exit(main())
