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

Both modes draw one dashboard (:func:`render_dashboard`) from flat
samples: ``registry.collect()`` on the monitor's own redraw tick, or the
parsed scrape; rates compare each frame with the previous one, and the
dispatch quantiles come from the ``repro_dispatch_seconds_bucket``
samples.  Every value on screen is *pull-based* (callback gauges over
counters the run already maintains), so watching a run does not perturb
it beyond the redraw's own read.
"""

from __future__ import annotations

import argparse
import re
import sys
import threading
import time
from typing import Any, Callable, Hashable, Sequence

from repro.obs.events import EventLog
from repro.obs.live import (
    MetricsRegistry,
    MetricsServer,
    Sample,
    histogram_quantile,
    iter_worker_values,
)
from repro.runtime.tracing import COUNTERS

#: ANSI: move cursor home + clear to end of screen (redraw without flicker).
_ANSI_HOME_CLEAR = "\x1b[H\x1b[J"


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
# the dashboard: one frame from flat samples, local or scraped


def register_run_metrics(registry: MetricsRegistry, sched: Any) -> None:
    """Publish ``sched``'s live :class:`ExecutionTrace` counters and its
    block store's occupancy as callback gauges: both already update on
    the run's hot path, so watching them costs one ``getattr`` per gauge
    per read."""
    trace = sched.trace
    registry.gauge(
        "repro_scheduler_info", "constant 1, labelled by scheduler", scheduler=sched.name
    ).set(1)
    aggregates = ("total_computes", "total_recoveries", "tasks_computed")
    for kind, names in (("counter", sorted(COUNTERS)), ("aggregate", aggregates)):
        for name in names:
            registry.callback_gauge(
                f"repro_trace_{name}",
                lambda n=name: getattr(trace, n),
                f"live ExecutionTrace {kind} {name}",
            )
    sched.store.register_metrics(registry)


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


#: Unlabelled counts on the summary line, in order, each shown when present.
_SUMMARY = (
    ("tasks", "repro_trace_tasks_computed"),
    ("computes", "repro_trace_total_computes"),
    ("recoveries", "repro_trace_total_recoveries"),
    ("sdc", "repro_trace_sdc_detected"),
    ("faults", "repro_trace_faults_observed"),
    ("jobs", "repro_worker_jobs_total"),
    ("payloads", "repro_comm_fetches_total"),
    ("worker-crashes", "repro_worker_crashes_total"),
)

#: Counter families worth a live rate, against the previous frame.
_RATES = (
    ("repro_trace_total_computes", "tasks/s"),
    ("repro_worker_jobs_total", "jobs/s"),
    ("repro_comm_fetches_total", "payloads/s"),
)


def render_dashboard(
    samples: list[Sample],
    title: str,
    prev: Sequence[Sample] = (),
    dt: float = 0.0,
    state: str = "",
) -> str:
    """One monitor frame built purely from flat samples (``registry.collect()``
    or a parsed scrape); ``prev`` is the previous frame's, ``dt`` seconds
    earlier, for rates; ``state`` ("running", "done") heads a local run's."""
    # NaN is a callback gauge whose subject is gone: not on screen.
    flat = {s.name: s.value for s in samples if not s.labels and s.value == s.value}
    before = {s.name: s.value for s in prev if not s.labels}
    lines = [f"repro top -- {title}"]
    if state:
        lines[0] += f"  [{state} {flat.get('repro_run_elapsed_seconds', 0.0):6.1f}s]"

    counters = [f"{label} {int(flat[name])}" for label, name in _SUMMARY if name in flat]
    for name, unit in _RATES:
        if dt > 0 and name in flat and name in before:
            rate = (flat[name] - before[name]) / dt
            if rate > 0:
                counters.append(f"{rate:.0f} {unit}")
    if counters:
        lines.append("  " + "   ".join(counters))

    busy = dict(iter_worker_values(samples, "repro_worker_busy_seconds"))
    if busy:
        elapsed = flat.get("repro_run_elapsed_seconds", 0.0)
        frames = dict(iter_worker_values(samples, "repro_worker_frames"))
        depth = dict(iter_worker_values(samples, "repro_queue_depth"))
        lines.append(f"  {'worker':>6} {'busy(s)':>9} {'util%':>6} {'frames':>8} {'queue':>6}")
        for w in sorted(busy):
            util = 100.0 * busy[w] / elapsed if elapsed > 0 else 0.0
            lines.append(
                f"  {w:>6} {busy[w]:>9.2f} {min(util, 100.0):>6.1f} "
                f"{int(frames.get(w, 0)):>8} {int(depth.get(w, 0)):>6}"
            )
    if "repro_outstanding_frames" in flat:
        lines.append(f"  outstanding frames: {int(flat['repro_outstanding_frames'])}")

    n = flat.get("repro_dispatch_seconds_count", 0.0)
    if n > 0:
        p50, p90 = (histogram_quantile(samples, "repro_dispatch_seconds", q) for q in (0.5, 0.9))
        lines.append(
            f"  dispatch: {int(n)} round trips, p50 {p50 * 1e3:.2f} ms, "
            f"p90 {p90 * 1e3:.2f} ms, mean {flat['repro_dispatch_seconds_sum'] / n * 1e3:.2f} ms"
        )

    if "repro_store_resident_versions" in flat:
        store_bits = [f"resident {int(flat['repro_store_resident_versions'])}"]
        for stat in ("writes", "reads", "evictions", "peak_resident"):
            if f"repro_store_{stat}" in flat:
                store_bits.append(f"{stat} {int(flat[f'repro_store_{stat}'])}")
        if "repro_shm_bytes_current" in flat:
            store_bits.append(f"shm {flat['repro_shm_bytes_current'] / 1e6:.1f} MB")
        lines.append("  store: " + "  ".join(store_bits))
    if "repro_worker_cache_bytes" in flat:
        lines.append(
            f"  cache: {flat['repro_worker_cache_bytes'] / 1e6:.1f} MB in "
            f"{int(flat.get('repro_worker_cache_entries', 0))} entries, "
            f"{flat.get('repro_comm_fetch_bytes_total', 0.0) / 1e6:.1f} MB shipped over "
            "comm (pushed + fetched)"
        )
    if "repro_comm_spec_bytes_total" in flat:
        lines.append(
            f"  control: {flat['repro_comm_spec_bytes_total'] / 1e3:.1f} kB of spec "
            "announced over comm"
        )
    return "\n".join(lines)


def _redraw(read: Callable[[], list[Sample]], title: str, args: argparse.Namespace,
            run: threading.Thread | None = None) -> None:  # verify: ok=raw-threading (annotation: the monitored run's thread)
    """The one monitor loop: a frame every ``--interval`` from ``read()``'s
    samples (rates against the previous frame's) while ``run`` lives, or,
    with no run, for ``--frames`` frames (0 = until interrupted)."""
    prev: list[Sample] = []
    prev_t = 0.0
    shown = 0
    while True:
        if run is not None:
            run.join(timeout=args.interval)
        samples, now = read(), time.monotonic()
        done = run is not None and not run.is_alive()
        state = "" if run is None else "done" if done else "running"
        frame = render_dashboard(samples, title, prev, now - prev_t, state)
        print(frame if args.plain else _ANSI_HOME_CLEAR + frame, flush=True)
        prev, prev_t, shown = samples, now, shown + 1
        if done or (run is None and 0 < args.frames <= shown):
            return
        if run is None:
            time.sleep(args.interval)


def run_remote(args: argparse.Namespace) -> int:
    """Attach to ``--connect host:port`` and redraw until interrupted
    (or for ``--frames`` frames when bounded, e.g. from CI)."""
    import urllib.request

    endpoint = args.connect
    if "://" not in endpoint:
        endpoint = f"http://{endpoint}"
    if not endpoint.endswith("/metrics"):
        endpoint = endpoint.rstrip("/") + "/metrics"

    def scrape() -> list[Sample]:
        for _ in range(3):  # a scrape may miss twice in a row
            try:
                body = urllib.request.urlopen(endpoint, timeout=5).read().decode()
            except OSError as exc:  # URLError and timeouts included
                lost = exc
                time.sleep(args.interval)
                continue
            return parse_prometheus(body)
        raise ConnectionError(f"lost {endpoint}: {lost}")

    try:
        _redraw(scrape, f"remote {args.connect}", args)
    except ConnectionError as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 1
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
    sched = FTScheduler(app, runtime, store=store, hooks=hooks, event_log=log)
    register_run_metrics(registry, sched)

    box: dict[str, Any] = {}

    def _run() -> None:
        try:
            box["result"] = sched.run()
        except BaseException as exc:  # surfaced after the monitor loop
            box["error"] = exc

    server = MetricsServer(registry, port=args.port) if args.serve else None
    title = (f"{args.app}/{args.scale} on {args.runtime}, "
             f"{args.workers} workers, seed {args.seed}")
    thread = threading.Thread(  # verify: ok=raw-threading (monitor harness: the run occupies this thread so the main thread can redraw; joined by the redraw loop)
        target=_run, name="repro-top-run", daemon=True
    )
    try:
        if server is not None:
            print(f"metrics endpoint: {server.url}")
        thread.start()
        _redraw(registry.collect, title, args, thread)
    except KeyboardInterrupt:
        print("\ninterrupted; abandoning the run", file=sys.stderr)
        return 130
    finally:
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
