"""``python -m repro trace``: run an app with tracing, emit artifacts.

One command covers the whole observability loop: build a benchmark
instance, optionally plan and inject faults, execute it under the FT (or
baseline) scheduler with a bound :class:`~repro.obs.events.EventLog`,
verify the numerical result, then

* print the trace summary, the per-worker metrics table, and the
  per-fault recovery timeline;
* check that the event log folds to the live counters (``--check``,
  on by default for unbounded logs);
* write a Chrome trace-event JSON (``--chrome``) and/or a JSONL event
  dump (``--jsonl``).

Examples::

    python -m repro trace cholesky --chrome trace.json
    python -m repro trace lu --runtime threaded --workers 8 --jsonl ev.jsonl
    python -m repro trace fw --no-faults --report
    python -m repro trace lcs --phase before_compute --count 4 --seed 7
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import APP_NAMES, make_app
from repro.obs.events import EventLog
from repro.obs.metrics import format_worker_metrics, worker_metrics
from repro.obs.report import format_recovery_timeline, recovery_timeline
from repro.runtime.tracing import verify_consistency


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("app", choices=APP_NAMES, help="benchmark to run")
    ap.add_argument("--scale", choices=("tiny", "default", "large"), default="tiny",
                    help="instance scale (default: tiny)")
    ap.add_argument("--runtime", choices=("inline", "sim", "threaded"), default="sim",
                    help="executor (default: sim = virtual-time work stealing)")
    ap.add_argument("--workers", type=int, default=4, help="worker count (sim/threaded)")
    ap.add_argument("--seed", type=int, default=0, help="runtime + fault-plan seed")
    ap.add_argument("--scheduler", choices=("ft", "nabbit"), default="ft",
                    help="ft (fault-tolerant) or nabbit (baseline; implies --no-faults)")
    ap.add_argument("--no-faults", action="store_true", help="fault-free run")
    ap.add_argument("--phase", choices=("before_compute", "after_compute", "after_notify"),
                    default="after_compute", help="fault lifetime point")
    ap.add_argument("--task-type", default="v=rand", help="victim class (v=0/v=rand/v=last)")
    ap.add_argument("--count", type=int, default=2, help="target implied re-executions")
    ap.add_argument("--capacity", type=int, default=None,
                    help="ring-buffer capacity (default: unbounded)")
    ap.add_argument("--chrome", metavar="PATH", default=None,
                    help="write a chrome://tracing trace-event JSON file")
    ap.add_argument("--jsonl", metavar="PATH", default=None,
                    help="write the raw event stream as JSON lines")
    ap.add_argument("--report", action="store_true",
                    help="print every event (seq, t, worker, kind, key, life)")
    ap.add_argument("--no-check", action="store_true",
                    help="skip the event-log vs counters consistency check")
    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.capacity is not None and args.capacity < 1:
        parser.error("--capacity must be >= 1 (omit it for an unbounded log)")
    from repro.core import FTScheduler, NabbitScheduler
    from repro.faults import FaultInjector, plan_faults
    from repro.runtime import InlineRuntime, SimulatedRuntime, ThreadedRuntime
    from repro.runtime.tracing import ExecutionTrace

    log = EventLog(capacity=args.capacity)
    if args.runtime == "inline":
        runtime = InlineRuntime()
    elif args.runtime == "threaded":
        runtime = ThreadedRuntime(workers=args.workers, seed=args.seed, event_log=log)
    else:
        runtime = SimulatedRuntime(workers=args.workers, seed=args.seed, event_log=log)

    app = make_app(args.app, scale=args.scale)
    trace = ExecutionTrace()
    baseline = args.scheduler == "nabbit"
    faulty = not (args.no_faults or baseline)
    if baseline:
        store = app.make_store(False)
        sched = NabbitScheduler(app, runtime, store=store, trace=trace, event_log=log)
    else:
        store = app.make_store(True)
        hooks = None
        if faulty:
            plan = plan_faults(
                app, phase=args.phase, task_type=args.task_type,
                count=args.count, seed=args.seed,
            )
            hooks = FaultInjector(plan, app, store, trace)
        sched = FTScheduler(
            app, runtime, store=store, hooks=hooks, trace=trace, event_log=log,
        )
    result = sched.run()
    app.verify(store)
    events = log.events

    unit = "s" if args.runtime == "threaded" else "vt"
    print(f"{args.app}/{args.scale} on {args.runtime} "
          f"(P={runtime.workers}, seed={args.seed}, scheduler={sched.name}): "
          f"makespan={result.makespan:.6g}{unit}, verified ok")
    print(f"events recorded: {len(events)}"
          + (f" (dropped {log.dropped} records to the ring buffer)" if log.dropped else ""))

    print("\n== trace summary ==")
    for name, value in trace.summary().items():
        print(f"  {name:>20}: {value}")

    if not args.no_check and log.dropped == 0:
        diff = verify_consistency(events, trace)
        if diff:
            detail = ", ".join(f"{k}: events={a} trace={b}" for k, (a, b) in sorted(diff.items()))
            print(f"\nCONSISTENCY CHECK FAILED: {detail}", file=sys.stderr)
            return 1
        print("\nconsistency check: event-log-derived counters match the live trace")
    elif log.dropped:
        print("\nconsistency check skipped: ring buffer dropped records")

    print("\n== per-worker metrics ==")
    print(format_worker_metrics(worker_metrics(events, run=result.run)))

    if faulty or trace.faults_observed:
        print("\n== recovery timeline ==")
        print(format_recovery_timeline(recovery_timeline(events)))

    if args.report:
        print("\n== event stream ==")
        for e in events:
            extra = " ".join(f"{k}={v!r}" for k, v in e.data.items())
            print(f"  [{e.seq:>5}] t={e.t:<12.6g} w{e.worker} {e.kind.value:<16} "
                  f"key={e.key!r} life={e.life}" + (f" {extra}" if extra else ""))

    rc = 0
    if args.chrome:
        from repro.harness.export import write_chrome_trace

        try:
            write_chrome_trace(events, args.chrome)
        except OSError as exc:
            print(f"\nerror: cannot write chrome trace to {args.chrome}: {exc}", file=sys.stderr)
            rc = 1
        else:
            print(f"\nchrome trace written to {args.chrome} (open in chrome://tracing or Perfetto)")
    if args.jsonl:
        from repro.harness.export import write_events_jsonl

        try:
            write_events_jsonl(events, args.jsonl)
        except OSError as exc:
            print(f"error: cannot write event JSONL to {args.jsonl}: {exc}", file=sys.stderr)
            rc = 1
        else:
            print(f"event JSONL written to {args.jsonl}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
