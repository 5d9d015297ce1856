"""Top-level CLI: ``python -m repro <command>``.

Commands:

* ``selftest`` -- end-to-end sanity pass: run every benchmark at tiny
  scale with real kernels on all three runtimes, inject one fault per
  lifetime phase, and verify every result numerically.  Exit code 0 means
  the install works.
* ``harness`` -- forwards to ``python -m repro.harness`` (all tables and
  figures); accepts the same flags.
* ``trace`` -- run one app with structured event tracing: per-worker
  metrics, the recovery timeline, Chrome trace / JSONL export
  (``python -m repro trace cholesky --chrome trace.json``; see
  docs/OBSERVABILITY.md).
* ``detect`` -- silent-fault detection: coverage and overhead tables for
  the checksummed store and selective task replication, or the CI install
  check (``python -m repro detect --selftest``; see docs/DETECTION.md).
* ``top`` -- real-time run monitor: launch one benchmark on the process
  pool (or thread pool) with live metrics and redraw per-worker
  utilization, queue depths, recovery/SDC counters, and dispatch
  latency while it runs; prints the overhead-attribution budget when
  the run quiesces (``python -m repro top cholesky --serve``; see
  docs/OBSERVABILITY.md).
* ``verify`` -- static analysis and protocol verification of the
  scheduler itself: concurrency lints, the Guarantee 1-4 trace-invariant
  checker, and bounded schedule exploration with seeded-bug mutation
  testing (``python -m repro verify --selftest``; see
  docs/VERIFICATION.md).
* ``perf`` -- the statistical micro suite (end-to-end runs are
  ``benchmarks/e2e``'s): scheduler structure ops, tracing-on/off
  throughput, simulator events/sec, telemetry and wire costs, the bare
  dispatch round trip; gates against a committed baseline
  (``python -m repro perf --baseline BENCH_seed.json``; see
  docs/PERFORMANCE.md).
* ``procpool`` -- multi-process runtime smoke test: run real-kernel apps
  through :class:`~repro.runtime.procpool.ProcessRuntime` over a
  shared-memory store, assert bit-identical parity with the inline
  runtime, and exercise worker-death recovery (used by the CI
  remote-runtimes job; skips gracefully on single-core hosts unless ``--force``).
* ``worker`` -- run a :class:`~repro.runtime.cluster.WorkerServer`: a
  compute server a ClusterRuntime parent dispatches task phases to
  (``python -m repro worker --listen tcp://0.0.0.0:7070``; see
  docs/DISTRIBUTED.md).
* ``cluster`` -- distributed execution over localhost TCP workers:
  ``--selftest`` spawns real worker processes and asserts parity,
  ``kill -9`` recovery, and a live /metrics scrape (also in the CI
  remote-runtimes job); ``--addresses`` runs the parity check against workers you
  started elsewhere.
* ``validate`` -- structural validation of one benchmark's task graph
  (acyclicity, dependency closure, sink reachability) without running it.
* ``about`` -- what this package reproduces and where to look next.
"""

from __future__ import annotations

import sys
import time


def _selftest() -> int:
    from repro.apps import APP_NAMES, make_app
    from repro.core import FTScheduler, NabbitScheduler
    from repro.faults import FaultInjector, plan_faults
    from repro.runtime import InlineRuntime, SimulatedRuntime, ThreadedRuntime
    from repro.runtime.tracing import ExecutionTrace

    failures = 0
    t0 = time.time()
    for name in APP_NAMES:
        app = make_app(name, scale="tiny")
        checks: list[tuple[str, bool]] = []
        try:
            store = app.make_store(False)
            NabbitScheduler(app, InlineRuntime(), store=store).run()
            app.verify(store)
            checks.append(("baseline/inline", True))

            store = app.make_store(True)
            FTScheduler(app, SimulatedRuntime(workers=4, seed=1), store=store).run()
            app.verify(store)
            checks.append(("ft/simulated", True))

            store = app.make_store(True)
            FTScheduler(app, ThreadedRuntime(workers=4, seed=1), store=store).run()
            app.verify(store)
            checks.append(("ft/threaded", True))

            for phase in ("before_compute", "after_compute", "after_notify"):
                store = app.make_store(True)
                trace = ExecutionTrace()
                plan = plan_faults(app, phase=phase, task_type="v=rand", count=2, seed=3)
                injector = FaultInjector(plan, app, store, trace)
                FTScheduler(
                    app, SimulatedRuntime(workers=4, seed=2),
                    store=store, hooks=injector, trace=trace,
                ).run()
                app.verify(store)
                checks.append((f"recover/{phase}", True))
        except Exception as exc:  # report and continue with the next app
            checks.append((f"FAILED: {type(exc).__name__}: {exc}", False))
            failures += 1
        status = "ok" if all(ok for _, ok in checks) else "FAIL"
        detail = ", ".join(label for label, _ in checks)
        print(f"  {name:9s} [{status}]  {detail}")
    print(f"selftest {'passed' if not failures else 'FAILED'} in {time.time() - t0:.1f}s")
    return 1 if failures else 0


def _procpool(argv: list[str]) -> int:
    import argparse
    import os

    ap = argparse.ArgumentParser(
        prog="python -m repro procpool",
        description="Smoke-test the multi-process runtime: inline-parity "
        "on real kernels over a shared-memory store, plus worker-death "
        "recovery.",
    )
    ap.add_argument("--workers", type=int, default=2, help="worker processes (default 2)")
    ap.add_argument("--apps", default="lcs,cholesky",
                    help="comma-separated app names (default: lcs,cholesky)")
    ap.add_argument("--force", action="store_true",
                    help="run even on a single-core host")
    args = ap.parse_args(argv)

    cores = os.cpu_count() or 1
    if cores < 2 and not args.force:
        # Graceful skip, visibly: the dispatch path is still covered by
        # the tier-1 tests; a 1-core box just can't say anything useful
        # about a process pool.
        print(f"procpool: skipped (host has {cores} core; rerun with --force)")
        return 0

    import numpy as np

    from repro.apps import make_app
    from repro.core import FTScheduler
    from repro.runtime import InlineRuntime, ProcessRuntime

    t0 = time.time()
    failures = 0
    for name in [a for a in args.apps.split(",") if a]:
        try:
            app = make_app(name, scale="tiny")
            store = app.make_store(True)
            FTScheduler(app, InlineRuntime(), store=store).run()
            want = app.extract(store)

            app = make_app(name, scale="tiny")
            store = app.make_store(True, shared=True)
            FTScheduler(app, ProcessRuntime(workers=args.workers, seed=0), store=store).run()
            got = app.extract(store)
            store.close()
            same = (got == want).all() if isinstance(want, np.ndarray) else got == want
            if not same:
                raise AssertionError("process-runtime result differs from inline")

            app = make_app(name, scale="tiny")
            store = app.make_store(True, shared=True)
            rt = ProcessRuntime(workers=args.workers, seed=0, die_on=[app.sink_key()])
            FTScheduler(app, rt, store=store).run()
            app.verify(store)
            store.close()
            if rt.worker_crashes != 1:
                raise AssertionError(f"expected 1 worker crash, saw {rt.worker_crashes}")
            print(f"  {name:9s} [ok]  parity, crash-recovery ({args.workers} workers)")
        except Exception as exc:
            print(f"  {name:9s} [FAIL]  {type(exc).__name__}: {exc}")
            failures += 1
    print(f"procpool smoke {'passed' if not failures else 'FAILED'} in {time.time() - t0:.1f}s")
    return 1 if failures else 0


def _validate(argv: list[str]) -> int:
    import argparse

    from repro.apps import APP_NAMES, make_app
    from repro.apps.registry import AppConfig
    from repro.graph.validate import GraphValidationError, validate_spec

    ap = argparse.ArgumentParser(
        prog="python -m repro validate",
        description="Validate one benchmark's task graph structurally "
        "(acyclicity, dependency closure, sink reachability) without running it.",
    )
    ap.add_argument("app", choices=APP_NAMES)
    ap.add_argument("--n", type=int, default=None, help="problem size (app-specific)")
    ap.add_argument("--block", type=int, default=None, help="block/tile size")
    ap.add_argument("--scale", choices=("tiny", "default", "large"), default="tiny",
                    help="preset instance scale (ignored when --n is given)")
    ap.add_argument("--max-tasks", type=int, default=None,
                    help="abort if the reachable graph exceeds this many tasks")
    args = ap.parse_args(argv)

    config = None
    if args.n is not None:
        config = AppConfig(n=args.n, block=args.block) if args.block else AppConfig(n=args.n)
    app = make_app(args.app, config=config, scale=args.scale)
    try:
        tasks = validate_spec(app, max_tasks=args.max_tasks)
    except GraphValidationError as exc:
        print(f"{args.app}: INVALID -- {exc}")
        return 1
    print(f"{args.app}: valid task graph, {tasks} reachable tasks from sink {app.sink_key()!r}")
    return 0


def _about() -> int:
    print(__doc__)
    print(
        "This package reproduces Kurt, Krishnamoorthy, Agrawal & Agrawal,\n"
        '"Fault-Tolerant Dynamic Task Graph Scheduling" (SC 2014).\n\n'
        "Start with README.md; the per-experiment record is EXPERIMENTS.md;\n"
        "the algorithm walkthrough is docs/ALGORITHM.md; run\n"
        "`python -m repro selftest` to validate the install and\n"
        "`python -m repro.harness` to regenerate every table and figure."
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    cmd, rest = argv[0], argv[1:]
    if cmd == "selftest":
        return _selftest()
    if cmd == "harness":
        from repro.harness.__main__ import main as harness_main

        return harness_main(rest)
    if cmd == "trace":
        from repro.obs.cli import main as trace_main

        return trace_main(rest)
    if cmd == "top":
        from repro.obs.top import main as top_main

        return top_main(rest)
    if cmd == "detect":
        from repro.detect.cli import main as detect_main

        return detect_main(rest)
    if cmd == "verify":
        from repro.verify.cli import main as verify_main

        return verify_main(rest)
    if cmd == "perf":
        from repro.perf.cli import main as perf_main

        return perf_main(rest)
    if cmd == "procpool":
        return _procpool(rest)
    if cmd == "worker":
        from repro.runtime.cluster_cli import worker_main

        return worker_main(rest)
    if cmd == "cluster":
        from repro.runtime.cluster_cli import cluster_main

        return cluster_main(rest)
    if cmd == "validate":
        return _validate(rest)
    if cmd == "about":
        return _about()
    print(
        f"unknown command {cmd!r}; expected "
        "selftest | harness | trace | top | detect | verify | perf | procpool | "
        "worker | cluster | validate | about"
    )
    return 2


if __name__ == "__main__":
    sys.exit(main())
