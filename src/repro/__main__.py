"""Top-level CLI: ``python -m repro <command>``.

Commands:

* ``harness`` -- forwards to ``python -m repro.harness`` (all tables and
  figures); accepts the same flags.
* ``trace`` -- run one app with structured event tracing: per-worker
  metrics, the recovery timeline, Chrome trace / JSONL export
  (``python -m repro trace cholesky --chrome trace.json``; see
  docs/OBSERVABILITY.md).
* ``detect`` -- silent-fault detection: coverage and overhead tables for
  the checksummed store and selective task replication
  (``python -m repro detect --apps lcs``; see docs/DETECTION.md).
* ``top`` -- real-time run monitor: launch one benchmark on the process
  pool (or thread pool) with live metrics and redraw per-worker
  utilization, queue depths, recovery/SDC counters, and dispatch
  latency while it runs; prints the overhead-attribution budget when
  the run quiesces (``python -m repro top cholesky --serve``; see
  docs/OBSERVABILITY.md).
* ``verify`` -- static analysis and protocol verification of the
  scheduler itself: concurrency lints, the Guarantee 1-4 trace-invariant
  checker, and bounded schedule exploration with seeded-bug mutation
  testing (``python -m repro verify static``; see docs/VERIFICATION.md).
* ``worker`` -- run a :class:`~repro.runtime.cluster.WorkerServer`: a
  compute server a ClusterRuntime parent dispatches task phases to
  (``python -m repro worker --listen tcp://0.0.0.0:7070``; see
  docs/DISTRIBUTED.md).
* ``cluster`` -- run the inline-parity check against worker servers you
  started (``python -m repro cluster --addresses tcp://H1:P1,tcp://H2:P2``).
* ``validate`` -- structural validation of one benchmark's task graph
  (acyclicity, dependency closure, sink reachability) without running it.
* ``about`` -- what this package reproduces and where to look next.
"""

from __future__ import annotations

import sys


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
        "`python -m pytest tests` to validate the install and\n"
        "`python -m repro.harness` to regenerate every table and figure."
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    cmd, rest = argv[0], argv[1:]
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
        "harness | trace | top | detect | verify | worker | cluster | "
        "validate | about"
    )
    return 2


if __name__ == "__main__":
    sys.exit(main())
