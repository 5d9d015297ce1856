"""CLI entry points for the cluster runtime.

``python -m repro worker --listen tcp://HOST:PORT``
    Run a :class:`~repro.runtime.cluster.WorkerServer` in this process
    until killed.  ``--metrics-port N`` additionally serves the worker's
    registry over HTTP (``/metrics`` Prometheus text, ``/`` JSON) on the
    ``--listen`` host, for ``python -m repro top --connect``.  Bound
    addresses are printed to stdout (one ``listening ...`` /
    ``metrics ...`` line each) so a spawner using port 0 can discover
    them.

``python -m repro cluster --addresses tcp://H1:P1,tcp://H2:P2``
    Run the inline-parity check against *already running* workers (e.g.
    on other machines).  The spawned-process story -- ``os._exit``
    death, ``kill -9`` mid-run, a live scrape -- is tested in
    ``tests/runtime/test_cluster.py::TestSpawnedWorkers``.
"""

from __future__ import annotations

import argparse
import time


def worker_main(argv: list[str]) -> int:
    from repro.obs.live import MetricsRegistry, MetricsServer
    from repro.runtime.cluster import DEFAULT_CACHE_BYTES, WorkerServer

    ap = argparse.ArgumentParser(
        prog="python -m repro worker",
        description="Serve compute phases for a ClusterRuntime parent.",
    )
    ap.add_argument("--listen", required=True,
                    help="address to bind, e.g. tcp://0.0.0.0:7070 (port 0 = ephemeral)")
    ap.add_argument("--metrics-port", type=int, default=None,
                    help="also serve /metrics on this HTTP port (0 = ephemeral)")
    ap.add_argument("--cache-mb", type=int, default=DEFAULT_CACHE_BYTES // (1024 * 1024),
                    help="block-cache budget in MiB (default %(default)s)")
    args = ap.parse_args(argv)

    metrics = MetricsRegistry() if args.metrics_port is not None else None
    server = WorkerServer(
        args.listen, cache_bytes=args.cache_mb * 1024 * 1024, metrics=metrics
    ).start()
    print(f"listening {server.address}", flush=True)
    mserver = None
    if metrics is not None:
        from repro.comm import parse_address

        # Served on the interface that already accepts this worker's
        # jobs, so `top --connect` works from wherever its parent does.
        host = parse_address(server.address).location.rpartition(":")[0]
        mserver = MetricsServer(metrics, port=args.metrics_port, host=host or "127.0.0.1")
        print(f"metrics {mserver.url}", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        if mserver is not None:
            mserver.close()
    return 0


def _run_ft(app: object, runtime: object, plan: object = None) -> tuple[object, object]:
    from repro.core import FTScheduler
    from repro.faults import FaultInjector
    from repro.runtime.tracing import ExecutionTrace

    store = app.make_store(True, shared=False)
    trace = ExecutionTrace()
    hooks = FaultInjector(plan, app, store, trace) if plan is not None else None
    FTScheduler(app, runtime, store=store, hooks=hooks, trace=trace).run()
    return app.extract(store), trace


def _assert_same(got: object, want: object, label: str) -> None:
    import numpy as np

    same = (got == want).all() if isinstance(want, np.ndarray) else got == want
    if not same:
        raise AssertionError(f"{label}: cluster result differs from inline")


def _check_parity(addresses: list[str], workers: int) -> None:
    from repro.apps import make_app
    from repro.faults import plan_faults
    from repro.obs.live import MetricsRegistry
    from repro.runtime import ClusterRuntime, InlineRuntime

    for name in ("lcs", "cholesky"):
        app = make_app(name, scale="tiny")
        want, _ = _run_ft(app, InlineRuntime())
        metrics = MetricsRegistry()
        rt = ClusterRuntime(workers=workers, seed=0, addresses=addresses, metrics=metrics)
        got, _ = _run_ft(app, rt)
        _assert_same(got, want, name)
        # The spec is control plane, O(config): inputs travel as blocks.
        spec_bytes = metrics.counter("repro_comm_spec_bytes_total").value / workers
        if not 0 < spec_bytes < 4096:
            raise AssertionError(f"{name}: {spec_bytes:.0f} spec bytes per channel")

        plan = plan_faults(app, phase="after_compute", task_type="v=rand", count=2, seed=3)
        want_f, t0 = _run_ft(app, InlineRuntime(), plan=plan)
        got_f, t1 = _run_ft(
            app, ClusterRuntime(workers=workers, seed=0, addresses=addresses), plan=plan
        )
        _assert_same(got_f, want_f, f"{name}+faults")
        if t0.total_recoveries == 0 or t1.total_recoveries == 0:
            raise AssertionError(f"{name}: fault plan injected no recoveries")
        print(f"  parity    [ok]  {name}: bit-identical, with and without faults")


def cluster_main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="Check that task graphs run on remote worker servers "
        "give the inline runtime's results, with and without faults.",
    )
    ap.add_argument("--addresses", required=True,
                    help="comma-separated worker addresses to run the parity check against")
    ap.add_argument("--workers", type=int, default=2,
                    help="parent-side scheduler threads / channels (default 2)")
    args = ap.parse_args(argv)

    t0 = time.time()
    _check_parity([a for a in args.addresses.split(",") if a], args.workers)
    print(f"cluster parity passed in {time.time() - t0:.1f}s")
    return 0
