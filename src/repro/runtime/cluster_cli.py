"""CLI entry points for the cluster runtime.

``python -m repro worker --listen tcp://HOST:PORT``
    Run a :class:`~repro.runtime.cluster.WorkerServer` in this process
    until killed.  ``--metrics-port N`` additionally serves the worker's
    registry over HTTP (``/metrics`` Prometheus text, ``/`` JSON) for
    ``python -m repro top --connect`` and CI scrapes.  Bound addresses
    are printed to stdout (one ``listening ...`` / ``metrics ...`` line
    each) so a spawner using port 0 can discover them.

``python -m repro cluster --selftest``
    The CI remote-runtimes job runs this: spawn real localhost-TCP worker processes, then

    1. assert bit-identical parity (inline vs cluster) for LCS and
       Cholesky, with and without a fault plan;
    2. ``die_on``-inject a worker death (``os._exit(73)``) and assert
       recovery through the normal ``WORKER_DOWN`` → FT path;
    3. ``kill -9`` a worker process mid-run and assert the run still
       completes correctly with at least one recorded crash;
    4. scrape the surviving worker's ``/metrics`` endpoint.

``python -m repro cluster --addresses tcp://H1:P1,tcp://H2:P2``
    Run the parity check against *already running* workers (e.g. on
    other machines) instead of spawning local ones.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request


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
        mserver = MetricsServer(metrics, port=args.metrics_port)
        print(f"metrics http://127.0.0.1:{mserver.port}/metrics", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        if mserver is not None:
            mserver.close()
    return 0


# ---------------------------------------------------------------------------
# selftest plumbing


class _SpawnedWorker:
    """A ``python -m repro worker`` subprocess with discovered addresses."""

    def __init__(self, metrics: bool = False) -> None:
        cmd = [sys.executable, "-m", "repro", "worker", "--listen", "tcp://127.0.0.1:0"]
        if metrics:
            cmd += ["--metrics-port", "0"]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env
        )
        self.address = self._read_line("listening ")
        self.metrics_url = self._read_line("metrics ") if metrics else None

    def _read_line(self, prefix: str) -> str:
        deadline = time.time() + 30.0
        assert self.proc.stdout is not None
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("worker subprocess exited before binding")
            if line.startswith(prefix):
                return line[len(prefix):].strip()
        raise RuntimeError("worker subprocess never reported its address")

    def kill9(self) -> None:
        os.kill(self.proc.pid, signal.SIGKILL)
        self.proc.wait(timeout=10.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()
                self.proc.wait(timeout=5.0)


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


def _check_die_on(addresses: list[str]) -> None:
    from repro.apps import make_app
    from repro.core import FTScheduler
    from repro.obs.events import EventKind, EventLog
    from repro.runtime import ClusterRuntime

    app = make_app("lcs", scale="tiny")
    store = app.make_store(True, shared=False)
    log = EventLog()
    rt = ClusterRuntime(
        workers=2, seed=0, addresses=addresses, die_on=[(1, 1)], event_log=log
    )
    sched = FTScheduler(app, rt, store=store, event_log=log)
    sched.run()
    app.verify(store)
    downs = [e for e in log.events if e.kind is EventKind.WORKER_DOWN]
    if rt.worker_crashes != 1 or len(downs) != 1 or downs[0].key != (1, 1):
        raise AssertionError(
            f"die_on: expected exactly one WORKER_DOWN for (1, 1); "
            f"crashes={rt.worker_crashes} downs={[(e.key, e.data) for e in downs]}"
        )
    if sched.trace.total_recoveries < 1:
        raise AssertionError("die_on: worker death did not route through recovery")
    print("  die-on    [ok]  os._exit(73) worker death recovered via WORKER_DOWN -> FT")


def _check_kill9(make_workers: int = 2) -> None:
    """kill -9 a live worker process mid-run; the run must still finish
    correctly, with the loss visible as >= 1 recorded crash."""
    from repro.apps import make_app
    from repro.core import FTScheduler
    from repro.obs.live import MetricsRegistry
    from repro.runtime import ClusterRuntime

    spawned = [_SpawnedWorker() for _ in range(make_workers)]
    try:
        app = make_app("cholesky", scale="tiny")
        store = app.make_store(True, shared=False)
        metrics = MetricsRegistry()
        rt = ClusterRuntime(
            workers=2,
            seed=0,
            addresses=[w.address for w in spawned],
            metrics=metrics,
            heartbeat_timeout=2.0,
        )
        done = threading.Event()
        hist = metrics.histogram("repro_dispatch_seconds")

        def killer() -> None:
            # Wait for the run to be demonstrably mid-flight (two full
            # dispatch round trips), then SIGKILL worker 0.
            while not done.is_set():
                if hist.count >= 2:
                    spawned[0].kill9()
                    return
                time.sleep(0.001)

        kt = threading.Thread(target=killer, daemon=True)
        kt.start()
        sched = FTScheduler(app, rt, store=store)
        sched.run()
        done.set()
        kt.join(timeout=5.0)
        app.verify(store)
        if spawned[0].proc.poll() is None:
            raise AssertionError("kill -9 never fired (run finished before 2 dispatches?)")
        if rt.worker_crashes < 1:
            raise AssertionError("killed worker was never detected as a crash")
        if sched.trace.total_recoveries < 1:
            raise AssertionError("killed worker did not route through recovery")
        print(
            f"  kill-9    [ok]  SIGKILL mid-run: {rt.worker_crashes} crash(es), "
            f"{sched.trace.total_recoveries} recovery(ies), result verified"
        )
    finally:
        for w in spawned:
            w.stop()


def _check_metrics_scrape() -> None:
    from repro.apps import make_app
    from repro.runtime import ClusterRuntime, InlineRuntime

    w = _SpawnedWorker(metrics=True)
    try:
        app = make_app("lcs", scale="tiny")
        want, _ = _run_ft(app, InlineRuntime())
        got, _ = _run_ft(app, ClusterRuntime(workers=2, seed=0, addresses=[w.address]))
        _assert_same(got, want, "scrape-run")
        assert w.metrics_url is not None
        with urllib.request.urlopen(w.metrics_url, timeout=10.0) as resp:
            text = resp.read().decode("utf-8", "replace")
        # A served run must have *moved* each family: one that is merely
        # present can be one nobody feeds.
        seen = []
        for family in ("repro_worker_jobs_total", "repro_comm_fetches_total",
                       "repro_comm_fetch_bytes_total", "repro_worker_cache_bytes"):
            values = [float(line.rsplit(None, 1)[1]) for line in text.splitlines()
                      if line.startswith(family)]
            if not values or values[0] <= 0:
                raise AssertionError(f"worker served a run but reports {family} {values!r}")
            seen.append(values[0])
        print("  scrape    [ok]  /metrics live ({:.0f} jobs; {:.0f} payloads, {:.0f} bytes "
              "received; {:.0f} bytes cached)".format(*seen))
    finally:
        w.stop()


def cluster_main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="Run task graphs on remote worker servers over TCP, "
        "or --selftest the whole distributed path on localhost.",
    )
    ap.add_argument("--selftest", action="store_true",
                    help="spawn localhost TCP workers; parity + kill -9 recovery + /metrics")
    ap.add_argument("--addresses", default=None,
                    help="comma-separated worker addresses to run the parity check against")
    ap.add_argument("--workers", type=int, default=2,
                    help="parent-side scheduler threads / channels (default 2)")
    args = ap.parse_args(argv)

    t0 = time.time()
    if args.addresses:
        addrs = [a for a in args.addresses.split(",") if a]
        _check_parity(addrs, args.workers)
        print(f"cluster parity passed in {time.time() - t0:.1f}s")
        return 0
    if not args.selftest:
        ap.error("need --selftest or --addresses")

    failures = 0
    spawned = [_SpawnedWorker(), _SpawnedWorker()]
    try:
        steps: list[tuple[str, object]] = [
            ("parity", lambda: _check_parity([w.address for w in spawned], args.workers)),
            ("die-on", lambda: _check_die_on([w.address for w in spawned])),
        ]
        for label, step in steps:
            try:
                step()
            except Exception as exc:
                print(f"  {label:9s} [FAIL]  {type(exc).__name__}: {exc}")
                failures += 1
    finally:
        for w in spawned:
            w.stop()
    for label, step in (("kill-9", _check_kill9), ("scrape", _check_metrics_scrape)):
        try:
            step()
        except Exception as exc:
            print(f"  {label:9s} [FAIL]  {type(exc).__name__}: {exc}")
            failures += 1
    print(f"cluster selftest {'passed' if not failures else 'FAILED'} in {time.time() - t0:.1f}s")
    return 1 if failures else 0
