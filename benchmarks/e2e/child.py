"""One workload in one fresh process (spawned by ``run.py``).

Set-up (imports, app + reference, fault plan, worker servers, warm-up
runs), then a closed loop with one client -- the next graph run starts
when the previous one has been verified:

* ``--trace 0``: the timed arms.  **ft** (the workload as specified) and
  **ref** (``NabbitScheduler``, fault-free, no log, no hooks) interleave
  5:2 so host drift hits both; every end-to-end metric comes from here.
* ``--trace 1``: the traced arm (spans from ``trace.py``, plus a public
  ``EventLog`` folded by ``repro.obs.attribution`` on the threaded and
  remote runtimes), interleaved with untraced runs for the tracing bill
  and with fault-free runs for the recovery costs; then the direct probes.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import atexit
import faulthandler
import gc
import json
import math
import multiprocessing
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
PIN_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    # Before NumPy is imported: an unpinned BLAS oversubscribes the two
    # cores and the run measures that, not the scheduler.
    for _var in PIN_ENV:
        os.environ[_var] = "1"
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"child.py: no program to measure under {SRC}")
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from repro import BlockRef, BlockStore, FTScheduler, NabbitScheduler, grid_graph  # noqa: E402
from repro.apps import AppConfig, make_app  # noqa: E402
from repro.faults import FaultInjector, plan_faults  # noqa: E402
from repro.obs.attribution import attribute_run  # noqa: E402
from repro.obs.events import EventKind, EventLog  # noqa: E402
from repro.runtime import (  # noqa: E402
    ClusterRuntime,
    InlineRuntime,
    ProcessRuntime,
    ThreadedRuntime,
)
from repro.runtime.tracing import ExecutionTrace  # noqa: E402

import probes  # noqa: E402
from hostprobe import HostProbe  # noqa: E402
import trace as tracing  # noqa: E402
from workloads import BY_NAME, Workload  # noqa: E402

#: Runs per arm before a result counts: p80 needs its ten samples beyond.
FT_RUNS, REF_RUNS = 50, 20
QUICK_RUNS = {"ft": 4, "ref": 2, "traced": 1, "clean": 1, "clean_traced": 1}
WARMUP_RUNS = 2
#: A child that is still alive after this many seconds dumps every thread's
#: stack and exits: the harness allows a run 180 s, and a hang must leave a
#: trace instead of a silent timeout.
WATCHDOG_S = 150
#: Pseudo-arm of the timed loop: one sample of the host-speed probe.
PROBE = "probe"
#: Block-cache budget of each spawned worker server.  Every run has its own
#: cache scope, so the default 256 MiB would only fill up with dead runs'
#: blocks and make peak_rss_mb depend on how many runs fit in the window.
WORKER_CACHE_MB = 64
_MISSING = object()
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _noop(key, ctx):
    ctx.write(BlockRef(key, 0), 0)


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python's allocator made."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


class WorkerServerProcess:
    """A ``python -m repro worker`` subprocess on an ephemeral loopback port."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--listen", "tcp://127.0.0.1:0",
             "--cache-mb", str(WORKER_CACHE_MB)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        self.address = ""

    def wait_listening(self) -> None:
        deadline = time.time() + 60.0
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("worker server exited before binding")
            if line.startswith("listening "):
                self.address = line[len("listening "):].strip()
                return
        raise RuntimeError("worker server never reported its address")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime

    def peak_rss_kib(self) -> int:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Session:
    """Everything set-up builds for one workload, and one graph run."""

    def __init__(self, wl: Workload, seed: int, quick: bool) -> None:
        self.wl = wl
        self.seed = seed
        n, block = wl.quick if quick else wl.size
        self.servers: list[WorkerServerProcess] = []
        if wl.runtime == "cluster":
            # Spawn first: the servers import while the parent builds the app.
            self.servers = [WorkerServerProcess() for _ in range(2)]
            atexit.register(self.close)
        if wl.app == "grid":
            self.app = None
            self.spec = grid_graph(n, block, compute=_noop)
            self.want = None
        else:
            self.app = self.spec = make_app(wl.app, config=AppConfig(n=n, block=block, seed=seed))
            self.want = self.app.reference()
        self.n = n
        self.plan = None
        self.plan_build_ms = 0.0
        if wl.fault_fraction:
            t0 = perf_counter()
            self.plan = plan_faults(self.app, phase="after_notify", task_type="v=rand",
                                    fraction=wl.fault_fraction, seed=seed)
            self.plan_build_ms = (perf_counter() - t0) * 1e3
        self.die_on: list = []
        if wl.crashes:
            # A chain (strictly increasing row and column): two die keys
            # are never in flight together, so each kills its own worker
            # and the crash count is exactly len(die_on).
            blocks = self.app.config.blocks
            count = min(wl.crashes, blocks)
            rng = random.Random(seed)
            rows = sorted(rng.sample(range(blocks), count))
            cols = sorted(rng.sample(range(blocks), count))
            self.die_on = list(zip(rows, cols))
        for server in self.servers:
            server.wait_listening()
        self.tasks = 0
        self.keys: list = []

    def close(self) -> None:
        for server in self.servers:
            server.stop()

    # -- accounting ---------------------------------------------------------

    def cpu_seconds(self) -> float:
        """Parent CPU plus worker CPU: reaped pool workers show up in
        RUSAGE_CHILDREN, the long-lived worker servers in /proc."""
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (time.process_time() + ru.ru_utime + ru.ru_stime
                + sum(s.cpu_seconds() for s in self.servers))

    def peak_rss_mib(self) -> float:
        """Max RSS of this process plus the largest worker's: a reaped
        pool worker (RUSAGE_CHILDREN) or a live worker server (/proc).
        In-process workloads have no workers; the only children they
        reap are the host probe's."""
        worker = 0
        if self.wl.runtime == "procpool":
            worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        for server in self.servers:
            worker = max(worker, server.peak_rss_kib())
        return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + worker) / 1024.0

    # -- one graph run ---------------------------------------------------------

    def _runtime(self, tracer, log, die_on):
        kind = self.wl.runtime
        if kind == "inline":
            cls, kwargs = InlineRuntime, {}
        elif kind == "threaded":
            cls, kwargs = ThreadedRuntime, dict(workers=2, seed=self.seed, event_log=log)
        elif kind == "procpool":
            cls, kwargs = ProcessRuntime, dict(workers=2, seed=self.seed, event_log=log,
                                               die_on=die_on)
            if self.wl.inflight is not None:
                kwargs["inflight"] = self.wl.inflight
        else:
            cls, kwargs = ClusterRuntime, dict(workers=2, seed=self.seed, event_log=log,
                                               addresses=[s.address for s in self.servers])
        if tracer is None:
            return cls(**kwargs)
        runtime = tracing.TRACED_RUNTIMES[cls](**kwargs)
        runtime.tracer = tracer
        return runtime

    def _store(self, fault_tolerant, tracer):
        shared = self.wl.runtime == "procpool"
        if tracer is not None:
            return tracing.traced_store(self.spec, tracer, shared)
        if self.app is None:
            return BlockStore()
        return self.app.make_store(fault_tolerant, shared=shared)

    def run_once(self, arm: str, tracer=None) -> dict:
        """Run the graph once, verify it, and return what was measured.

        ``arm``: ``ft`` (as specified), ``ref`` (NABBIT baseline) or
        ``clean`` (FT scheduler without the faults/crashes).
        """
        wl = self.wl
        fault_tolerant = arm != "ref"
        faulted = arm == "ft"
        log = None
        if fault_tolerant and (wl.event_log or (tracer is not None and wl.runtime != "inline")):
            log = EventLog()
        die_on = self.die_on if faulted else []
        runtime = self._runtime(tracer, log, die_on)
        store = self._store(fault_tolerant, tracer)
        try:
            spec = self.spec
            if tracer is not None and not wl.remote:
                spec = tracing.TracedSpec(spec, tracer)
            counters = ExecutionTrace()
            injector = None
            if faulted and self.plan is not None:
                injector = FaultInjector(self.plan, self.spec, store, counters)
            scheduler = FTScheduler if fault_tolerant else NabbitScheduler
            cpu0 = self.cpu_seconds()
            root = tracer.begin("scheduler.run") if tracer is not None else None
            t0 = perf_counter()
            try:
                result = scheduler(spec, runtime, store=store, hooks=injector, trace=counters,
                                   event_log=log).run()
            finally:
                wall = perf_counter() - t0
                if root is not None:
                    tracer.end(root)
            # Everything is read off before verification: extracting the
            # result reads the store too, and that is not the run's work.
            out = {
                "wall": wall,
                "cpu": self.cpu_seconds() - cpu0,
                "summary": counters.summary(),
                "run": result.run,
                "store": store.stats.snapshot(),
                "shm": store.shm_stats.snapshot() if hasattr(store, "shm_stats") else None,
                "crashes": getattr(runtime, "worker_crashes", 0),
                "fired": len(injector.fired) if injector is not None else 0,
                "events": log.events if log is not None else None,
                "spans": tracer.take() if tracer is not None else None,
            }
            if not self.tasks:
                self.tasks = counters.tasks_computed
                self.keys = list(counters.computes)
            self._verify(store, counters, runtime, injector, die_on)
            return out
        finally:
            if hasattr(store, "close"):
                store.close()

    def _verify(self, store, counters, runtime, injector, die_on) -> None:
        if self.app is None:
            if counters.reexecutions or (self.tasks and counters.total_computes != self.tasks):
                raise AssertionError(
                    f"grid ran {counters.total_computes} computes "
                    f"({counters.reexecutions} re-executions), expected {self.tasks} and none")
            if store.peek(BlockRef(self.spec.sink_key(), 0), _MISSING) is _MISSING:
                raise AssertionError("grid sink block missing")
        else:
            got = self.app.extract(store)
            if isinstance(self.want, np.ndarray):
                np.testing.assert_allclose(got, self.want, rtol=1e-8, atol=1e-8)
            elif got != self.want:
                raise AssertionError(f"{self.app.name}: result {got!r} != reference {self.want!r}")
        if injector is not None and not injector.all_fired():
            raise AssertionError(f"{len(injector.unfired)} planned faults never fired")
        crashes = getattr(runtime, "worker_crashes", 0)
        if crashes != len(die_on):
            raise AssertionError(f"{crashes} worker crashes, expected {len(die_on)}")
        if not die_on and injector is None and counters.reexecutions:
            raise AssertionError(f"{counters.reexecutions} re-executions on a fault-free run")


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs arms in a fixed interleaving; failures are counted, never fatal."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self.runs: dict[str, list[dict]] = {}
        self.attempted = 0
        self.failed: dict[str, int] = {}
        self.failures: list[str] = []
        self.tracer = tracing.Tracer()
        self.kept_spans: list[list] = []
        self.keep_spans = False
        self.probe: HostProbe | None = None

    def once(self, arm: str, record: bool = True) -> None:
        traced = arm.endswith("traced")
        base = {"traced": "ft", "clean_traced": "clean"}.get(arm, arm)
        self.attempted += record
        # Collect the previous run's garbage (scheduler <-> runtime <-> log
        # cycles) outside the timed region, so that a full collection does
        # not land on a random run; the collector stays on during the run.
        gc.collect()
        try:
            if traced:
                self.tracer.run_id += 1
                self.tracer.take()  # drop what the previous run's verification recorded
            out = self.session.run_once(base, self.tracer if traced else None)
            if traced:
                if self.keep_spans and record:
                    self.kept_spans.extend(out["spans"])
                out["derived"] = _derive(self.session, out)
        except Exception as exc:  # a failed run is a data point, not a crash
            self.attempted += not record  # a failed warm-up is a failed run too
            self.failed[arm] = self.failed.get(arm, 0) + 1
            text = str(exc).strip()
            self.failures.append(f"{arm} run {self.attempted}: {type(exc).__name__}: "
                                 f"{text.splitlines()[0] if text else ''}")
            return
        # Keep the measurements, not the event list and span table they
        # were folded from: 50 retained logs would be the peak RSS.
        out.pop("events", None)
        out.pop("spans", None)
        if record:
            self.runs.setdefault(arm, []).append(out)

    def measure(self, pattern: list[str], seconds: float, floor: dict[str, int]) -> None:
        """Cycle through ``pattern`` until ``seconds`` have passed and
        every arm has at least its ``floor`` of attempts."""
        deadline = perf_counter() + seconds
        done = {arm: 0 for arm in pattern}
        i = 0
        while perf_counter() < deadline or any(done[a] < floor.get(a, 0) for a in done):
            arm = pattern[i % len(pattern)]
            i += 1
            if perf_counter() >= deadline and done[arm] >= floor.get(arm, 0):
                continue  # only the arms still under their floor keep going
            if arm == PROBE:
                self.probe.sample()
            else:
                self.once(arm)
            done[arm] += 1


def percentile(samples: list[float], q: float, attempted: int) -> float:
    """The ``q`` quantile over ``attempted`` runs, failed ones counting as
    slower than any sample (clamped to the slowest finite one)."""
    ordered = sorted(samples)
    idx = max(0, math.ceil(q * attempted) - 1)
    return ordered[min(idx, len(ordered) - 1)]


def med(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(session: Session, loop: Loop, setup_s: float) -> dict:
    """``{name: (value, n, raw)}``.  The four timed metrics are divided by
    the host slowdown the probe saw during this run (``hostprobe.py``);
    ``raw`` keeps the wall-clock reading."""
    ft = loop.runs.get("ft", [])
    ref = loop.runs.get("ref", [])
    if not ft or not ref:
        return {}
    tasks = session.tasks
    walls = [r["wall"] for r in ft]
    n = len(walls)
    ft_attempted = n + loop.failed.get("ft", 0)
    p50 = percentile(walls, 0.5, ft_attempted) * 1e3
    p80 = percentile(walls, 0.8, ft_attempted) * 1e3
    rate = tasks * n / sum(walls)
    cpu = sum(r["cpu"] for r in ft) * 1e3 / (tasks * n)
    slow = loop.probe.slowdown()
    return {
        "setup_s": (setup_s, 1),
        "tasks_per_s": (rate * slow, n, rate),
        "run_ms_p50": (p50 / slow, n, p50),
        "run_ms_p80": (p80 / slow, n, p80),
        "vs_nabbit_ratio": (p50 / (med(r["wall"] for r in ref) * 1e3), len(ref)),
        "cpu_ms_per_task": (cpu / slow, n, cpu),
        "peak_rss_mb": (session.peak_rss_mib(), 1),
    }


def check_repeats(session: Session, loop: Loop) -> None:
    """Counts that must repeat exactly: re-executions on the inline
    workloads (one thread, planned faults -> one schedule)."""
    if session.wl.runtime != "inline":
        return
    for arm, runs in loop.runs.items():
        seen = {r["summary"]["reexecutions"] for r in runs}
        if len(seen) > 1:
            loop.failures.append(f"{arm}: re-execution count varies across runs: {sorted(seen)}")


# ---------------------------------------------------------------------------
# per-layer metrics (trace mode)


def _derive(session: Session, r: dict) -> dict:
    """Per-run layer quantities from one traced run's spans and events."""
    wl = session.wl
    spans = tracing.fold(r["spans"])

    def span(name, field):
        return spans[name][field] if name in spans else 0.0

    root_wall = span("scheduler.run", "total")
    tasks = session.tasks
    run = r["run"]
    d = {"root_wall": root_wall, "report": None}
    if wl.runtime == "inline":
        d["makespan"], d["workers"] = root_wall, 1
        d["core_s"] = span("scheduler.run", "self") + span("runtime.execute", "self")
        tiled = sum(v["self"] for v in spans.values()) - span("store.pin", "self")
        d["coverage"] = tiled / root_wall if root_wall else 0.0
    else:
        report = attribute_run(r["events"], run)
        d["report"] = report
        d["makespan"], d["workers"] = run.makespan, run.workers
        d["core_s"] = report.categories["bookkeeping"] + report.categories["recovery"]
        d["coverage"] = report.coverage
    if wl.remote:
        # Worker-measured phases.  On the cluster runtime the kernel span
        # contains the lazy input fetches the worker waited for.
        phase = {"kernel": [], "fetch": []}
        for e in r["events"]:
            if e.kind is EventKind.SPAN and e.data.get("phase") in phase:
                phase[e.data["phase"]].append(e.data["wall"])
        d["kernel_s"] = sum(phase["kernel"]) - sum(phase["fetch"])
        d["kernel_n"] = len(phase["kernel"])
    else:
        d["kernel_s"], d["kernel_n"] = span("spec.compute", "self"), span("spec.compute", "n")
    d["store_s"] = span("store.read", "total") + span("store.write", "total")
    d["read_us"] = span("store.read", "total") / max(1, span("store.read", "n")) * 1e6
    d["write_us"] = span("store.write", "total") / max(1, span("store.write", "n")) * 1e6
    d["dispatch"] = [s[tracing.T1] - s[tracing.T0] for s in r["spans"]
                     if s[tracing.NAME] == "runtime.compute_dispatch"]
    d["events_per_task"] = len(r["events"]) / tasks if r["events"] is not None else None
    return d


def per_layer(session: Session, loop: Loop, empty_ms: list[float], probed: dict) -> dict:
    wl = session.wl
    traced = loop.runs.get("traced", [])
    if not traced:
        return {}
    tasks = session.tasks
    n = len(traced)
    derived = [r["derived"] for r in traced]
    clean = [r["derived"] for r in loop.runs.get("clean_traced", [])]
    reports = [d["report"] for d in derived if d["report"] is not None]
    m: dict[str, tuple[float, int]] = {}

    def count(name, key):
        m[name] = (med(r["summary"][key] for r in traced), n)

    def share(name, category):
        m[name] = (med(rep.categories[category] / rep.total for rep in reports), len(reports))

    # core
    m["core.bookkeeping_us_per_task"] = (med(d["core_s"] for d in derived) / tasks * 1e6, n)
    recoveries = med(r["summary"]["recoveries"] for r in traced)
    if clean and recoveries:
        extra = med(d["core_s"] for d in derived) - med(d["core_s"] for d in clean)
        m["core.recovery_us_per_fault"] = (extra / recoveries * 1e6, n)
    else:
        m["core.recovery_us_per_fault"] = probes.NOT_APPLICABLE
    count("core.reexec_per_run", "reexecutions")
    count("core.recoveries_per_run", "recoveries")
    count("core.resets_per_run", "resets")
    count("core.notify_reinits_per_run", "notify_reinits")
    count("core.stale_notifications_per_run", "stale_notifications")

    # runtime
    dispatch = sorted(x for d in derived for x in d["dispatch"])
    if dispatch:
        m["runtime.dispatch_ms_p50"] = (med(dispatch) * 1e3, len(dispatch))
        m["runtime.dispatch_ms_p99"] = (dispatch[int(0.99 * (len(dispatch) - 1))] * 1e3,
                                        len(dispatch))
        m["runtime.dispatch_overhead_us_per_task"] = (
            med(rep.dispatch_overhead_mean for rep in reports) * 1e6, len(reports))
    else:
        for name in ("dispatch_ms_p50", "dispatch_ms_p99", "dispatch_overhead_us_per_task"):
            m[f"runtime.{name}"] = probes.NOT_APPLICABLE
    share("runtime.dispatch_share", "dispatch")
    share("runtime.queued_share", "queued")
    share("runtime.steal_park_share", "steal_park")
    share("runtime.bookkeeping_share", "bookkeeping")
    m["runtime.attribution_coverage"] = (med(d["coverage"] for d in derived), n)
    m["runtime.utilization"] = (med(r["run"].utilization for r in traced), n)
    m["runtime.steals_per_run"] = (med(r["run"].steals for r in traced), n)
    m["runtime.failed_steals_per_run"] = (med(r["run"].failed_steals for r in traced), n)
    m["runtime.parks_per_run"] = (med(r["run"].parks for r in traced), n)
    m["runtime.empty_run_ms"] = (med(empty_ms), len(empty_ms))
    m["runtime.worker_crashes_per_run"] = (med(r["crashes"] for r in traced), n)
    crashes = len(session.die_on)
    ft, plain = loop.runs.get("ft", []), loop.runs.get("clean", [])
    if crashes and ft and plain:
        extra = med(r["wall"] for r in ft) - med(r["wall"] for r in plain)
        m["runtime.crash_recovery_ms_per_crash"] = (extra / crashes * 1e3, len(ft))
    else:
        m["runtime.crash_recovery_ms_per_crash"] = probes.NOT_APPLICABLE

    # comm (direct probes)
    m.update(probed)

    # memory
    m["memory.read_us_per_op"] = (med(d["read_us"] for d in derived), n)
    m["memory.write_us_per_op"] = (med(d["write_us"] for d in derived), n)
    m["memory.store_share"] = (med(d["store_s"] / d["root_wall"] for d in derived), n)
    m["memory.reads_per_task"] = (med(r["store"]["reads"] for r in traced) / tasks, n)
    m["memory.evictions_per_run"] = (med(r["store"]["evictions"] for r in traced), n)
    m["memory.overwritten_reads_per_run"] = (
        med(r["store"]["overwritten_reads"] for r in traced), n)
    m["memory.corruptions_marked_per_run"] = (
        med(r["store"]["corruptions_marked"] for r in traced), n)
    m["memory.peak_resident_blocks"] = (med(r["store"]["peak_resident"] for r in traced), n)
    shm = [r["shm"] for r in traced if r["shm"] is not None]
    m["memory.shm_segments_per_run"] = (med(s["segments_created"] for s in shm), len(shm))
    m["memory.shm_bytes_peak"] = (med(s["bytes_peak"] for s in shm), len(shm))

    # apps
    m["apps.kernel_ms_per_task"] = (
        med(d["kernel_s"] / max(1, d["kernel_n"]) for d in derived) * 1e3, n)
    m["apps.kernel_share"] = (
        med(d["kernel_s"] / (d["makespan"] * d["workers"]) for d in derived), n)
    if wl.app == "cholesky":
        flops = session.n ** 3 / 3.0
        m["apps.kernel_gflops_computed"] = (med(flops / d["kernel_s"] for d in derived) / 1e9, n)
    else:
        m["apps.kernel_gflops_computed"] = probes.NOT_APPLICABLE

    # faults
    m["faults.injected_per_run"] = (med(r["fired"] for r in traced), n)
    m["faults.plan_build_ms"] = (session.plan_build_ms, 1 if session.plan is not None else 0)

    # obs
    untraced = loop.runs.get("ft", [])
    m["obs.trace_overhead_ratio"] = (
        med(r["wall"] for r in traced) / med(r["wall"] for r in untraced) if untraced else 0.0,
        n)
    logged = [d["events_per_task"] for d in derived if d["events_per_task"] is not None]
    m["obs.events_per_task"] = (med(logged), len(logged))
    return m


def empty_runs(session: Session, count: int) -> list[float]:
    """Wall of a one-task graph on the workload's runtime kind: the floor
    every run pays for pool spin-up and teardown."""
    wl = session.wl
    if wl.app == "grid":
        spec = grid_graph(1, 1, compute=_noop)
    else:
        block = session.app.config.block
        spec = make_app(wl.app, config=AppConfig(n=block, block=block, seed=session.seed))
    walls = []
    for _ in range(count):
        runtime = session._runtime(None, None, [])
        if wl.app == "grid":
            store = BlockStore()
        else:
            store = spec.make_store(True, shared=wl.runtime == "procpool")
        try:
            t0 = perf_counter()
            FTScheduler(spec, runtime, store=store).run()
            walls.append((perf_counter() - t0) * 1e3)
        finally:
            if hasattr(store, "close"):
                store.close()
    return walls


def direct_probes(session: Session) -> dict:
    """Feed the probes with the workload's own shapes."""
    wl = session.wl
    spec = session.spec
    out = probes.core_probes(session.keys, lambda k: len(tuple(spec.predecessors(k))))
    job_msg = block = None
    if wl.remote:
        # A mid-graph task and what its dispatch ships, read back from a
        # finished run's store.
        store = session.app.make_store(True)
        FTScheduler(spec, InlineRuntime(), store=store).run()
        block = store.read(BlockRef(*tuple(spec.outputs(spec.sink_key()))[0]))
        key = session.keys[len(session.keys) // 2]
        inputs = [BlockRef(*raw) for raw in spec.inputs(key)]
        if wl.runtime == "procpool":
            # Under memory reuse an input version may be gone by the end
            # of the run; any block has its shape.
            job = (1, key, [(r.block, r.version, store.peek(r, block)) for r in inputs], False)
        else:
            job = (1, key, [(r.block, r.version) for r in inputs], False, 1)
        job_msg = ("jobs", [job])
    out.update(probes.codec_probes(job_msg, block))
    transport = {"procpool": "pipe", "cluster": "tcp"}.get(wl.runtime)
    # LCS tiles ride inline in the job message; only the cluster
    # workload ships blocks as messages of their own.
    out.update(probes.transport_probes(transport, block, ships_blocks=wl.runtime == "cluster"))
    return out


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up: one more sample of setup_s")
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="time.time() just before this process was spawned")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)

    shm_before = shm_segments()
    wl = BY_NAME[args.workload]
    session = Session(wl, args.seed, args.quick)
    loop = Loop(session)
    loop.keep_spans = args.trace_out is not None
    faulted = bool(wl.fault_fraction or wl.crashes)
    metrics: dict = {}
    try:
        if args.trace == 0:
            arms = ["ft", "ref"]
            pattern = ["ft", "ft", "ref", PROBE, "ft", "ft", "ft", "ref", PROBE]
            floor = {"ft": FT_RUNS, "ref": REF_RUNS}
            HostProbe().sample()  # warm-up, discarded with the other warm-ups
            loop.probe = HostProbe()
        else:
            arms = ["ft", "traced"] + (["clean", "clean_traced"] if faulted else [])
            pattern = arms
            floor = {"traced": 8}
        for arm in arms:
            for _ in range(WARMUP_RUNS):
                loop.once(arm, record=False)
        setup_s = time.time() - spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "failures": loop.failures}))
            return 1 if loop.failures else 0
        if args.quick:
            floor = {arm: QUICK_RUNS[arm] for arm in arms}
            floor[PROBE] = 1
        if args.trace == 0:
            loop.measure(pattern, 0.0 if args.quick else args.seconds, floor)
            check_repeats(session, loop)
            metrics = end_to_end(session, loop, setup_s)
        else:
            loop.measure(pattern, 0.0 if args.quick else 0.6 * args.seconds, floor)
            check_repeats(session, loop)
            empty_ms = empty_runs(session, 2 if args.quick else 5)
            metrics = per_layer(session, loop, empty_ms, direct_probes(session))
    finally:
        session.close()
    if multiprocessing.active_children():
        loop.failures.append(f"leak: live child processes {multiprocessing.active_children()}")
    leaked = shm_segments() - shm_before
    if leaked:
        loop.failures.append(f"leak: shared-memory segments left behind {sorted(leaked)}")
    if args.trace_out:
        tracing.write_jsonl(args.trace_out, loop.kept_spans)
    print(json.dumps({
        "workload": wl.name,
        "tasks": session.tasks,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures,
        "runs": {arm: len(runs) for arm, runs in loop.runs.items()},
        "host_slowdown": loop.probe.slowdown() if loop.probe is not None and metrics else None,
        "host_probe_ms": {part: med(v) * 1e3 for part, v in loop.probe.samples.items()}
        if loop.probe is not None else None,
        "metrics": {name: dict(zip(("value", "n", "raw"), entry))
                    for name, entry in metrics.items()},
    }))
    return 1 if loop.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
