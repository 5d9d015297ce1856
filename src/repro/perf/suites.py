"""The benchmark catalogue: the micro cells no end-to-end workload isolates.

End-to-end throughput is measured by ``benchmarks/e2e`` (its workloads
and per-layer probes, run in alternating pairs by
``benchmarks/pairs.py``).  This catalogue times the layers underneath
one at a time, mirroring the hot-path inventory in
docs/PERFORMANCE.md, so a regression the end-to-end numbers show can be
located:

* ``structs`` -- the shared concurrent structures every scheduler
  operation funnels through: :class:`~repro.core.taskmap.TaskMap`
  insert/get, :class:`~repro.core.recovery_table.RecoveryTable` claims,
  incarnation replacement (the "recover" op), and the notification
  bit-vector protocol on a :class:`~repro.core.records.TaskRecord`.
* ``scheduler`` -- whole-scheduler throughput on a no-op-compute grid
  graph, where bookkeeping *is* the workload: with tracing off (the
  number the paper's <5% overhead claim lives or dies by) and with a
  live :class:`~repro.obs.events.EventLog` attached.
* ``simulator`` -- the discrete-event loop's events/sec (every figure
  harness executes it millions of times).
* ``obs`` -- the live-telemetry layer (:mod:`repro.obs.live`): push
  instrument costs (``Counter.inc``, ``Histogram.observe``), the cached
  ``_mx`` guard a telemetry-off run pays per would-be publication, and
  a full ``registry.collect()`` sampler tick.
* ``comm`` -- the wire layer under :class:`~repro.runtime.cluster.
  ClusterRuntime`: the frame codec's encode/decode round trip at small
  and block-sized payloads, and ping-pong RTT over ``inproc://`` and
  localhost ``tcp://`` (the latency floor every remote dispatch pays).
* ``finegrain`` -- a bare ``compute_dispatch`` microbenchmark against a
  persistent one-process pool, whose inverse score is the ms/job wire
  floor under every fine-grain task.

Scales: ``default`` produces the BENCH numbers; ``selftest`` shrinks
every workload so the whole suite (and CI) finishes in seconds.
"""

from __future__ import annotations

import gc
import itertools
from typing import Callable, Sequence

from repro.perf.bench import Benchmark

#: Unique inproc endpoint names across repeated benchmark ``make()`` calls.
_RTT_IDS = itertools.count()

# ---------------------------------------------------------------------------
# workload builders


def _noop_grid_spec(n: int):
    """An n x n dependence grid (LCS-shaped) whose tasks write one block
    and compute nothing: scheduler bookkeeping dominates by design."""
    from repro.graph.explicit import ExplicitTaskGraph
    from repro.graph.taskspec import BlockRef

    def noop(key, ctx):
        ctx.write(BlockRef(key, 0), 0)

    edges = []
    for i in range(n):
        for j in range(n):
            if i:
                edges.append(((i - 1, j), (i, j)))
            if j:
                edges.append(((i, j - 1), (i, j)))
    return ExplicitTaskGraph(edges, compute=noop)


def _spawn_tree_root(runtime, depth: int):
    """Binary spawn tree of trivial frames: the simulator loop's pure
    overhead, undiluted by scheduler or kernel work."""
    from repro.runtime.frames import Frame

    def node(d):
        if d <= 0:
            return
        runtime.spawn(lambda: node(d - 1))
        runtime.spawn(lambda: node(d - 1))

    return Frame(lambda: node(depth))


# ---------------------------------------------------------------------------
# structs


def _bench_taskmap_insert(n_keys: int) -> Callable[[], Callable[[], int]]:
    def make():
        from repro.core.taskmap import TaskMap

        tm = TaskMap(lambda k: 2)
        keys = list(range(n_keys))

        def batch() -> int:
            insert = tm.insert_if_absent
            for key in keys:
                insert(key)  # miss: allocates the record
            for key in keys:
                insert(key)  # hit: the common re-traversal case
            return 2 * n_keys

        return batch

    return make


def _bench_taskmap_get(n_keys: int, rounds: int) -> Callable[[], Callable[[], int]]:
    def make():
        from repro.core.taskmap import TaskMap

        tm = TaskMap(lambda k: 2)
        keys = list(range(n_keys))
        for key in keys:
            tm.insert_if_absent(key)

        def batch() -> int:
            get = tm.get
            for _ in range(rounds):
                for key in keys:
                    get(key)
            return rounds * n_keys

        return batch

    return make


def _bench_recovery_claim(n_keys: int, lives: int) -> Callable[[], Callable[[], int]]:
    def make():
        from repro.core.recovery_table import RecoveryTable

        def batch() -> int:
            table = RecoveryTable()
            claim = table.check_and_claim
            for life in range(1, lives + 1):
                for key in range(n_keys):
                    claim(key, life)
                    claim(key, life)  # duplicate observer standing down
            return 2 * n_keys * lives

        return batch

    return make


def _bench_recovery_replace(n_keys: int, lives: int) -> Callable[[], Callable[[], int]]:
    """The RECOVERTASKONCE structure op: claim the failure, then install
    a fresh incarnation (the paper's REPLACETASK)."""

    def make():
        from repro.core.recovery_table import RecoveryTable
        from repro.core.taskmap import TaskMap

        tm = TaskMap(lambda k: 2)
        for key in range(n_keys):
            tm.insert_if_absent(key)

        def batch() -> int:
            table = RecoveryTable()
            for life in range(1, lives + 1):
                for key in range(n_keys):
                    if table.check_and_claim(key, life):
                        tm.replace(key)
            return n_keys * lives

        return batch

    return make


def _bench_notify_bits(n_preds: int, rounds: int) -> Callable[[], Callable[[], int]]:
    def make():
        from repro.core.records import TaskRecord

        rec = TaskRecord("k", n_preds)

        def batch() -> int:
            lock = rec.lock
            unset = rec.try_unset_bit
            for _ in range(rounds):
                for bit in range(n_preds + 1):
                    with lock:
                        unset(bit)
                with lock:
                    rec.reset_for_reuse()
            return rounds * (n_preds + 1)

        return batch

    return make


# ---------------------------------------------------------------------------
# scheduler / simulator / dispatch


def _bench_sched(n: int, traced: bool, cold: bool = False) -> Callable[[], Callable[[], int]]:
    """``cold`` builds a fresh spec per batch (in ``make``, untimed), so
    the batch also compiles every task's plan: the run-once user's cost."""
    shared = None if cold else _noop_grid_spec(n)

    def make():
        from repro.core.ft import FTScheduler
        from repro.obs.events import EventLog
        from repro.runtime.inline import InlineRuntime

        log = EventLog() if traced else None
        spec = shared
        if spec is None:
            spec = _noop_grid_spec(n)
            gc.collect()  # the edge lists above are not the batch's garbage

        def batch() -> int:
            sched = FTScheduler(spec, InlineRuntime(), event_log=log)
            sched.run()
            return sched.trace.total_computes

        return batch

    return make


def _bench_simulator(depth: int, workers: int) -> Callable[[], Callable[[], int]]:
    def make():
        from repro.runtime.simulator import SimulatedRuntime

        def batch() -> int:
            rt = SimulatedRuntime(workers=workers, seed=1)
            return rt.execute(_spawn_tree_root(rt, depth)).frames

        return batch

    return make


class _NoopDispatchSpec:
    """Module-level (hence picklable) spec with no inputs and a trivial
    compute: a dispatched job is pure round-trip overhead."""

    def inputs(self, key):
        return []

    def compute(self, key, ctx):
        ctx.write(("out", 0), key)


def _bench_dispatch_overhead(n_jobs: int) -> Callable[[], Callable[[], int]]:
    """Bare ``compute_dispatch`` round trips against a persistent one-
    process pool: no scheduler, no inputs, no kernel -- the per-job cost
    of the pipelined wire path itself (jid framing, batch pack/unpack,
    reply routing, the one-block write-back).  The inverse of this score
    is the ms/task floor every fine-grain task pays per dispatch."""

    def make():
        from repro.memory.blockstore import BlockStore
        from repro.memory.context import StoreComputeContext
        from repro.runtime.procpool import ProcessRuntime

        rt = ProcessRuntime(workers=1, seed=1, procs=1)
        rt._ensure_pool()
        spec = _NoopDispatchSpec()
        ctx = StoreComputeContext(spec, BlockStore(), -1, strict=False,
                                  footprint=(frozenset(), frozenset()))
        rt.compute_dispatch(spec, -1, ctx)  # ship the spec; warm the pipe
        # The pool is deliberately not torn down per batch: steady-state
        # dispatch is the measurand.  Workers are daemonic; the handful
        # of sample pools die with the benchmark process.

        def batch() -> int:
            dispatch = rt.compute_dispatch
            for i in range(n_jobs):
                dispatch(spec, i, ctx)
            return n_jobs

        return batch

    return make


def _bench_metrics_counter(n: int) -> Callable[[], Callable[[], int]]:
    def make():
        from repro.obs.live import MetricsRegistry

        counter = MetricsRegistry().counter("bench_total", "emit-cost probe")

        def batch() -> int:
            inc = counter.inc
            for _ in range(n):
                inc()
            return n

        return batch

    return make


def _bench_metrics_histogram(n: int) -> Callable[[], Callable[[], int]]:
    def make():
        from repro.obs.live import MetricsRegistry

        hist = MetricsRegistry().histogram("bench_seconds", "emit-cost probe")

        def batch() -> int:
            observe = hist.observe
            for _ in range(n):
                observe(1.3e-4)
            return n

        return batch

    return make


def _bench_metrics_off_guard(n: int) -> Callable[[], Callable[[], int]]:
    """The telemetry-off hot path: the cached ``_mx`` identity-guard test
    that every would-be publication pays when metrics are disabled."""

    def make():
        from repro.obs.live import NULL_METRICS

        registry = NULL_METRICS
        mx = registry is not NULL_METRICS
        counter = registry.counter("bench_total", "never incremented")

        def batch() -> int:
            for _ in range(n):
                if mx:
                    counter.inc()
            return n

        return batch

    return make


def _bench_registry_collect(instruments: int, rounds: int) -> Callable[[], Callable[[], int]]:
    """One collector tick over a realistically populated registry."""

    def make():
        from repro.obs.live import MetricsRegistry

        reg = MetricsRegistry()
        state = {"v": 0.0}
        for i in range(instruments):
            reg.counter("bench_total", "probe", idx=i).inc()
            reg.callback_gauge("bench_gauge", lambda: state["v"], "probe", idx=i)
        hist = reg.histogram("bench_seconds", "probe")
        hist.observe(1e-4)

        def batch() -> int:
            samples = 0
            for _ in range(rounds):
                samples += len(reg.collect())
            return samples

        return batch

    return make


# ---------------------------------------------------------------------------
# comm: the wire layer under ClusterRuntime


def _bench_frame_codec(n_msgs: int, payload_bytes: int) -> Callable[[], Callable[[], int]]:
    """Full wire path in-process: dumps -> pack -> FrameDecoder -> loads.
    This is the per-message CPU cost every cluster dispatch pays twice
    (job out, reply back), with no socket in the way."""

    def make():
        from repro.comm import frame

        msg = ("job", (7, 7), [(("tile", 7, 7), 3)], False, 0, b"x" * payload_bytes)

        def batch() -> int:
            decoder = frame.FrameDecoder()
            feed = decoder.feed
            next_frame = decoder.next_frame
            loads = frame.loads
            encode = frame.encode_message
            for _ in range(n_msgs):
                feed(encode(msg))
                loads(next_frame())
            return n_msgs

        return batch

    return make


def _bench_comm_rtt(scheme: str, n_msgs: int) -> Callable[[], Callable[[], int]]:
    """Ping-pong round trips over a live connection: the latency floor
    under every ClusterRuntime dispatch on this transport."""

    def make():
        from repro import comm

        def echo(c):
            while True:
                try:
                    c.send(c.recv())
                except comm.CommClosedError:
                    return

        if scheme == "tcp":
            addr = "tcp://127.0.0.1:0"
        else:
            addr = f"inproc://perf-rtt-{next(_RTT_IDS)}"
        listener = comm.listen(addr, echo)
        chan = comm.connect(listener.address)
        msg = ("ping", (3, 3), [("b", 0)])

        def batch() -> int:
            send = chan.send
            recv = chan.recv
            for _ in range(n_msgs):
                send(msg)
                recv(timeout=30)
            return n_msgs

        return batch

    return make


def _bench_block_ship(
    scheme: str, payload_bytes: int, n_msgs: int, oob: bool = True
) -> Callable[[], Callable[[], int]]:
    """One-way block shipping over a live connection: ``send_oob`` on the
    zero-copy data plane, or plain ``send`` for the copying baseline the
    OOB speedup is measured against.  A sync ping-pong after the burst
    makes the receiver's decode cost part of the measurement."""

    def make():
        import numpy as np

        from repro import comm

        def sink(c):
            while True:
                try:
                    msg = c.recv()
                except comm.CommClosedError:
                    return
                if isinstance(msg, tuple) and msg[0] == "sync":
                    c.send(("ack",))

        if scheme == "tcp":
            addr = "tcp://127.0.0.1:0"
        else:
            addr = f"inproc://perf-ship-{next(_RTT_IDS)}"
        listener = comm.listen(addr, sink)
        chan = comm.connect(listener.address)
        arr = np.arange(payload_bytes // 8, dtype=np.float64)
        send = chan.send_oob if oob else chan.send

        def batch() -> int:
            for _ in range(n_msgs):
                send(("blk", arr))
            chan.send(("sync",))
            chan.recv(timeout=60)
            return n_msgs

        return batch

    return make


def _bench_fetch_rtt(scheme: str, payload_bytes: int, n_msgs: int) -> Callable[[], Callable[[], int]]:
    """Block-fetch round trips: a tiny request out, a block-sized
    ``send_oob`` reply back -- the shape of every worker cache miss."""

    def make():
        import numpy as np

        from repro import comm

        def server(c):
            arr = np.arange(payload_bytes // 8, dtype=np.float64)
            while True:
                try:
                    c.recv()
                except comm.CommClosedError:
                    return
                c.send_oob(("data", arr))

        if scheme == "tcp":
            addr = "tcp://127.0.0.1:0"
        else:
            addr = f"inproc://perf-fetch-{next(_RTT_IDS)}"
        listener = comm.listen(addr, server)
        chan = comm.connect(listener.address)

        def batch() -> int:
            send = chan.send
            recv = chan.recv
            for _ in range(n_msgs):
                send(("fetch", "b"))
                recv(timeout=60)
            return n_msgs

        return batch

    return make


# ---------------------------------------------------------------------------
# the suite


def benchmarks(scale: str = "default") -> list[Benchmark]:
    """The full catalogue at ``scale`` ('default' or 'selftest')."""
    if scale not in ("default", "selftest"):
        raise ValueError(f"unknown perf scale {scale!r}")
    tiny = scale == "selftest"
    grid = 10 if tiny else 32
    depth = 8 if tiny else 14
    keys = 512 if tiny else 4096
    rounds = 2 if tiny else 8

    return [
        Benchmark(
            "taskmap_insert", "structs", _bench_taskmap_insert(keys),
            description="TaskMap.insert_if_absent, one miss + one hit per key",
        ),
        Benchmark(
            "taskmap_get", "structs", _bench_taskmap_get(keys, rounds),
            description="TaskMap.get over resident keys (the read-only hot path)",
        ),
        Benchmark(
            "recovery_claim", "structs", _bench_recovery_claim(keys // 4, 3),
            description="RecoveryTable.check_and_claim, winner + duplicate per (key, life)",
        ),
        Benchmark(
            "recovery_replace", "structs", _bench_recovery_replace(keys // 8, 3),
            description="claim + TaskMap.replace: the recover structure op",
        ),
        Benchmark(
            "notify_bits", "structs", _bench_notify_bits(12, 64 if tiny else 512),
            description="locked ATOMICBITUNSET sweep + re-arm on one TaskRecord",
        ),
        Benchmark(
            "sched_tasks_per_sec_tracing_off", "scheduler", _bench_sched(grid, traced=False),
            unit="tasks/s",
            description="FTScheduler + InlineRuntime on a no-op grid, NULL_LOG",
        ),
        Benchmark(
            "sched_tasks_per_sec_cold_spec", "scheduler",
            _bench_sched(grid, traced=False, cold=True),
            unit="tasks/s",
            description="same, but every batch gets a fresh spec: plan compilation included",
        ),
        Benchmark(
            "sched_tasks_per_sec_traced", "scheduler", _bench_sched(grid, traced=True),
            unit="tasks/s",
            description="same grid with a live EventLog attached",
        ),
        Benchmark(
            "sim_events_per_sec", "simulator", _bench_simulator(depth, 8),
            unit="frames/s",
            description="SimulatedRuntime inner loop on a trivial binary spawn tree",
        ),
        Benchmark(
            "sim_park_storm", "simulator", _bench_simulator(max(4, depth - 4), 32),
            unit="frames/s",
            description="32 workers on a shallow tree: park/unpark and steal-probe storms",
        ),
        Benchmark(
            "metrics_counter_inc", "obs", _bench_metrics_counter(keys * 4),
            description="Counter.inc: the locked push-instrument fast path",
        ),
        Benchmark(
            "metrics_histogram_observe", "obs", _bench_metrics_histogram(keys * 4),
            description="Histogram.observe: bisect + locked bucket bump",
        ),
        Benchmark(
            "metrics_off_guard", "obs", _bench_metrics_off_guard(keys * 8),
            description="cached _mx guard with NULL_METRICS: the telemetry-off cost",
        ),
        Benchmark(
            "metrics_registry_collect", "obs",
            _bench_registry_collect(8 if tiny else 32, rounds),
            description="registry.collect() ticks over counters, callback gauges, a histogram",
        ),
        Benchmark(
            "frame_codec_small", "comm",
            _bench_frame_codec(256 if tiny else 4096, 64),
            unit="msgs/s",
            description="frame codec round trip (64 B payload): per-dispatch CPU cost",
        ),
        Benchmark(
            "frame_codec_64k", "comm",
            _bench_frame_codec(64 if tiny else 1024, 1 << 16),
            unit="msgs/s",
            description="frame codec round trip with a 64 KiB block payload",
        ),
        Benchmark(
            "comm_rtt_inproc", "comm",
            _bench_comm_rtt("inproc", 128 if tiny else 2048),
            unit="msgs/s",
            description="ping-pong RTT over inproc://: codec + queue handoff floor",
        ),
        Benchmark(
            "comm_rtt_tcp", "comm",
            _bench_comm_rtt("tcp", 64 if tiny else 1024),
            unit="msgs/s",
            description="ping-pong RTT over localhost tcp://: the cluster dispatch floor",
        ),
        Benchmark(
            "block_ship_plain_1m_inproc", "comm",
            _bench_block_ship("inproc", 1 << 20, 4 if tiny else 128, oob=False),
            unit="blocks/s",
            description="1 MiB blocks one-way via plain send: the copying baseline for the OOB speedup",
        ),
        Benchmark(
            "block_ship_64k_inproc", "comm",
            _bench_block_ship("inproc", 1 << 16, 16 if tiny else 512),
            unit="blocks/s",
            description="64 KiB blocks one-way over inproc:// via send_oob",
        ),
        Benchmark(
            "block_ship_1m_inproc", "comm",
            _bench_block_ship("inproc", 1 << 20, 4 if tiny else 128),
            unit="blocks/s",
            description="1 MiB blocks one-way over inproc:// via send_oob (zero-copy alias)",
        ),
        Benchmark(
            "block_ship_16m_inproc", "comm",
            _bench_block_ship("inproc", 16 << 20, 2 if tiny else 16),
            unit="blocks/s",
            description="16 MiB blocks one-way over inproc:// via send_oob",
        ),
        Benchmark(
            "block_ship_64k_tcp", "comm",
            _bench_block_ship("tcp", 1 << 16, 16 if tiny else 256),
            unit="blocks/s",
            description="64 KiB blocks one-way over localhost tcp:// via send_oob",
        ),
        Benchmark(
            "block_ship_1m_tcp", "comm",
            _bench_block_ship("tcp", 1 << 20, 4 if tiny else 64),
            unit="blocks/s",
            description="1 MiB blocks one-way over localhost tcp://: gather-send + pooled recv_into",
        ),
        Benchmark(
            "block_ship_16m_tcp", "comm",
            _bench_block_ship("tcp", 16 << 20, 2 if tiny else 8),
            unit="blocks/s",
            description="16 MiB blocks one-way over localhost tcp:// via send_oob",
        ),
        Benchmark(
            "fetch_rtt_1m_inproc", "comm",
            _bench_fetch_rtt("inproc", 1 << 20, 4 if tiny else 64),
            unit="msgs/s",
            description="1 MiB block-fetch RTT over inproc://: the worker cache-miss shape",
        ),
        Benchmark(
            "fetch_rtt_1m_tcp", "comm",
            _bench_fetch_rtt("tcp", 1 << 20, 4 if tiny else 32),
            unit="msgs/s",
            description="1 MiB block-fetch RTT over localhost tcp://",
        ),
        Benchmark(
            "dispatch_overhead", "finegrain",
            _bench_dispatch_overhead(64 if tiny else 512),
            unit="jobs/s",
            description="bare compute_dispatch round trips on a persistent 1-proc pool",
        ),
    ]


#: Every cell's name, the same at both scales: the catalogue a baseline
#: is gated against (importing this module never imports app code).
SUITE: tuple[str, ...] = tuple(b.name for b in benchmarks("selftest"))


def groups(benches: Sequence[Benchmark]) -> dict[str, list[Benchmark]]:
    out: dict[str, list[Benchmark]] = {}
    for b in benches:
        out.setdefault(b.group, []).append(b)
    return out
