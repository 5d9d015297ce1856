"""Per-task cost ledger, FT vs NABBIT, on the warm no-op 48x48 grid,
per-tile call counts of the wavefront kernels, per-operation counts of
the simulator loop and the telemetry instruments, and the parent's cost
of one remote job.

    PYTHONPATH=src python benchmarks/ledger.py [rows cols]
    PYTHONPATH=src python benchmarks/ledger.py --check

Regenerates the table in docs/PERFORMANCE.md section 2.  Counts are
exact and host-independent (``cProfile`` call counts over one run on
``InlineRuntime``, divided by the task count); only the last column is a
timing (best of 15 unprofiled runs).  The ``traced`` rows run the same
schedulers with a live ``EventLog``: the bill for watching, as a count
of calls and of log records per task (``len(log)``: a task incarnation
is one record, however many events it decodes to).  The ``ft cold``
row runs FT on a fresh spec, so it also counts compiling every task's
plan (``spec.plans``): the run-once user's cost.  The ``obs/live.py``
column counts calls into the live-telemetry module; no row enables
metrics, so it must read 0 (the telemetry-off cost is a cached ``is``
test, no call).  The kernel rows profile one ``lcs_block``/``sw_block``
call on a random b x b tile: the Python-level calls it makes, which
grow with the number of vectorized sweeps.  The per-op rows count
``SimulatedRuntime(seed=1)`` per frame on a binary spawn tree of trivial
frames (``sim tree``: depth 14 on 8 workers; ``sim storm``: depth 10 on
32, a park/unpark and steal-probe storm), and the ``obs.live``
instruments per operation (``Counter.inc``, ``Histogram.observe``) and
per sample (``registry.collect`` over 32 counters, 32 callback gauges
and a histogram).  The remote rows count what the parent's scheduler
thread does per remote job, from ``compute_dispatch`` down
(``sys.setprofile`` on that thread only, so the worker's side is not in
them): calls and lock exits, split into the layers a job passes
through, and calls into ``obs/live.py`` (which must be 0).  ``procpool
lcs`` is ``ProcessRuntime(workers=1)`` on the ``lcs_procpool`` graph
(LCS n = 88, b = 8) over a shared store; ``cluster inproc grid`` is ``ClusterRuntime``
over an ``inproc://`` worker server on the no-op 48x48 grid.  The
fault row ``ft lu faults`` prices recovery: FT on the ``lu_inline_faults``
configuration, run clean and faulted, with the difference in calls
and lock exits divided by the re-executed tasks, and the faulted
run's recovery counts pinned.  Point PYTHONPATH at another checkout's
``src`` to get that revision's ledger.

``--check`` is the gate tier-1 and CI run: counts only (no timing
column), exit status 1 if any is over its ceiling or a pinned
recovery count moved.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import threading
import time
from collections import Counter

import numpy as np

from repro import BlockRef, BlockStore, EventLog, FTScheduler, NabbitScheduler, grid_graph
from repro.apps import AppConfig, make_app
from repro.apps.kernels import lcs_block, sw_block
from repro.faults import FaultInjector, plan_faults
from repro.obs.live import MetricsRegistry
from repro.runtime import (
    ClusterRuntime, InlineRuntime, ProcessRuntime, SimulatedRuntime, WorkerServer,
)
from repro.runtime.tracing import ExecutionTrace

#: Calls into this module are the telemetry-on cost; with metrics off
#: (every row here) they must be 0.
LIVE = "obs/live.py"

#: Ledger column -> the profiled functions it sums ((file suffix, name);
#: an empty suffix matches builtins by name, a None name every function).
COLUMNS = {
    "lock acq": [("", "<method '__exit__' of '_thread.lock' objects>")],
    "spec calls": [("explicit.py", n) for n in ("predecessors", "successors", "producer")]
    + [("taskspec.py", n) for n in ("inputs", "outputs")],
    "map.get/_stale": [("taskmap.py", "get"), ("ft.py", "_stale")],
    "bit calls": [("records.py", "try_unset_bit"), ("taskspec.py", "pred_index")],
    "BlockRef()": [("<string>", "<lambda>")],
    LIVE: [(LIVE, None)],
}


#: Ledger row -> (scheduler, runs with a live EventLog, runs on a fresh spec).
ROWS = {
    "ft": (FTScheduler, False, False),
    "nabbit": (NabbitScheduler, False, False),
    "ft traced": (FTScheduler, True, False),
    "nabbit traced": (NabbitScheduler, True, False),
    "ft cold": (FTScheduler, False, True),
}

#: ``--check`` ceilings, profiled calls per task on the 48x48 grid: each
#: row's own, and FT's untraced surcharge over the baseline; a traced row
#: may also write at most MAX_RECORDS records per task (one per task
#: incarnation: a lifecycle phase written as its own record fails it),
#: and cost at most MAX_SURCHARGE calls per task over its untraced row.
#: That surcharge reads 17.01: three calls per stamped phase
#: (``next(seq)``, the clock, the worker) for four phases and five for
#: the handoff (the log's sink, ``rec.put`` and the completion stamp); a
#: source rides the record as a tuple concatenation, no call, and the
#: log's construction and binding add the 0.01.  The columns in
#: ZERO_GAP must read the same for both (FT adds no lock acquisition and
#: neither scheduler calls back into the spec or the bit helpers).  The
#: call ceilings sit ~0.6 above the reading (97.72 / 85.12 untraced,
#: 114.73 / 102.13 traced), so one more Python call per spawned frame
#: (5.92 per task) fails every row.  The cold row reads 126.23: building
#: the plans costs 28.51 calls per task on top of the warm run (the
#: plan's ``len(outputs)`` is the count the compute context checks, so
#: a warm compute makes no call for its missing-output check).
MAX_CALLS = {
    "ft": 98.3, "nabbit": 85.7, "ft traced": 115.3, "nabbit traced": 102.7, "ft cold": 126.8,
}
MAX_RECORDS = 1.0
MAX_SURCHARGE = 17.6
MAX_GAP = 13.1
ZERO_GAP = ("lock acq", "spec calls", "bit calls")

#: Kernel rows: (kernel, tile side b) -> ``--check`` ceiling in profiled
#: calls per tile.  A row scan makes one ``accumulate`` per DP row plus a
#: fixed handful (LCS 15 at b = 8, 71 at b = 64; SW 21 and 77); a sweep
#: over the 2b - 1 anti-diagonals makes about four per diagonal (LCS 67
#: and 515).  The slack of one absorbs a numpy wrapper, never a call per row.
KERNELS = {"lcs_block": lcs_block, "sw_block": sw_block}
MAX_KERNEL_CALLS = {
    ("lcs_block", 8): 16, ("lcs_block", 64): 72, ("sw_block", 8): 22, ("sw_block", 64): 78,
}

#: Per-op rows: name -> (what one operation is, its reading in profiled
#: calls per operation).  The ``--check`` ceiling is the reading plus
#: OP_SLACK, so one more call per frame, instrument call or sample fails.
OP_READING = {
    "sim tree": ("frame", 8.56),
    "sim storm": ("frame", 13.89),
    "Counter.inc": ("op", 2.00),
    "Histogram.observe": ("op", 3.00),
    "registry.collect": ("sample", 5.01),
}
OP_SLACK = 0.5
MAX_OP_CALLS = {name: reading + OP_SLACK for name, (_, reading) in OP_READING.items()}
#: (depth, workers) of the simulator rows' spawn trees.
SIM_TREES = {"sim tree": (14, 8), "sim storm": (10, 32)}
#: Operations per instrument row.
INSTRUMENT_OPS = 4096


#: Remote rows: the layers of one job, in the order it meets them.  A
#: call made from one of OWN_FRAMES opens the layer LAYERS names for its
#: callee (``read``: the fault gate; ``load``: the reply's decode; the
#: store and residency-table calls after it: the write-back), and every
#: call beneath it counts there; anything else is the frames' ``own``.
#: (``_flush_channel`` is the send path's name before the flusher role,
#: so an older checkout's ledger splits the same way.)
OWN_FRAMES = ("compute_dispatch", "_dispatch_job")
LAYERS = {
    "<dictcomp>": "gate", "read": "gate",
    "acquire": "place", "release": "place",
    "stage": "stage",
    "_flush": "send", "_flush_channel": "send",
    "_await_pipelined": "await",
    "load": "decode",
    "write": "write-back", "peek": "write-back", "put": "write-back",
}
LAYER_NAMES = ("gate", "place", "stage", "send", "await", "decode", "write-back", "own")
#: What the remote rows count per layer: calls, lock exits, calls into LIVE.
REMOTE_KINDS = ("calls", "locks", "live")
LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))

#: Remote rows' reading per job, (calls, lock exits), and the ``--check``
#: ceilings: the reading plus REMOTE_SLACK, so one more lock exit per job
#: fails.  The first committed reading was 228.29 / 23.30 (procpool lcs)
#: and 194.85 / 21.83 (cluster inproc grid).
REMOTE_READING = {"procpool lcs": (111.52, 10.65), "cluster inproc grid": (100.62, 10.92)}
REMOTE_SLACK = 0.5
MAX_REMOTE = {
    name: (calls + REMOTE_SLACK, locks + REMOTE_SLACK)
    for name, (calls, locks) in REMOTE_READING.items()
}


#: The fault row: FT on the ``lu_inline_faults`` configuration of
#: benchmarks/e2e (LU n = 224, b = 16, ``plan_faults(after_notify,
#: v=rand, 0.20)`` at FAULT_SEED, InlineRuntime), warm, run clean and
#: faulted.  What recovery costs is the difference, per re-executed
#: task: (faulted - clean) / reexecutions, in profiled calls and in lock
#: exits, beside the clean run's calls per task.  FAULT_COUNTS are the
#: recovery counts of the faulted run, pinned at FAULT_READING: a change
#: that moves one changes what recovery does, not what it costs.
FAULT_ROW = "ft lu faults"
FAULT_SEED = 1234
FAULT_COUNTS = (
    "reexecutions", "recoveries", "resets", "notify_reinits", "stale_notifications",
    "stale_frames",
)
FAULT_READING = dict(zip(FAULT_COUNTS, (254, 206, 48, 206, 0, 0)))
MAX_FAULT = {"calls": 170.0, "lock exits": 17.0}


def _noop(key, ctx):
    ctx.write(BlockRef(key, 0), 0)


def _profiled(fn, *args):
    """``fn(*args)`` under cProfile: its result and its pstats table,
    (file, line, name) -> (cc, nc, tt, ct, callers)."""
    prof = cProfile.Profile()
    result = prof.runcall(fn, *args)
    return result, pstats.Stats(prof).stats


def _calls(stats) -> int:
    return sum(v[1] for v in stats.values())


def _column(stats, column: str) -> int:
    """The calls of the functions COLUMNS sums for ``column``."""
    return sum(
        v[1] for (path, _, name), v in stats.items()
        if any(path.endswith(suffix) and fn in (None, name) for suffix, fn in COLUMNS[column])
    )


def ledger(scheduler, rows: int, cols: int, timed: bool = True, traced: bool = False,
           cold: bool = False) -> dict[str, float]:
    warm = grid_graph(rows, cols, compute=_noop)
    tasks = rows * cols

    def next_spec():
        return grid_graph(rows, cols, compute=_noop) if cold else warm

    def run(spec):
        log = EventLog() if traced else None
        scheduler(spec, InlineRuntime(), store=BlockStore(), event_log=log).run()
        return log

    run(warm)  # warm: plans built, caches filled
    log, stats = _profiled(run, next_spec())
    row = {"calls": _calls(stats) / tasks}
    for column in COLUMNS:
        row[column] = _column(stats, column) / tasks
    row["records"] = len(log) / tasks if traced else 0.0
    if timed:
        row["us"] = min(_timed(run, next_spec()) for _ in range(15)) / tasks * 1e6
    return row


def task_rows(rows: int, cols: int, timed: bool = True) -> dict[str, dict[str, float]]:
    """Every ROWS row on the rows x cols grid."""
    return {
        name: ledger(sched, rows, cols, timed=timed, traced=traced, cold=cold)
        for name, (sched, traced, cold) in ROWS.items()
    }


def fault_ledger() -> dict[str, float]:
    """The fault row: calls and lock exits per re-executed task, the
    clean run's calls per task, and the faulted run's FAULT_COUNTS."""
    app = make_app("lu", config=AppConfig(n=224, block=16, seed=FAULT_SEED))
    plan = plan_faults(app, phase="after_notify", task_type="v=rand", fraction=0.20,
                       seed=FAULT_SEED)

    def profiled(faulted: bool):
        store, trace = app.make_store(True), ExecutionTrace()
        hooks = FaultInjector(plan, app, store, trace) if faulted else None
        _, stats = _profiled(
            FTScheduler(app, InlineRuntime(), store=store, hooks=hooks, trace=trace).run)
        return trace.summary(), _calls(stats), _column(stats, "lock acq")

    FTScheduler(app, InlineRuntime(), store=app.make_store(True)).run()  # warm: plans built
    (clean, calls, locks), (faulted, fcalls, flocks) = profiled(False), profiled(True)
    reexecuted = faulted["reexecutions"]
    return {
        "calls": (fcalls - calls) / reexecuted,
        "lock exits": (flocks - locks) / reexecuted,
        "clean calls": calls / clean["tasks_computed"],
        **{count: faulted[count] for count in FAULT_COUNTS},
    }


def fault_over_budget(row: dict[str, float]) -> list[str]:
    """The fault row's ``--check`` verdict: one line per ceiling exceeded
    or recovery count moved."""
    failures = [
        f"{FAULT_ROW}: {row[column]:.2f} {column} per re-executed task > {limit}"
        for column, limit in MAX_FAULT.items() if row[column] > limit
    ]
    return failures + [
        f"{FAULT_ROW}: {count} {row[count]} != {reading}"
        for count, reading in FAULT_READING.items() if row[count] != reading
    ]


def _timed(run, spec) -> float:
    t0 = time.perf_counter()
    run(spec)
    return time.perf_counter() - t0


def _spawn_tree(runtime, depth: int):
    """A binary spawn tree of trivial frames: the simulator loop's own
    cost, with no scheduler or kernel work in it."""

    def node(d):
        if d > 0:
            runtime.spawn(node, d - 1)
            runtime.spawn(node, d - 1)

    return lambda: node(depth)


def sim_calls(depth: int, workers: int) -> float:
    """Profiled calls per frame of one ``SimulatedRuntime`` execution."""
    runtime = SimulatedRuntime(workers=workers, seed=1)
    result, stats = _profiled(runtime.execute, _spawn_tree(runtime, depth))
    return _calls(stats) / result.frames


def instrument_calls() -> dict[str, float]:
    """Profiled calls per ``Counter.inc`` and ``Histogram.observe``, and
    per sample of one ``registry.collect()``."""
    instruments = MetricsRegistry()
    inc = instruments.counter("ledger_total", "probe").inc
    observe = instruments.histogram("ledger_seconds", "probe").observe

    def repeat(op, *args):
        for _ in range(INSTRUMENT_OPS):
            op(*args)

    registry = MetricsRegistry()
    for i in range(32):
        registry.counter("ledger_total", "probe", idx=i).inc()
        registry.callback_gauge("ledger_gauge", lambda: 0.0, "probe", idx=i)
    registry.histogram("ledger_seconds", "probe").observe(1e-4)
    samples, stats = _profiled(registry.collect)
    return {
        "Counter.inc": _calls(_profiled(repeat, inc)[1]) / INSTRUMENT_OPS,
        "Histogram.observe": _calls(_profiled(repeat, observe, 1.3e-4)[1]) / INSTRUMENT_OPS,
        "registry.collect": _calls(stats) / len(samples),
    }


def op_rows() -> dict[str, float]:
    table = {name: sim_calls(*tree) for name, tree in SIM_TREES.items()}
    table.update(instrument_calls())
    return table


def ops_over_budget(table: dict[str, float]) -> list[str]:
    """The per-op rows' ``--check`` verdict: one line per ceiling exceeded."""
    return [
        f"{name}: {table[name]:.2f} calls per {OP_READING[name][0]} > {limit}"
        for name, limit in MAX_OP_CALLS.items() if table[name] > limit
    ]


class _JobProfile:
    """A ``sys.setprofile`` hook: calls, lock exits and calls into LIVE
    per layer of the jobs it sees, one ``compute_dispatch`` call at a time."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.locks: Counter = Counter()
        self.live: Counter = Counter()
        self.jobs = 0
        self._stack: list[tuple[str, bool]] = []  # (layer, an OWN_FRAMES frame)

    def __call__(self, frame, event, arg) -> None:
        stack = self._stack
        if event == "call":
            if not stack:
                self.jobs += 1
                entry = ("own", True)
            elif stack[-1][1]:
                name = frame.f_code.co_name
                entry = ("own", True) if name in OWN_FRAMES else (LAYERS.get(name, "own"), False)
            else:
                entry = (stack[-1][0], False)
            stack.append(entry)
            self.calls[entry[0]] += 1
            if frame.f_code.co_filename.endswith(LIVE):
                self.live[entry[0]] += 1
        elif event == "return":
            if stack:
                stack.pop()
        elif event == "c_call" and stack:
            layer = stack[-1][0]
            self.calls[layer] += 1
            if arg.__name__ == "__exit__" and type(getattr(arg, "__self__", None)) in LOCK_TYPES:
                self.locks[layer] += 1

    def row(self) -> dict[str, dict[str, float]]:
        return {
            kind: {layer: counts[layer] / self.jobs for layer in LAYER_NAMES}
            for kind, counts in zip(REMOTE_KINDS, (self.calls, self.locks, self.live))
        }


def remote_ledger(runtime, spec, make_store) -> dict[str, dict[str, float]]:
    """Calls, lock exits and calls into LIVE per job, per layer, on ``runtime``'s
    scheduler thread, over the second of two runs (the first warms)."""
    prof = _JobProfile()
    dispatch = runtime.compute_dispatch

    def profiled(*args):
        sys.setprofile(prof)
        try:
            return dispatch(*args)
        finally:
            sys.setprofile(None)

    for warm in (True, False):
        store = make_store()
        try:
            runtime.compute_dispatch = dispatch if warm else profiled
            FTScheduler(spec, runtime, store=store).run()
        finally:
            getattr(store, "close", lambda: None)()
    return prof.row()


def remote_rows(rows: int, cols: int) -> dict[str, dict[str, dict[str, float]]]:
    lcs = make_app("lcs", config=AppConfig(n=88, block=8, seed=1))
    table = {"procpool lcs": remote_ledger(
        ProcessRuntime(workers=1), lcs, lambda: lcs.make_store(True, shared=True))}
    server = WorkerServer("inproc://ledger").start()
    try:
        table["cluster inproc grid"] = remote_ledger(
            ClusterRuntime(workers=1, addresses=[server.address]),
            grid_graph(rows, cols, compute=_noop), BlockStore)
    finally:
        server.close()
    return table


def remote_over_budget(table: dict[str, dict[str, dict[str, float]]]) -> list[str]:
    """The remote rows' ``--check`` verdict: one line per ceiling exceeded."""
    failures = []
    for name, (max_calls, max_locks) in MAX_REMOTE.items():
        calls, locks = (sum(table[name][kind].values()) for kind in ("calls", "locks"))
        if calls > max_calls:
            failures.append(f"{name}: {calls:.2f} calls per job > {max_calls}")
        if locks > max_locks:
            failures.append(f"{name}: {locks:.2f} lock exits per job > {max_locks}")
        live = sum(table[name]["live"].values())
        if live:
            failures.append(f"{name}: {live:.2f} calls into {LIVE} per job, not 0")
    return failures


def kernel_calls(kernel, b: int) -> int:
    """Profiled calls of one ``kernel`` call on a random b x b tile."""
    rng = np.random.default_rng(b)
    xs, ys = rng.integers(0, 4, (2, b)).astype(np.int8)
    edge = np.zeros(b, np.int32)
    return _calls(_profiled(kernel, xs, ys, edge, edge, 0)[1])


def kernels_over_budget(counts: dict[tuple[str, int], int]) -> list[str]:
    """The kernel rows' ``--check`` verdict: one line per ceiling exceeded."""
    return [
        f"{name} b={b}: {counts[name, b]} calls per tile > {limit}"
        for (name, b), limit in MAX_KERNEL_CALLS.items() if counts[name, b] > limit
    ]


def over_budget(table: dict[str, dict[str, float]]) -> list[str]:
    """The ``--check`` verdict: one line per ceiling exceeded."""
    ft, nabbit = table["ft"], table["nabbit"]
    failures = [
        f"{name}: {table[name]['calls']:.2f} calls per task > {limit}"
        for name, limit in MAX_CALLS.items() if table[name]["calls"] > limit
    ]
    failures += [
        f"{name}: {row['records']:.4f} records per task > {MAX_RECORDS}"
        for name, row in table.items() if row["records"] > MAX_RECORDS
    ]
    failures += [
        f"{name}: {row[LIVE]:.4f} calls into {LIVE} per task, not 0"
        for name, row in table.items() if row[LIVE]
    ]
    for name in ("ft", "nabbit"):
        surcharge = round(table[f"{name} traced"]["calls"] - table[name]["calls"], 2)
        if surcharge > MAX_SURCHARGE:
            failures.append(
                f"{name} traced: {surcharge:.2f} calls per task over untraced > {MAX_SURCHARGE}")
    gap = ft["calls"] - nabbit["calls"]
    if gap > MAX_GAP:
        failures.append(f"ft-nabbit: {gap:.2f} calls per task > {MAX_GAP}")
    failures += [
        f"ft-nabbit: {column!r} differs ({ft[column]:.2f} vs {nabbit[column]:.2f})"
        for column in ZERO_GAP if ft[column] != nabbit[column]
    ]
    return failures


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    rows, cols = (int(argv[0]), int(argv[1])) if len(argv) == 2 else (48, 48)
    table = task_rows(rows, cols, timed=not check)
    table["ft-nabbit"] = {n: v - table["nabbit"][n] for n, v in table["ft"].items()}
    names = list(table["ft"])
    print(f"{'per task':<14}" + "".join(f"{n:>16}" for n in names))
    for name, row in table.items():
        print(f"{name:<14}" + "".join(
            f"{row[n]:>16.4f}" if n == "records" else f"{row[n]:>16.2f}" for n in names))
    fault = fault_ledger()
    costs = ("calls", "lock exits", "clean calls")
    print(f"\n{'per re-executed task':<22}" + "".join(f"{n:>13}" for n in costs))
    print(f"{FAULT_ROW:<22}" + "".join(f"{fault[n]:>13.2f}" for n in costs))
    print(f"{'recovery counts':<22}" + ", ".join(f"{n} {fault[n]}" for n in FAULT_COUNTS))
    counts = {(name, b): kernel_calls(KERNELS[name], b) for name, b in MAX_KERNEL_CALLS}
    print(f"\n{'per tile':<14}{'calls':>16}")
    for (name, b), calls in counts.items():
        print(f"{f'{name} b={b}':<14}{calls:>16}")
    ops = op_rows()
    print(f"\n{'per op':<26}{'calls':>8}")
    for name, calls in ops.items():
        print(f"{f'{name} ({OP_READING[name][0]})':<26}{calls:>8.2f}")
    remote = remote_rows(rows, cols)
    print(f"\n{'per job':<26}" + "".join(f"{n:>11}" for n in LAYER_NAMES) + f"{'total':>11}")
    for name, row in remote.items():
        for kind, layers in row.items():
            print(f"{f'{name} {kind}':<26}" + "".join(
                f"{layers[n]:>11.2f}" for n in LAYER_NAMES) + f"{sum(layers.values()):>11.2f}")
    failures = (over_budget(table) + fault_over_budget(fault) + kernels_over_budget(counts)
                + ops_over_budget(ops) + remote_over_budget(remote)) if check else []
    for line in failures:
        print(f"ledger check FAILED: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
