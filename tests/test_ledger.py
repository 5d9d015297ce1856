"""The call ledger as a gate: ``benchmarks/ledger.py --check`` runs as a
subprocess and must find every per-task, per-tile, per-op and per-job
count under its ceiling."""

import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import FTScheduler
from repro.obs.events import EventKind
from repro.obs.live import Counter, MetricsRegistry
from repro.runtime import InlineRuntime, SimulatedRuntime

ROOT = Path(__file__).resolve().parent.parent


def _ledger_module():
    spec = importlib.util.spec_from_file_location("ledger", ROOT / "benchmarks" / "ledger.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ledger_check_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "ledger.py"), "--check"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, f"ledger over budget:\n{proc.stdout}\n{proc.stderr}"
    assert "ft-nabbit" in proc.stdout
    rows = {line.split("  ")[0]: line.split() for line in proc.stdout.splitlines()}
    for name in ("ft traced", "nabbit traced"):
        records = float(rows[name][-1])
        assert 0 < records <= 1.0, f"{name}: {records} records per task"
    for name in ("procpool lcs", "cluster inproc grid"):
        for kind in ("calls", "locks"):
            line = next(line for line in proc.stdout.splitlines()
                        if line.startswith(f"{name} {kind} "))
            assert float(line.split()[-1]) > 0, line
    assert float(rows["ft cold"][2]) > float(rows["ft"][1])  # the plans are built
    assert 0 < float(rows["ft lu faults"][3]) <= 170  # calls per re-executed task
    for name in ("sim tree (frame)", "sim storm (frame)", "Counter.inc (op)",
                 "Histogram.observe (op)", "registry.collect (sample)"):
        assert float(rows[name][-1]) > 0, name


#: The parent's side of a remote job before the flusher role and the
#: below-floor shm write (the remote rows' first committed reading):
#: calls and lock exits per job, per layer.
PARENT_REMOTE = {
    "procpool lcs": {
        "calls": [22.16, 26.29, 12.58, 26.29, 50.98, 9.00, 57.00, 24.00],
        "locks": [2.64, 2.00, 2.64, 5.01, 4.00, 0.00, 6.00, 1.00],
    },
    "cluster inproc grid": {
        "calls": [24.34, 26.83, 13.67, 30.01, 60.00, 3.00, 21.00, 16.00],
        "locks": [2.92, 2.00, 2.92, 5.00, 5.00, 0.00, 3.00, 1.00],
    },
}


#: The fault row's costs under the run-global ``_disturbed`` flag and
#: per-(key, phase) fault hooks (the row's first reading, same counts).
PARENT_FAULT = {"calls": 303.15, "lock exits": 43.91}


def test_the_parents_fault_reading_and_a_moved_count_fail_the_fault_row():
    ledger = _ledger_module()
    row = {**ledger.FAULT_READING, "calls": 164.04, "lock exits": 16.39, "clean calls": 125.59}
    assert ledger.fault_over_budget(row) == []
    assert ledger.fault_over_budget({**row, **PARENT_FAULT}) == [
        "ft lu faults: 303.15 calls per re-executed task > 170.0",
        "ft lu faults: 43.91 lock exits per re-executed task > 17.0",
    ]
    resets = ledger.FAULT_READING["resets"]
    assert ledger.fault_over_budget({**row, "resets": resets - 1}) == [
        f"ft lu faults: resets {resets - 1} != {resets}"
    ]


def _remote_table(ledger, rows):
    """``{row: {kind: [per-layer values]}}`` as the ledger tabulates it (a
    kind not given reads 0 in every layer)."""
    zero = [0.0] * len(ledger.LAYER_NAMES)
    return {
        name: {kind: dict(zip(ledger.LAYER_NAMES, kinds.get(kind, zero)))
               for kind in ledger.REMOTE_KINDS}
        for name, kinds in rows.items()
    }


def _at_reading(ledger, extra_locks=0.0, live=0.0):
    """Each remote row at its committed reading, all in ``own``, with
    ``live`` calls into obs/live.py per job."""
    zero = [0.0] * (len(ledger.LAYER_NAMES) - 1)
    return _remote_table(ledger, {
        name: {"calls": [*zero, calls], "locks": [*zero, locks + extra_locks],
               "live": [*zero, live]}
        for name, (calls, locks) in ledger.REMOTE_READING.items()
    })


def test_remote_rows_pass_at_their_reading():
    ledger = _ledger_module()
    assert ledger.remote_over_budget(_at_reading(ledger)) == []


def test_the_parents_remote_reading_fails_every_remote_ceiling():
    ledger = _ledger_module()
    failures = ledger.remote_over_budget(_remote_table(ledger, PARENT_REMOTE))
    assert failures == [
        f"{name}: {sum(PARENT_REMOTE[name][kind]):.2f} {what} per job > {limit}"
        for name, limits in ledger.MAX_REMOTE.items()
        for kind, what, limit in zip(("calls", "locks"), ("calls", "lock exits"), limits)
    ]
    # ... by a margin: the procpool row's ceilings are at most half of it.
    calls, locks = ledger.MAX_REMOTE["procpool lcs"]
    assert calls <= sum(PARENT_REMOTE["procpool lcs"]["calls"]) / 2
    assert locks <= sum(PARENT_REMOTE["procpool lcs"]["locks"]) / 2


def test_one_more_lock_exit_per_job_fails_the_check():
    ledger = _ledger_module()
    failures = ledger.remote_over_budget(_at_reading(ledger, extra_locks=1.0))
    assert [line.split(":")[0] for line in failures] == list(ledger.REMOTE_READING)
    assert all("lock exits per job" in line for line in failures)


def _table(ledger, overrides=()):
    """A table at the ceilings' safe side, with ``(row, column) -> value`` overrides:
    untraced rows a call under their ceilings, traced rows at the surcharge
    ceiling over them and at one record per task."""
    columns = ("calls", "records", *ledger.COLUMNS)
    table = {name: dict.fromkeys(columns, 0.0) for name in ledger.ROWS}
    for name in ("ft", "nabbit"):
        table[name]["calls"] = ledger.MAX_CALLS[name] - 1
        traced = table[f"{name} traced"]
        traced["records"] = ledger.MAX_RECORDS
        traced["calls"] = min(table[name]["calls"] + ledger.MAX_SURCHARGE,
                              ledger.MAX_CALLS[f"{name} traced"])
    for (name, column), value in dict(overrides).items():
        table[name][column] = value
    return table


def test_traced_rows_are_gated_on_calls_records_and_surcharge():
    ledger = _ledger_module()
    assert ledger.over_budget(_table(ledger)) == []
    over_calls = _table(ledger, {("ft traced", "calls"): 115.31})
    assert ledger.over_budget(over_calls) == [
        "ft traced: 115.31 calls per task > 115.3",
        "ft traced: 18.01 calls per task over untraced > 17.6",
    ]
    over_records = _table(ledger, {("nabbit traced", "records"): 1.0001})
    assert ledger.over_budget(over_records) == [
        "nabbit traced: 1.0001 records per task > 1.0"
    ]


def test_an_emit_frame_per_event_fails_the_check_under_every_row_ceiling():
    """The parent's lifecycle -- a record per event, 8.92 per task -- with
    an emit() frame on each (five calls per event) fails on records and
    on the surcharge even when every row is under its own ceiling."""
    ledger = _ledger_module()
    table = _table(ledger, {("ft traced", "records"): 8.92})
    traced = table["ft traced"]
    table["ft"]["calls"] = traced["calls"] - 5 * traced["records"]
    assert traced["calls"] < ledger.MAX_CALLS["ft traced"]
    assert ledger.over_budget(table) == [
        "ft traced: 8.9200 records per task > 1.0",
        "ft traced: 44.60 calls per task over untraced > 17.6",
    ]


class _PerEdgeNotify(FTScheduler):
    """The parent's per-edge NOTIFY: a record of its own through
    ``rec.put`` for every notification, where the source would ride the
    task record."""

    def _notify_once(self, A, key, pkey, life, mask):
        with A.lock:
            A.bit_vector ^= mask
            A.join -= 1
            val = A.join
            self.log.rec.put((next(self._seq), self._now(), self._wid(),
                              EventKind.NOTIFY, key, life, {"src": pkey}))
        if val == 0:
            self._compute_and_notify(A, key, life)


def test_the_parents_per_edge_notify_record_fails_the_traced_ceilings(monkeypatch):
    ledger = _ledger_module()
    monkeypatch.setitem(ledger.ROWS, "ft traced", (_PerEdgeNotify, True, False))
    table = ledger.task_rows(48, 48, timed=False)
    failures = ledger.over_budget(table)
    assert [line.split(":")[0] for line in failures] == ["ft traced"] * 3
    assert "calls per task >" in failures[0]
    assert "records per task" in failures[1] and "over untraced" in failures[2]
    assert table["ft traced"]["records"] > 4.9


class _WrappedFrames(InlineRuntime):
    """Runs every spawned frame through one more Python call: a closure
    around ``fn(*args)``, as a frame object around a lambda once did."""

    def spawn(self, fn, *args, label=""):
        self._stack.append((lambda: fn(*args), ()))


class _WrappedSimFrames(SimulatedRuntime):
    """The simulator with the same closure around every spawned frame."""

    def spawn(self, fn, *args, label=""):
        self._spawn_buffer.append((lambda: fn(*args), (), label))
        self._accum += self._spawn_cost


def test_one_more_call_per_frame_fails_the_check_under_every_row_ceiling(monkeypatch):
    """The ceilings sit under one call per spawned frame above the reading:
    the grid spawns 5.92 frames per task, so wrapping each one fails every
    row, traced, untraced or cold, while the record, surcharge and
    FT-NABBIT gates still pass; on the simulator it fails both spawn-tree
    rows and no instrument row."""
    ledger = _ledger_module()
    monkeypatch.setattr(ledger, "InlineRuntime", _WrappedFrames)
    monkeypatch.setattr(ledger, "SimulatedRuntime", _WrappedSimFrames)
    table = ledger.task_rows(48, 48, timed=False)
    failures = ledger.over_budget(table)
    assert [line.split(":")[0] for line in failures] == list(ledger.MAX_CALLS)
    assert all("calls per task" in line for line in failures)
    for name, limit in ledger.MAX_CALLS.items():
        assert limit < table[name]["calls"] - 5
    failures = ledger.ops_over_budget(ledger.op_rows())
    assert [line.split(":")[0] for line in failures] == list(ledger.SIM_TREES)
    assert all("calls per frame" in line for line in failures)


class _StampingCounter(Counter):
    """``Counter.inc`` that also stamps the time of its last increment:
    one more call per increment."""

    def inc(self, amount=1.0):
        with self._lock:
            self._value += amount
            self._at = time.monotonic()


class _StampingRegistry(MetricsRegistry):
    def counter(self, name, help="", **labels):
        return self._get(_StampingCounter, name, help, labels)


def test_the_per_op_rows_pass_at_their_reading_and_one_more_call_fails_them(monkeypatch):
    ledger = _ledger_module()
    reading = {name: calls for name, (_, calls) in ledger.OP_READING.items()}
    assert ledger.ops_over_budget(reading) == []
    assert ledger.ops_over_budget({name: calls + 1 for name, calls in reading.items()}) == [
        f"{name}: {calls + 1:.2f} calls per {ledger.OP_READING[name][0]} > {limit}"
        for (name, calls), limit in zip(reading.items(), ledger.MAX_OP_CALLS.values())
    ]
    monkeypatch.setattr(ledger, "MetricsRegistry", _StampingRegistry)
    measured = ledger.instrument_calls()
    assert ledger.ops_over_budget({**reading, **measured}) == [
        f"Counter.inc: 3.00 calls per op > {ledger.MAX_OP_CALLS['Counter.inc']}"
    ]


class _MeteredOnce(FTScheduler):
    """FT that builds one registry per run: the one call into obs/live.py
    a telemetry-off run must not make."""

    def run(self):
        MetricsRegistry()
        return super().run()


def test_a_single_call_into_live_metrics_fails_the_telemetry_off_rows():
    """No ledger row turns metrics on, so one call into obs/live.py per run
    (1/2304 per task) or per remote job fails it."""
    ledger = _ledger_module()
    metered = ledger.ledger(_MeteredOnce, 48, 48, timed=False)
    assert ledger.over_budget(_table(ledger, {("ft", ledger.LIVE): metered[ledger.LIVE]})) == [
        f"ft: {1 / 2304:.4f} calls into obs/live.py per task, not 0"
    ]
    assert ledger.remote_over_budget(_at_reading(ledger, live=1.0)) == [
        f"{name}: 1.00 calls into obs/live.py per job, not 0" for name in ledger.REMOTE_READING
    ]


def _anti_diagonal_lcs(xs, ys, top, left, corner):
    """LCS over one block by fancy-indexed anti-diagonal sweeps: the same
    numbers as ``lcs_block``, four profiled calls per anti-diagonal
    (``arange``, ``max``, ``min``, ``where``)."""
    r, c = len(xs), len(ys)
    g = np.empty((r + 1, c + 1), dtype=np.int32)
    g[0, 0] = corner
    g[0, 1:] = top
    g[1:, 0] = left
    match = xs[:, None] == ys[None, :]
    for d in range(2, r + c + 1):
        i = np.arange(max(1, d - c), min(r, d - 1) + 1)
        j = d - i
        best = np.maximum(g[i - 1, j], g[i, j - 1])
        g[i, j] = np.where(match[i - 1, j - 1], g[i - 1, j - 1] + 1, best)
    return g[r, 1:].copy(), g[1:, c].copy()


def test_a_per_anti_diagonal_kernel_fails_its_ceiling():
    ledger = _ledger_module()
    counts = {(name, b): ledger.kernel_calls(ledger.KERNELS[name], b)
              for name, b in ledger.MAX_KERNEL_CALLS}
    assert ledger.kernels_over_budget(counts) == []
    for b in (8, 64):
        counts["lcs_block", b] = ledger.kernel_calls(_anti_diagonal_lcs, b)
    assert ledger.kernels_over_budget(counts) == [
        "lcs_block b=8: 67 calls per tile > 16",
        "lcs_block b=64: 515 calls per tile > 72",
    ]
